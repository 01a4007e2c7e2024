"""Seeded job lists for the four plaid benchmark workloads.

A job is one check on one parameter, one predecessor pair, or one limit
experiment; the job list of one seed is a pass, and runs measure whole
passes.  The seed chooses the inputs; the program sees only the generated
parameters.  Samples are stratified by what sets the cost (omega and
p/omega for sweeps, the comparison-rectangle area for pairs; chains have a
fixed set of targets), so seeds differ in the arithmetic (p, q, tau, kappa,
prefixes) and not in scale.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Layers are called through their modules, never through names bound here,
# so the traced run sees every call the benchmark makes into them.
from plaid import alignment, cli, copying, numtheory, pet, tiling
from plaid.exactnum import QuadRat, QuadraticTarget
from plaid.numtheory import EvenRational

# Dense tiling over [0, omega^2] x [0, omega] at five omegas across 120-240.
# The light checks run on four parameters per omega, one from each quarter
# of p/omega (which sets the tile density, hence the polygon work); the
# first of them also runs the two costly checks, whose cost (0.3-1.5 s) is
# set by omega alone.  So the median job is a light job averaged over twenty
# parameters, and the tail percentile lands on the costly ones.
DENSE_OMEGAS = (121, 151, 181, 211, 239)
DENSE_PER_OMEGA = 4
DENSE_COSTLY = ("coherence", "hier")
DENSE_LIGHT = ("first", "box", "copy")

# Exact orbits: ten two-value omega windows across 40-80, four parameters
# from each (one per quarter of p/omega, which sets the orbit lengths).
# Every parameter runs `pet`; every second one also runs one of the three
# cheap checks in turn, so orbit jobs are two thirds of all jobs and the
# median job is an orbit job.  With all four checks on every parameter half
# of the jobs would take under 0.1 ms and the median would fall into the
# gap between them and the orbit jobs.
PET_WINDOWS = tuple((lo, lo + 2) for lo in range(41, 79, 4))
PET_PER_WINDOW = 4
PET_CHEAP = ("copytheorem", "omnibus", "main")

# Alignment: larger omega in 151-259, p > 1; per class (even predecessor
# with kappa = 0, core pair with kappa >= 1) one pair from each of this many
# equal-count strata of the comparison-rectangle area.
ALIGN_OMEGA = (151, 259)
ALIGN_STRATA = 100

# Limit experiments: the quadratic targets that complete at depth 7, with
# the depth sized so each job takes a few tenths of a second.
CHAIN_TARGETS = (
    ("golden", QuadRat(-1, 1, 2, 5), 7),   # (-1 + sqrt 5)/2
    ("sqrt2", QuadRat(-1, 1, 1, 2), 11),   # sqrt 2 - 1
    ("sqrt3", QuadRat(-1, 1, 1, 3), 7),    # sqrt 3 - 1
    ("sqrt7", QuadRat(-2, 1, 1, 7), 7),    # sqrt 7 - 2
    ("sqrt13", QuadRat(-3, 1, 2, 13), 5),  # (-3 + sqrt 13)/2
)
CHAIN_PREFIXES_PER_TARGET = 2
CHAIN_WINDOW = 10

# Spans are opened through this hook; untraced runs pass `no_span`.
SpanFactory = Callable[[str], object]


def no_span(_name: str):
    return nullcontext()


@dataclass
class Job:
    key: str
    run: Callable[[SpanFactory], dict]
    gate: Callable[[dict], bool]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _stratified(pop: list, k: int, rng: random.Random) -> list:
    """One item from each of k equal-count runs of `pop` (sorted by cost)."""
    n = len(pop)
    return [rng.choice(pop[i * n // k:(i + 1) * n // k]) for i in range(k)]


def _by_density(lo: int, hi: int, k: int, rng: random.Random) -> list[EvenRational]:
    """k parameters with omega in [lo, hi], stratified by p/omega."""
    pop = sorted(cli.even_rationals(hi, start=lo),
                 key=lambda r: (Fraction(r.p, r.omega), r.omega))
    return _stratified(pop, k, rng)


def _sweep_job(r: EvenRational, name: str) -> Job:
    def run(span: SpanFactory) -> dict:
        with span(f"cli.check.{name}"):
            ok, detail = cli.CHECKS[name](r)
        return {"ok": ok, "detail": detail}

    return Job(f"{name} {r}", run, lambda v: v["ok"] is True)


def sweep_dense_params(seed: int) -> list[EvenRational]:
    rng = random.Random(seed)
    return [r for om in DENSE_OMEGAS
            for r in _by_density(om, om, DENSE_PER_OMEGA, rng)]


def sweep_dense(seed: int) -> list[Job]:
    jobs = []
    for i, r in enumerate(sweep_dense_params(seed)):
        names = DENSE_LIGHT + (DENSE_COSTLY if i % DENSE_PER_OMEGA == 0 else ())
        jobs += [_sweep_job(r, name) for name in names]
    return jobs


def sweep_pet(seed: int) -> list[Job]:
    rng = random.Random(seed)
    params = []
    for lo, hi in PET_WINDOWS:
        params += _by_density(lo, hi, PET_PER_WINDOW, rng)
    jobs = []
    for i, r in enumerate(params):
        jobs.append(_sweep_job(r, "pet"))
        if i % 2 == 0:
            jobs.append(_sweep_job(r, PET_CHEAP[(i // 2) % len(PET_CHEAP)]))
    return jobs


# ---------------------------------------------------------------------------
# Pairs: the work of `plaid align`
# ---------------------------------------------------------------------------

def _pair_of(big: EvenRational):
    """(small, rectangle pair) as `plaid align` forms them."""
    if numtheory.kappa(big).kappa >= 1:
        small = numtheory.core_predecessor(big)
        return small, copying.sigma_core(small, big)
    small = numtheory.even_predecessor(big)
    return small, copying.sigma_weak_strong(small, big)


def align_verdict(small: EvenRational, big: EvenRational, pair) -> dict:
    """Matching predicates plus the bound audit, as `plaid align` reports."""
    k = numtheory.kappa(big).kappa
    if k >= 1:
        th = numtheory.tune(small).tau
        bound = Fraction(4 * k * th, big.omega * small.omega)
        rep = alignment.matching(small, big, pair,
                                 h_lines=(th, numtheory.tune(big).tau),
                                 norm_bound=bound)
        audit = alignment.core_mass_audit(small, big)
        case = "core"
    else:
        rep = alignment.matching(small, big, pair)
        audit = alignment.psi_xi_audit(small, big)
        case = f"case-{alignment.classify_case(small, big)}"
    return {"case": case, "arithmetic": rep.arithmetic,
            "geometric": rep.geometric,
            "weak_horizontal": rep.weak_horizontal,
            "specials_harmless": rep.specials_harmless,
            "tiles_equal": rep.tiles_equal, "consistent": rep.consistent,
            "exceptions": rep.exceptions, "audit": dict(audit.checks),
            "audit_exceptions": audit.exceptions}


def _align_job(small: EvenRational, big: EvenRational, pair) -> Job:
    # Core pairs whose arithmetic predicate fails while the tiles agree are
    # recorded as verdicts, not failures (see NOTES.md).
    return Job(f"align {small}->{big}", lambda span: align_verdict(small, big, pair),
               lambda v: v["tiles_equal"] is True and v["consistent"] is True)


def pairs_align(seed: int) -> list[Job]:
    lo, hi = ALIGN_OMEGA
    classes: dict[bool, list] = {False: [], True: []}
    for big in cli.even_rationals(hi, start=lo):
        if big.p <= 1:
            continue
        small, pair = _pair_of(big)
        sp = pair.sigma_prime
        area = (sp.x1 - sp.x0) * (sp.y1 - sp.y0)
        core = numtheory.kappa(big).kappa >= 1
        classes[core].append((area, big.omega, big.p, small, big, pair))
    rng = random.Random(seed)
    picks = {core: _stratified(sorted(pop, key=lambda t: t[:3]), ALIGN_STRATA, rng)
             for core, pop in classes.items()}
    return [_align_job(*picks[core][i][3:])
            for i in range(ALIGN_STRATA) for core in (False, True)]


# ---------------------------------------------------------------------------
# Chains: `plaid pet limit` plus the Diophantine check
# ---------------------------------------------------------------------------

def chain_for_depth(target: QuadraticTarget, depth: int):
    """The approximating chain with at least depth + 1 terms, grown as
    `limit_experiment` grows it."""
    q_max = 64
    while True:
        chain = numtheory.approximating_sequence(target, q_max)
        if len(chain.approximating_terms(include_target=False)) >= depth + 1:
            return chain
        q_max *= 4


def _chain_job(name: str, target: QuadraticTarget, depth: int,
               prefix: tuple[int, ...], chain) -> Job:
    def run(span: SpanFactory) -> dict:
        rep = pet.limit_experiment(target, prefix, window=CHAIN_WINDOW, depth=depth)
        dio = numtheory.diophantine_check(target, chain)
        return {"stable_from": rep.stable_from, "depths": rep.depths,
                "anchors": rep.anchors, "deltas": [str(d) for d in rep.deltas],
                "cluster_size": len(rep.cluster),
                "diophantine": [[e["p"], e["q"], e["class"], e["bound_ok"]]
                                for e in dio.entries],
                "diophantine_ok": dio.all_ok}

    key = f"limit {name} depth={depth} prefix={''.join(map(str, prefix))}"
    return Job(key, run, lambda v: v["stable_from"] is not None
               and v["diophantine_ok"] is True)


def chain_probe(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, value, depth in CHAIN_TARGETS:
        target = QuadraticTarget(value)
        chain = chain_for_depth(target, depth)
        for _ in range(CHAIN_PREFIXES_PER_TARGET):
            prefix = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            jobs.append(_chain_job(name, target, depth, prefix, chain))
    return jobs


GENERATORS = {"sweep-dense": sweep_dense, "sweep-pet": sweep_pet,
              "pairs-align": pairs_align, "chain-probe": chain_probe}
WORKLOADS = tuple(GENERATORS)

# job_tail_ms is the highest percentile with at least ten samples beyond it,
# capped here at what each workload's job count allows at 25 s per run on
# the reference machine, so a faster program does not switch its tail to a
# higher percentile.
TAIL_CAP = {"sweep-dense": 90.0, "sweep-pet": 90.0, "pairs-align": 98.0,
            "chain-probe": 75.0}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# Oracle: dense tiles against the scalar path, outside the timed phase
# ---------------------------------------------------------------------------

ORACLE_SQUARES = 64


def oracle_squares(workload: str) -> int:
    if workload != "sweep-dense":
        return 0
    return ORACLE_SQUARES * len(DENSE_OMEGAS) * DENSE_PER_OMEGA


def oracle_mismatches(workload: str, seed: int) -> list[str]:
    """Squares of a seeded block of each dense tiling whose tile differs from
    the scalar oracle `tile_bits_at`."""
    if workload != "sweep-dense":
        return []
    rng = random.Random(f"oracle-{seed}")
    bad = []
    for r in sweep_dense_params(seed):
        om = r.omega
        x0 = rng.randrange(om) * om
        dense = tiling.build_tiling(r, x0, x0 + om, 0, om)
        for _ in range(ORACLE_SQUARES):
            a, b = x0 + rng.randrange(om), rng.randrange(om)
            if dense.tile_bits(a, b) != tiling.tile_bits_at(r, a, b):
                bad.append(f"{r} ({a},{b})")
    return bad
