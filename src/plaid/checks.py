"""Per-parameter verification checks and the sweep that runs them.

Each check takes one even rational and returns ``(ok, detail)``: ``ok`` is the
verdict, ``detail`` is empty on a plain pass, names the counterexample on a
failure, and says why on a pass that checked nothing (``"skipped (...)"``,
``"out of scope (...)"``).  `run_sweep` runs a list of checks over a list of
parameters; a check that raises is recorded as a failure of that parameter
and check, with detail ``"<ExceptionType>: <message>"``, and the sweep goes
on.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from math import gcd

import numpy as np

from . import copying
from .grid import cap_scaled
from .numtheory import (EvenRational, kappa, main_identity, pair_kind,
                        predecessor_chain, tune, verify_omnibus)
from .tiling import (TILE_NAMES, _edge_counts, big_polygon, build_tiling,
                     first_block_tiling, scalar_oracle)


def even_rationals(max_omega: int, start: int = 3, regime: str = "all"):
    """Even rationals with omega <= max_omega, optionally filtered by regime.

    The regime classifies the parameter itself: core when kappa >= 1 (which
    includes every p = 1), else strong or weak by the tune against omega/4.
    """
    for om in range(start, max_omega + 1, 2):
        for p in range(1, om // 2 + 1):
            if gcd(p, om) == 1:
                r = EvenRational(p, om - p)
                if regime != "all" and _regime(r) != regime:
                    continue
                yield r


def _regime(r: EvenRational) -> str:
    kind = pair_kind(r)
    return "core" if kind == "unit" else kind


# ---------------------------------------------------------------------------
# Per-parameter checks (top-level functions so sweeps can fork them)
# ---------------------------------------------------------------------------

def check_coherence(r: EvenRational) -> tuple[bool, str]:
    build_tiling(r, 0, r.omega ** 2, 0, r.omega)
    return True, ""


def check_hier(r: EvenRational) -> tuple[bool, str]:
    om = r.omega
    hcount, vcount = _edge_counts(r, 0, om * om, 0, om)
    cap = np.abs([cap_scaled(r, n) for n in range(om)])
    # vertical lines: one vertical period suffices
    per_line = vcount[:-1].sum(axis=1)
    for x0 in np.flatnonzero(per_line != np.tile(cap, om))[:1]:
        return False, (f"V line x={x0} carries {per_line[x0]} light points, "
                       f"capacity {cap[x0 % om]}")
    # horizontal lines: every block window, corners once, midpoints twice
    per_block = hcount[:, :-1].reshape(om, om, om).sum(axis=1).T
    for y0, blk in np.argwhere(per_block != cap[:, None])[:1]:
        return False, (f"H line y={y0} block {blk} carries "
                       f"{per_block[y0, blk]} light points, capacity {cap[y0]}")
    return True, ""


def check_first(r: EvenRational) -> tuple[bool, str]:
    big_polygon(r)
    return True, ""


def check_omnibus(r: EvenRational) -> tuple[bool, str]:
    if r.p <= 1:
        return True, "skipped (p=1)"
    rep = verify_omnibus(r)
    bad = [k for k, v in rep.statements.items() if not v]
    return (not bad), ",".join(bad)


def check_main(r: EvenRational) -> tuple[bool, str]:
    if kappa(r).kappa == 0 or r.p == 1:
        return True, "out of scope (kappa=0 or p=1)"
    if not main_identity(r):
        return False, "height/width identity failed"
    th = tune(copying.core_predecessor(r)).tau
    c = abs(cap_scaled(r, th))
    if c != 4 * kappa(r).kappa + 2:
        return False, f"barrier capacity {c} != 4*kappa+2"
    return True, ""


def check_box(r: EvenRational) -> tuple[bool, str]:
    rep = copying.verify_box_lemma(r)
    return rep.ok, "" if rep.ok else f"crossings={rep.crossings}"


def check_copy(r: EvenRational) -> tuple[bool, str]:
    if r.p == 1:
        return True, "skipped (p=1 descends by the unit rule)"
    if copying.verify_copy(r):
        return True, ""
    return False, f"{'core' if kappa(r).kappa >= 1 else 'weak/strong'} copy failed"


def check_copytheorem(r: EvenRational) -> tuple[bool, str]:
    chain = predecessor_chain(r)
    terms = chain.approximating_terms()
    for r0, r1 in zip(terms, terms[1:]):
        rep = copying.verify_copy_theorem(r0, r1)
        if not rep.ok:
            return False, f"pair {r0}->{r1}"
    return True, ""


def check_pet(r: EvenRational) -> tuple[bool, str]:
    """The dense first block and the scalar oracle agree at every square.

    Orbits follow the scalar oracle's connectors, and the classifying map
    conjugates each unit step to its translation whatever the tiles are, so
    the PET dynamics of the block stand or fall with these tiles.  The
    detail names the least square, in (a, b) order, that differs.
    """
    om = r.omega
    dense = first_block_tiling(r).tiles.tolist()
    bits_at = scalar_oracle(r)
    for a in range(om):
        for b in range(om):
            scalar = bits_at(a, b)
            if dense[a][b] != scalar:
                return False, (
                    f"square ({a},{b}) is {TILE_NAMES[dense[a][b]] or 'empty'} "
                    f"in the dense tiling and {TILE_NAMES[scalar] or 'empty'} "
                    f"in the scalar oracle")
    return True, ""


CHECKS = {
    "coherence": check_coherence,
    "hier": check_hier,
    "first": check_first,
    "omnibus": check_omnibus,
    "main": check_main,
    "box": check_box,
    "copy": check_copy,
    "copytheorem": check_copytheorem,
    "pet": check_pet,
}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _run_checks_one(args):
    (p, q), names = args
    r = EvenRational(p, q)
    out = {}
    for name in names:
        try:
            ok, detail = CHECKS[name](r)
        except Exception as exc:  # a model violation fails this check only
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out[name] = {"ok": ok, **({"detail": detail} if detail else {})}
    return (p, q), out


def run_sweep(params, checks, workers=None) -> dict:
    """Run the named checks on every parameter, in worker processes if asked.

    ``workers`` defaults to the PLAID_WORKERS environment variable; rows and
    failures come out in (omega, p) order whatever the worker count.
    """
    jobs = [((r.p, r.q), checks) for r in params]
    if workers is None:
        workers = int(os.environ.get("PLAID_WORKERS", "0")) or None
    results = {}
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, out in pool.map(_run_checks_one, jobs, chunksize=4):
                results[key] = out
    else:
        for job in jobs:
            key, out = _run_checks_one(job)
            results[key] = out
    rows, failures = [], []
    for (p, q) in sorted(results, key=lambda t: (t[0] + t[1], t[0])):
        row = {"param": f"{p}/{q}", **results[(p, q)]}
        rows.append(row)
        for name, res in results[(p, q)].items():
            if not res["ok"]:
                failures.append({"param": f"{p}/{q}", "check": name,
                                 "detail": res.get("detail", "")})
    return {"results": rows, "failures": failures}
