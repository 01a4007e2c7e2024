"""Even rational parameters, tunes, predecessors and their identities.

An *even rational* is p/q in lowest terms with 0 < p/q < 1 and pq even,
equivalently p + q odd.  The derived quantities

    omega = p + q,   P = 2p/omega,   Q = 2q/omega

drive everything else: the tune tau (unique solution of 2*p*tau = +-1 mod
omega in (0, omega/2)), the core constant kappa bracketing tau/omega between
kappa/(2kappa+1) and (kappa+1)/(2kappa+3), and the even/core predecessor
maps that descend any parameter to 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .exactnum import CFTarget, QuadraticTarget


@dataclass(frozen=True)
class EvenRational:
    p: int
    q: int

    def __post_init__(self):
        if not (0 <= self.p < self.q):
            raise ValueError(f"{self.p}/{self.q}: need 0 <= p < q")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")
        if self.p * self.q % 2 != 0:
            raise ValueError(f"{self.p}/{self.q} is an odd rational (pq must be even)")

    @classmethod
    def parse(cls, text: str) -> "EvenRational":
        try:
            p, q = (int(t) for t in text.strip().split("/"))
        except ValueError:
            raise ValueError(f"expected 'p/q', got {text!r}") from None
        return cls(p, q)

    @property
    def omega(self) -> int:
        return self.p + self.q

    @property
    def big_p(self) -> Fraction:
        return Fraction(2 * self.p, self.omega)

    @property
    def big_q(self) -> Fraction:
        return Fraction(2 * self.q, self.omega)

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def is_zero(self) -> bool:
        return self.p == 0

    def __str__(self):
        return f"{self.p}/{self.q}"


ZERO = EvenRational(0, 1)


@dataclass(frozen=True)
class Tune:
    tau: int
    sign_choice: int  # +1 if 2*p*tau = +1 mod omega, else -1


@dataclass(frozen=True)
class CoreConstant:
    kappa: int


def tune(r: EvenRational) -> Tune:
    """The unique integer tau in (0, omega/2) with 2*p*tau = +-1 mod omega."""
    if r.is_zero:
        raise ValueError("0/1 has no tune")
    om = r.omega
    inv = pow(2 * r.p, -1, om)  # in (0, omega)
    if 2 * inv < om:
        return Tune(inv, +1)
    return Tune(om - inv, -1)


def kappa(r: EvenRational) -> CoreConstant:
    """kappa with kappa/(2kappa+1) <= tau/omega < (kappa+1)/(2kappa+3).

    Left equality occurs exactly for p = 1 (parameters 1/2n).
    """
    t = tune(r).tau
    return CoreConstant(t // (r.omega - 2 * t))


def theta(r: EvenRational) -> int:
    """The integer with 2*p*tau = theta*omega + sign.

    It is odd: ``tune`` gives 2*p*tau = sign mod omega, so the division is
    exact, and theta*omega = 2*p*tau - sign is odd, as is omega."""
    t = tune(r)
    return (2 * r.p * t.tau - t.sign_choice) // r.omega


def even_predecessor(r: EvenRational) -> EvenRational:
    """The unique even rational Farey-related to r with smaller omega.

    For p = 1 this is 0/1 (which is Farey-related to 1/q for every q).
    With p' = p - theta and q' = q - 2*tau + theta, omega' = omega - 2*tau
    by construction and p'q - q'p = 2*p*tau - theta*omega = sign, so the
    two are Farey-related; ``EvenRational`` checks that p'/q' is even.
    """
    if r.is_zero:
        raise ValueError("0/1 has no even predecessor")
    th = theta(r)
    t = tune(r).tau
    return EvenRational(r.p - th, r.q - (2 * t - th))


def core_predecessor(r: EvenRational) -> EvenRational:
    """(p - 2*kappa*p', q - 2*kappa*q'); the identity when kappa = 0.

    Parameters 1/2n are excluded: their descent uses the p = 1 rule.
    """
    k = kappa(r).kappa
    if k == 0:
        return r
    if r.p == 1:
        raise ValueError(f"{r} has p = 1; the core predecessor is not defined")
    prev = even_predecessor(r)
    return EvenRational(r.p - 2 * k * prev.p, r.q - 2 * k * prev.q)


def predecessor(r: EvenRational) -> EvenRational:
    """One step of the descent: p=1 drops to 0/1, else core or even predecessor."""
    if r.is_zero:
        raise ValueError("0/1 has no predecessor")
    if r.p == 1:
        return ZERO
    if kappa(r).kappa >= 1:
        return core_predecessor(r)
    return even_predecessor(r)


def pair_kind(r: EvenRational) -> str:
    """Kind of the descent step into r: 'unit' | 'core' | 'strong' | 'weak'."""
    if r.p == 1:
        return "unit"
    if kappa(r).kappa >= 1:
        return "core"
    return "strong" if 4 * tune(r).tau > r.omega else "weak"


@dataclass(frozen=True)
class PredecessorChain:
    """Ascending chain 0/1 = t_0 < ... < t_n = target with per-step kinds.

    kinds[k] classifies the step terms[k] -> terms[k+1]; it is also the
    class of the *term* terms[k] in the descent-sequence sense.
    """

    terms: tuple[EvenRational, ...]
    kinds: tuple[str, ...]

    def term_class(self, k: int) -> str | None:
        """Class of terms[k]: the kind of the pair above it (None for the target)."""
        return self.kinds[k] if k < len(self.kinds) else None

    def approximating_terms(self, include_target: bool = True) -> list[EvenRational]:
        """Core terms, plus strong terms not preceded by a core term.

        With ``include_target`` the chain's target is appended when it could
        extend the sequence; a target reached by a core step never can (its
        class could be neither core again nor strong-after-core).
        """
        out = []
        for k in range(len(self.terms) - 1):
            cls = self.kinds[k]
            if cls == "core":
                out.append(self.terms[k])
            elif cls == "strong":
                prev_cls = self.kinds[k - 1] if k > 0 else None
                if prev_cls != "core":
                    out.append(self.terms[k])
        if include_target and (self.kinds and self.kinds[-1] != "core") \
                and (not out or out[-1] != self.terms[-1]):
            out.append(self.terms[-1])
        return out


def predecessor_chain(r: EvenRational) -> PredecessorChain:
    terms = [r]
    while not terms[-1].is_zero:
        terms.append(predecessor(terms[-1]))
        if len(terms) > r.omega + 1:
            raise AssertionError("descent failed to terminate")
    terms.reverse()
    kinds = tuple(pair_kind(t) for t in terms[1:])
    if any(a == b == "core" for a, b in zip(kinds, kinds[1:])):
        raise AssertionError("two consecutive core steps")
    return PredecessorChain(tuple(terms), kinds)


# ---------------------------------------------------------------------------
# Lemma bundle: the seven predecessor identities (plus the optional eighth)
# ---------------------------------------------------------------------------

@dataclass
class OmnibusReport:
    r: EvenRational
    statements: dict[str, bool] = field(default_factory=dict)
    statement8: bool | None = None  # separate: only stated in a companion chapter
    details: dict[str, str] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.statements.values())


def verify_omnibus(r: EvenRational) -> OmnibusReport:
    """Check the seven predecessor identities for a parameter with p > 1."""
    if r.p <= 1:
        raise ValueError("the identities assume p > 1")
    rep = OmnibusReport(r)
    om, t, k = r.omega, tune(r).tau, kappa(r).kappa
    prev = even_predecessor(r)
    omp, tp = prev.omega, tune(prev).tau
    hat = core_predecessor(r)
    omh, th = hat.omega, tune(hat).tau

    rep.statements["s1"] = (0 < hat.p < hat.q and gcd(hat.p, hat.q) == 1
                            and hat.p * hat.q % 2 == 0)
    eq_a = (t - tp == k * omp)
    eq_b = (t + tp == (1 + k) * omp)
    rep.statements["s2"] = (eq_a or eq_b) and tp <= t
    rep.details["s2"] = "tau-tau'=kappa*omega'" if eq_a else "tau+tau'=(1+kappa)*omega'"
    rep.statements["s3"] = even_predecessor(hat) == prev
    rep.statements["s4"] = kappa(hat).kappa == 0
    rep.statements["s5"] = om - 2 * t == omh - 2 * th
    if k == 0:
        rep.statements["s6"] = (tp == t) if pair_kind(r) == "weak" else (tp == omp - t)
        rep.statements["s7"] = True
    else:
        rep.statements["s6"] = True
        rep.statements["s7"] = 2 * k * omh < 3 * om
    # companion-chapter statement: kappa' >= 1 implies omega* + omega' < omega,
    # where */ is the core predecessor of the even predecessor
    if prev.p > 1 and kappa(prev).kappa >= 1:
        star = core_predecessor(prev)
        rep.statement8 = star.omega + omp < om
    return rep


def main_identity(r: EvenRational) -> bool:
    """(2*kappa+1)*(omega-2*tau) + 2*tau_hat == omega, with tau_hat <= omega-2*tau.

    Vacuous for kappa = 0 and out of scope for p = 1.
    """
    k = kappa(r).kappa
    if k == 0 or r.p == 1:
        return True
    h = r.omega - 2 * tune(r).tau
    w = tune(core_predecessor(r)).tau
    return (2 * k + 1) * h + 2 * w == r.omega and w <= h


# ---------------------------------------------------------------------------
# Irrational targets: Stern-Brocot walk and approximating sequences
# ---------------------------------------------------------------------------

IrrationalTarget = QuadraticTarget | CFTarget


def stern_brocot_path(target: IrrationalTarget, q_max: int) -> list[EvenRational]:
    """Even rationals visited on the target's Stern-Brocot path, q <= q_max."""
    if q_max < 2:
        raise ValueError("q_max must be at least 2")
    lo = (0, 1)
    hi = (1, 1)
    visited: list[EvenRational] = []
    while True:
        med = (lo[0] + hi[0], lo[1] + hi[1])
        if med[1] > q_max:
            break
        c = target.cmp_fraction(Fraction(*med))
        if (med[0] * med[1]) % 2 == 0:
            visited.append(EvenRational(*med))
        if c == 0:
            break
        if c < 0:
            hi = med
        else:
            lo = med
    return visited


def approximating_sequence(target: IrrationalTarget, q_max: int) -> PredecessorChain:
    """Chain of the deepest even Stern-Brocot approximant with q <= q_max."""
    visited = stern_brocot_path(target, q_max)
    if not visited:
        return PredecessorChain((ZERO,), ())
    return predecessor_chain(visited[-1])


@dataclass
class DiophantineReport:
    entries: list[dict]

    @property
    def all_ok(self) -> bool:
        return all(e["bound_ok"] for e in self.entries if e["covered"])


def diophantine_check(target: IrrationalTarget,
                      chain: PredecessorChain) -> DiophantineReport | None:
    """|A - p_k/q_k| < 48/q_k^2 for every non-weak term (Diophantine bound).

    None for a continued-fraction target, whose distances are not exact."""
    if not isinstance(target, QuadraticTarget):
        return None
    entries = []
    for k, term in enumerate(chain.terms):
        if term.is_zero:
            continue
        cls = chain.term_class(k)
        covered = cls in ("strong", "core")
        entry = {"p": term.p, "q": term.q, "class": cls, "covered": covered,
                 "bound_ok": None}
        if covered:
            entry["bound_ok"] = bool(target.abs_diff(term.value()) * term.q ** 2 < 48)
        entries.append(entry)
    return DiophantineReport(entries)
