"""Test ideals tau(f^lambda), F-jumping numbers, and the F-pure threshold.

Everything reduces to Frobenius roots through two exact identities:

  * pure p-power exponents: tau(f^(m/p^e)) = (f^m)^[1/p^e], no limit
    process involved;
  * for lambda = t/(p^s - 1), the chain J -> (f^t * J)^[1/p^s] seeded at
    (f) ascends to tau(f^lambda) for 0 < t < p^s - 1, and seeded at (1) it
    descends to the left limit of tau at lambda for 0 < t <= p^s - 1 (its
    e-th entry is tau at the pure p-power exponent t*(1 + p^s + ... +
    p^(s(e-1)))/p^(se), which increases to lambda from below).

The step operator is monotone, so one-step equality is a rigorous stopping
rule for both chains, and every chain stops within hsl_upper_bound of its
degree bound (see cartier_chain). Both tau and its left limit at a general
rational lambda = r/(p^a(p^s - 1)) go through one routine: lambda * p^a =
k + t/(p^s - 1) picks the chain, and one mixed root (f^k * chain)^[1/p^a]
divides by p^a. Skoda's identity (tau(f^lambda) = f * tau(f^(lambda-1))
for lambda >= 1) is folded into that root: the part of k beyond p^a
multiplies the result.

Both searches, fpt and the jumping numbers, certify with one rule. Walking
candidates lambda = r/(p^a(p^s - 1)) upward from a known ideal "below", tau
drops at lambda when tau(f^lambda) differs from below; the drop is a
certified jump when the left limit of tau at lambda still equals below, and
only a candidate when it does not (then tau dropped somewhere in between,
at an exponent outside the candidate families).

Jumping-number enumeration exploits monotonicity twice: equal ideals at two
grid exponents certify the absence of jumps over the whole span (enabling
divide-and-conquer instead of a full p^e grid walk), and each localized
drop cell is then walked with the rule above from the grid ideal at its
left end until tau reaches the grid ideal at its right end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .errors import (
    ChainNotMonotone,
    CharpError,
    OutOfInterval,
    ResourceLimit,
    UnitPolynomial,
    ZeroPolynomial,
)
from .ring import Polynomial, per_call_memo, pow_base_p
from .groebner import Ideal, ideal_equal, ideal_subset, scale_ideal, unit_ideal
from .frobenius import _check_root_guard, _max_root_depth, mixed_root
from .hsl import hsl_upper_bound


def multiplicative_order(x: int, modulus: int, limit: int = None) -> int:
    """The least s >= 1 with x^s = 1 mod modulus.

    With a limit, an order beyond it raises ResourceLimit after fewer than
    limit multiplications, so a huge modulus costs no more than the limit.
    """
    if modulus == 1:
        return 1
    x %= modulus
    value, order = x, 1
    while value != 1:
        if order == limit:
            raise ResourceLimit(f"the order of {x} mod {modulus} exceeds {limit}")
        value = value * x % modulus
        order += 1
        if order > modulus:
            raise ValueError(f"{x} is not invertible mod {modulus}")
    return order


@dataclass(frozen=True)
class PFracForm:
    """lambda = r / (p^a * (p^s - 1)) with s minimal."""

    r: int
    a: int
    s: int

    def as_fraction(self, p: int) -> Fraction:
        return Fraction(self.r, p**self.a * (p**self.s - 1))


def pfrac_form(lam: Fraction, p: int, s_limit: int = None) -> PFracForm:
    """The form of lam; a period s beyond s_limit raises ResourceLimit."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("exponent must be positive")
    den = lam.denominator
    a = 0
    while den % p == 0:
        den //= p
        a += 1
    s = multiplicative_order(p, den, s_limit) if den > 1 else 1
    scaled = lam * p**a * (p**s - 1)
    assert scaled.denominator == 1
    return PFracForm(r=int(scaled), a=a, s=s)


@dataclass(frozen=True)
class JumpCertificate:
    value: Fraction
    tau_at: Ideal
    tau_left: Ideal
    status: str  # certified-jump | certified-not-jump | candidate

    def is_jump(self):
        return self.status == "certified-jump"


@dataclass(frozen=True)
class NuValue:
    e: int
    nu: int


@dataclass(frozen=True)
class FptInterval:
    """Uncertified fallback: the threshold lies in (lo, hi]."""

    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class GapClaim:
    """Certified-empty open interval (lo, hi): no jumping numbers inside."""

    lo: Fraction
    hi: Fraction


def _require_nonzero(f: Polynomial):
    if not f.terms:
        raise ZeroPolynomial("zero polynomial has no test ideals")


def _require_nonunit(f: Polynomial):
    if f.is_unit():
        raise UnitPolynomial("constant polynomial is F-regular everywhere")


@per_call_memo
def cartier_chain(f: Polynomial, r: int, s: int, seed: Ideal) -> Ideal:
    """Iterate J -> (f^r * J)^[1/p^s] from seed until it stops moving.

    The step operator is inclusion-monotone, so once two consecutive values
    agree the chain is constant forever; the direction (ascending or
    descending) is asserted on the first step.

    Every entry is generated in degree at most B = max(1, deg seed,
    ceil(r * deg f / (p^s - 1))): if J is, then f^r * J is generated in
    degree at most r * deg f + B <= p^s * B, and its root in degree at most
    B. An ideal generated in degree at most B is determined by its part in
    that degree, a space of dimension C(n + B, n), so a strictly monotone
    chain has at most C(n + B, n) + 1 members and stabilizes within
    hsl_upper_bound(n, B) steps. A chain still moving there contradicts
    the bound: an internal error.
    """
    _check_root_guard(f.ring.p, s)
    q = f.ring.p**s - 1
    degree = max((g.total_degree() for g in seed.gens), default=0)
    bound = hsl_upper_bound(
        len(f.ring.vars), max(1, degree, -(-r * f.total_degree() // q))
    )
    current = seed
    for step in range(bound):
        nxt = mixed_root(f, r, current, s)
        if ideal_equal(nxt, current):
            return current
        if step == 0 and not (
            ideal_subset(current, nxt) or ideal_subset(nxt, current)
        ):
            raise ChainNotMonotone(
                f"chain step is not monotone from seed {seed} (r={r}, s={s})"
            )
        current = nxt
    raise CharpError(f"chain did not stabilize within its bound {bound}")


@per_call_memo
def tau_ppower(f: Polynomial, m: int, e: int) -> Ideal:
    """tau(f^(m/p^e)) = (f^m)^[1/p^e], exactly."""
    _require_nonzero(f)
    return mixed_root(f, m, unit_ideal(f.ring), e)


def _tau_side(f: Polynomial, lam, left: bool) -> Ideal:
    """tau(f^lam), or its left limit at lam when left is set.

    lam * p^a = k + t/(p^s - 1) with t in [0, p^s - 1) for tau and in
    (0, p^s - 1] for the left limit; t = 0 leaves the chain at (1).
    """
    lam = Fraction(lam)
    _require_nonzero(f)
    if lam < 0 or (left and lam == 0):
        raise ValueError(f"exponent must be {'positive' if left else '>= 0'}")
    ring = f.ring
    if f.is_unit() or lam == 0:
        return unit_ideal(ring)
    # the period s is a root depth: bound it before p^s is formed
    form = pfrac_form(lam, ring.p, s_limit=_max_root_depth(ring.p))
    q = ring.p**form.s - 1
    k, t = divmod(form.r, q)
    if left and t == 0:
        k, t = k - 1, q
    inner = unit_ideal(ring)
    if t:
        seed = inner if left else Ideal(ring, [f])
        inner = cartier_chain(f, t, form.s, seed)
    return mixed_root(f, k, inner, form.a)


@per_call_memo
def tau(f: Polynomial, lam) -> Ideal:
    """The test ideal of f at exponent lam >= 0."""
    return _tau_side(f, lam, left=False)


@per_call_memo
def tau_left(f: Polynomial, lam) -> Ideal:
    """The common value of tau(f^mu) for mu < lam sufficiently close."""
    return _tau_side(f, lam, left=True)


@per_call_memo
def is_fjumping(f: Polynomial, lam) -> JumpCertificate:
    lam = Fraction(lam)
    _require_nonzero(f)
    if lam <= 0:
        raise ValueError("exponent must be positive")
    if f.is_unit():
        one = unit_ideal(f.ring)
        return JumpCertificate(
            value=lam, tau_at=one, tau_left=one, status="certified-not-jump"
        )
    # f^k*A == f^k*B iff A == B (the ring is a domain), so decide equality
    # at lam - k in (0, 1] and scale only the reported ideals
    k = ceil(lam) - 1
    at = tau(f, lam - k)
    left = tau_left(f, lam - k)
    status = "certified-not-jump" if ideal_equal(at, left) else "certified-jump"
    if k:
        g = pow_base_p(f, k)
        at = scale_ideal(g, at)
        left = scale_ideal(g, left)
    return JumpCertificate(value=lam, tau_at=at, tau_left=left, status=status)


@per_call_memo
def nu(f: Polynomial, e: int) -> NuValue:
    """Largest m with (f^m)^[1/p^e] = (1).

    Monotone binary search; m = p^e is always a safe upper bound because
    tau(f^1) = (f) is proper for a nonunit f.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    p = f.ring.p
    _check_root_guard(p, e)
    lo, hi = 0, p**e  # root(lo) unit, root(hi) proper
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tau_ppower(f, mid, e).is_unit():
            lo = mid
        else:
            hi = mid
    return NuValue(e=e, nu=lo)


def _candidates_in_interval(p, lo: Fraction, hi: Fraction, a_max, s_max):
    """All rationals r/(p^a(p^s-1)) in (lo, hi], ascending."""
    values = set()
    for a in range(a_max + 1):
        for s in range(1, s_max + 1):
            den = p**a * (p**s - 1)
            r_lo = int(lo * den)  # r > lo*den
            r_hi = int(hi * den)  # r <= hi*den
            for r in range(r_lo + 1, r_hi + 1):
                values.add(Fraction(r, den))
    return sorted(values)


def _capped_depth(p: int, wanted: int) -> int:
    """wanted, or wanted - 1 where p^wanted is beyond the root guard.

    Giving up a level widens the localizing cell p-fold. That only adds
    candidates, and each is still certified, so the answer is unchanged.
    Two levels would multiply every candidate family by p^2 (the cusp's
    fpt then takes two minutes at p = 53), so the guard fires instead.
    """
    _check_root_guard(p, wanted - 1)
    return min(wanted, _max_root_depth(p))


def _drop_at(f: Polynomial, lam: Fraction, below: Ideal):
    """None if tau(f^lam) still equals below, else the drop at lam.

    The drop is a certified jump when the left limit of tau at lam equals
    below as well, and a candidate when it does not: then tau already
    dropped somewhere between the exponent of below and lam.
    """
    at = tau(f, lam)
    if ideal_equal(at, below):
        return None
    left = tau_left(f, lam)
    status = "certified-jump" if ideal_equal(left, below) else "candidate"
    return JumpCertificate(value=lam, tau_at=at, tau_left=left, status=status)


@per_call_memo
def fpt(f: Polynomial, e_max: int = 4, s_max: int = 4):
    """The F-pure threshold: smallest exponent with a proper test ideal.

    Localizes the threshold to a width p^(-e_ref) interval with e_ref =
    e_max + s_max (so each candidate family contributes O(1) candidates),
    or one less where p^(e_max + s_max) is beyond ROOT_POWER_LIMIT,
    then walks the candidates inside from below = (1) up to the first
    drop of tau. Returns that drop when it is a certified jump, else an
    FptInterval (honest uncertified localization): past a drop tau is
    proper, and so is every later left limit, so nothing later certifies.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    p = f.ring.p
    e_ref = _capped_depth(p, e_max + s_max)
    located = nu(f, e_ref)
    lo = Fraction(located.nu, p**e_ref)
    hi = Fraction(located.nu + 1, p**e_ref)
    one = unit_ideal(f.ring)
    lams = _candidates_in_interval(p, lo, hi, e_max, s_max)
    drop = next(filter(None, (_drop_at(f, lam, one) for lam in lams)), None)
    if drop is not None and drop.is_jump():
        return drop
    return FptInterval(lo=lo, hi=hi)


@per_call_memo
def jumps_in_unit_interval(f: Polynomial, e_res: int, s_max: int = 4):
    """Certified F-jumping numbers of f in the open interval (0, 1).

    Walks the monotone grid m -> (f^m)^[1/p^e_res] by divide-and-conquer
    (equal endpoint ideals certify a jump-free span), refines each dropping
    cell to depth e_res + 2 + s_max (one less where that power of p is
    beyond the root guard), and walks each deep cell's candidates with the
    drop rule, from the grid ideal at its left end until tau reaches the
    one at its right end. Any drop not explained by a certified candidate
    is emitted with status "candidate" rather than suppressed.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    p = f.ring.p
    a_max = e_res + 2
    # refinement depth for candidate localization; its guard covers p^e_res
    deep = _capped_depth(p, a_max + s_max)

    cache = {}

    def grid(m, depth):
        # tau(f^(m*p/p^(e+1))) = tau(f^(m/p^e)): key on the reduced exponent
        # so that sub-cell endpoints reuse the coarse grid; the floor of
        # depth 1 keeps the exponents 0 and 1 roots like every other probe
        while depth > 1 and m % p == 0:
            m, depth = m // p, depth - 1
        key = (m, depth)
        if key not in cache:
            cache[key] = tau_ppower(f, m, depth)
        return cache[key]

    def drop_cells(m_lo, m_hi, depth):
        # cells (m-1, m] where the grid ideal strictly drops, ascending; a
        # loop, not a closure that calls itself, so no reference cycle
        # keeps the grid cache alive after the call returns
        spans = [(m_lo, m_hi)]
        while spans:
            lo, hi = spans.pop()
            if ideal_equal(grid(lo, depth), grid(hi, depth)):
                continue
            if hi - lo == 1:
                yield hi
                continue
            mid = (lo + hi) // 2
            spans += [(mid, hi), (lo, mid)]

    results = []
    scale = p ** (deep - e_res)
    for m in drop_cells(0, p**e_res, e_res):
        for m2 in drop_cells((m - 1) * scale, m * scale, deep):
            below, end = grid(m2 - 1, deep), grid(m2, deep)
            lo, hi = Fraction(m2 - 1, p**deep), Fraction(m2, p**deep)
            lams = _candidates_in_interval(p, lo, hi, a_max, s_max)
            if hi == 1:
                # the jump at exactly 1 is outside the open interval: the
                # cell ends at the left limit at 1 instead
                lams = [lam for lam in lams if lam < 1]
                end = tau_left(f, 1)
            elif hi not in lams:
                lams.append(hi)  # deep pure p-power endpoint
            for lam in lams:
                if ideal_equal(below, end):
                    break  # cell fully explained
                drop = _drop_at(f, lam, below)
                if drop:
                    results.append(drop)
                    below = drop.tau_at
            if not ideal_equal(below, end):
                # a drop that no candidate explains
                results.append(
                    JumpCertificate(
                        value=hi, tau_at=end, tau_left=below, status="candidate"
                    )
                )
    return results


def transport_jump(mu, r: int, e: int, p: int) -> Fraction:
    """Map a jumping number in ((1-p^(-me))*lam, (1-p^(-(m+1)e))*lam] down
    one level: mu -> p^e * mu - r, with lam = r/(p^e - 1)."""
    mu = Fraction(mu)
    lam = Fraction(r, p**e - 1)
    if not 0 < mu <= lam:
        raise OutOfInterval(f"{mu} not in (0, {lam}]")
    # mu in (lam_m, lam_{m+1}] with lam_m = (1 - p^(-me)) * lam and m >= 1
    lam_1 = (1 - Fraction(1, p**e)) * lam
    if mu <= lam_1:
        raise OutOfInterval(f"{mu} not above (1 - p^-{e}) * {lam} = {lam_1}")
    return p**e * mu - r


@per_call_memo
def gap_certificate(f: Polynomial, r: int, e: int, d: int) -> GapClaim | None:
    """The interval (lam_d, lam) if it holds no jumping number, else None.

    lam = r/(p^e - 1) and lam_d = (1 - p^(-de)) * lam. The claim is checked:
    lam_d = m/p^(de) with m = r * (p^(de) - 1)/(p^e - 1), so tau(f^lam_d)
    is the single root tau_ppower(f, m, de). tau is non-increasing in the
    exponent, so it is constant on [lam_d, lam) exactly when tau(f^lam_d)
    equals the left limit tau_left(f, lam); then no jump lies in between.
    """
    p = f.ring.p
    _check_root_guard(p, max(e, d * e))
    q = p**e - 1
    lam = Fraction(r, q)
    m = r * (p ** (d * e) - 1) // q
    if not ideal_equal(tau_ppower(f, m, d * e), tau_left(f, lam)):
        return None
    return GapClaim(lo=Fraction(m, p ** (d * e)), hi=lam)


def jump_count_bound(n: int, M: int, lam) -> int:
    """Dimension count bounding the number of jumping numbers below lam for
    a degree-M polynomial in n variables: C(n + floor(M*lam), n)."""
    if n < 1 or M < 1:
        raise ValueError("need n, M >= 1")
    return comb(n + int(Fraction(M) * Fraction(lam)), n)
