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

Jumping-number enumeration exploits monotonicity twice: equal ideals at two
grid exponents certify the absence of jumps over the whole span (enabling
divide-and-conquer instead of a full p^e grid walk), and each localized
drop is then pinned to an exact rational with denominator p^a(p^s - 1) and
certified by comparing tau against its left limit.
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
from .ring import Polynomial, per_call_digit_powers, pow_base_p
from .groebner import Ideal, ideal_equal, ideal_subset, scale_ideal, unit_ideal
from .frobenius import ROOT_POWER_LIMIT, mixed_root
from .hsl import hsl_upper_bound


def multiplicative_order(x: int, modulus: int) -> int:
    if modulus == 1:
        return 1
    x %= modulus
    value, order = x, 1
    while value != 1:
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


def pfrac_form(lam: Fraction, p: int) -> PFracForm:
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("exponent must be positive")
    den = lam.denominator
    a = 0
    while den % p == 0:
        den //= p
        a += 1
    s = multiplicative_order(p, den) if den > 1 else 1
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


@per_call_digit_powers
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


@per_call_digit_powers
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
    form = pfrac_form(lam, ring.p)
    q = ring.p**form.s - 1
    k, t = divmod(form.r, q)
    if left and t == 0:
        k, t = k - 1, q
    inner = unit_ideal(ring)
    if t:
        seed = inner if left else Ideal(ring, [f])
        inner = cartier_chain(f, t, form.s, seed)
    if form.a:
        return mixed_root(f, k, inner, form.a)
    return scale_ideal(pow_base_p(f, k), inner)


@per_call_digit_powers
def tau(f: Polynomial, lam) -> Ideal:
    """The test ideal of f at exponent lam >= 0."""
    return _tau_side(f, lam, left=False)


@per_call_digit_powers
def tau_left(f: Polynomial, lam) -> Ideal:
    """The common value of tau(f^mu) for mu < lam sufficiently close."""
    return _tau_side(f, lam, left=True)


@per_call_digit_powers
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


@per_call_digit_powers
def nu(f: Polynomial, e: int) -> NuValue:
    """Largest m with (f^m)^[1/p^e] = (1).

    Monotone binary search; m = p^e is always a safe upper bound because
    tau(f^1) = (f) is proper for a nonunit f.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    p = f.ring.p
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
            if Fraction(r_hi, den) > hi:
                r_hi -= 1
            for r in range(r_lo + 1, r_hi + 1):
                values.add(Fraction(r, den))
    return sorted(values)


def _capped_depth(p: int, wanted: int, limit: int) -> int:
    """wanted, or wanted - 1 where p^wanted is beyond limit.

    Giving up a level widens the localizing cell p-fold. That only adds
    candidates, and each is still certified, so the answer is unchanged.
    Two levels would multiply every candidate family by p^2 (the cusp's
    fpt then takes two minutes at p = 53), so the guard fires instead.
    """
    if p ** (wanted - 1) > limit:
        raise ResourceLimit(f"p^e = {p}^{wanted - 1} exceeds {limit}")
    return wanted if p**wanted <= limit else wanted - 1


@per_call_digit_powers
def fpt(f: Polynomial, e_max: int = 4, s_max: int = 4):
    """The F-pure threshold: smallest exponent with a proper test ideal.

    Localizes the threshold to a width p^(-e_ref) interval with e_ref =
    e_max + s_max (so each candidate family contributes O(1) candidates),
    or one less where p^(e_max + s_max) is beyond ROOT_POWER_LIMIT,
    then certifies the unique candidate lambda with tau_left = (1) and
    tau != (1). Returns a JumpCertificate on success, else an FptInterval
    (honest uncertified localization).
    """
    _require_nonzero(f)
    _require_nonunit(f)
    p = f.ring.p
    e_ref = _capped_depth(p, e_max + s_max, ROOT_POWER_LIMIT)
    located = nu(f, e_ref)
    lo = Fraction(located.nu, p**e_ref)
    hi = Fraction(located.nu + 1, p**e_ref)
    for lam in _candidates_in_interval(p, lo, hi, e_max, s_max):
        at = tau(f, lam)
        if at.is_unit():
            continue
        left = tau_left(f, lam)
        if left.is_unit():
            return JumpCertificate(
                value=lam, tau_at=at, tau_left=left, status="certified-jump"
            )
    return FptInterval(lo=lo, hi=hi)


GRID_LIMIT = 2**40


@per_call_digit_powers
def jumps_in_unit_interval(f: Polynomial, e_res: int, s_max: int = 4):
    """Certified F-jumping numbers of f in the open interval (0, 1).

    Walks the monotone grid m -> (f^m)^[1/p^e_res] by divide-and-conquer
    (equal endpoint ideals certify a jump-free span), refines each dropping
    cell to depth e_res + 2 + s_max (one less where that power of p is
    beyond GRID_LIMIT), and certifies candidates inside. Any
    drop not explained by a certified candidate is emitted with status
    "candidate" rather than suppressed.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    ring = f.ring
    p = ring.p
    if p**e_res > GRID_LIMIT:
        raise ResourceLimit(f"grid p^{e_res} exceeds {GRID_LIMIT}")
    a_max = e_res + 2
    # refinement depth for candidate localization
    deep = _capped_depth(p, a_max + s_max, GRID_LIMIT)

    cache = {}

    def grid(m, depth):
        # tau(f^(m*p/p^(e+1))) = tau(f^(m/p^e)): key on the reduced exponent
        # so that sub-cell endpoints reuse the coarse grid; mixed_root needs
        # a depth of at least 1
        while depth > 1 and m % p == 0:
            m, depth = m // p, depth - 1
        key = (m, depth)
        if key not in cache:
            cache[key] = tau_ppower(f, m, depth)
        return cache[key]

    def drop_cells(m_lo, m_hi, depth):
        # cells (m-1, m] where the grid ideal strictly drops
        if ideal_equal(grid(m_lo, depth), grid(m_hi, depth)):
            return []
        if m_hi - m_lo == 1:
            return [m_hi]
        mid = (m_lo + m_hi) // 2
        return drop_cells(m_lo, mid, depth) + drop_cells(mid, m_hi, depth)

    results = []
    top = p**e_res
    for m in drop_cells(0, top, e_res):
        scale = p ** (deep - e_res)
        sub_lo, sub_hi = (m - 1) * scale, m * scale
        for m2 in drop_cells(sub_lo, sub_hi, deep):
            left_val = grid(m2 - 1, deep)
            right_val = grid(m2, deep)
            cell_lo = Fraction(m2 - 1, p**deep)
            cell_hi = Fraction(m2, p**deep)
            if cell_lo >= 1:
                continue
            # the jump at exactly 1 is excluded from the open interval;
            # compare against the left limit at 1 instead
            if cell_hi >= 1:
                cell_hi = Fraction(1)
                right_val = tau_left(f, 1)
                if ideal_equal(left_val, right_val):
                    continue
            candidates = _candidates_in_interval(p, cell_lo, cell_hi, a_max, s_max)
            if cell_hi < 1 and cell_hi not in candidates:
                candidates.append(cell_hi)  # deep pure p-power endpoint
            current = left_val
            marker = cell_lo
            for lam in candidates:
                if lam >= 1:
                    continue
                if ideal_equal(current, right_val):
                    break  # cell fully explained
                at = tau(f, lam)
                if ideal_equal(at, current):
                    continue  # constant through lam: no jump here
                left = tau_left(f, lam)
                if ideal_equal(left, current):
                    results.append(
                        JumpCertificate(
                            value=lam,
                            tau_at=at,
                            tau_left=left,
                            status="certified-jump",
                        )
                    )
                else:
                    # a jump hides in (marker, lam) outside the family
                    results.append(
                        JumpCertificate(
                            value=lam,
                            tau_at=at,
                            tau_left=left,
                            status="candidate",
                        )
                    )
                current = at
                marker = lam
            if not ideal_equal(current, right_val):
                results.append(
                    JumpCertificate(
                        value=cell_hi,
                        tau_at=right_val,
                        tau_left=current,
                        status="candidate",
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


def gap_certificate(f: Polynomial, r: int, e: int, d: int) -> GapClaim:
    """Certified-empty interval ((1 - p^(-de)) * lam, lam), lam = r/(p^e-1),
    valid when d bounds the number of jumping numbers of f below lam."""
    p = f.ring.p
    lam = Fraction(r, p**e - 1)
    lam_d = (1 - Fraction(1, p ** (d * e))) * lam
    return GapClaim(lo=lam_d, hi=lam)


def jump_count_bound(n: int, M: int, lam) -> int:
    """Dimension count bounding the number of jumping numbers below lam for
    a degree-M polynomial in n variables: C(n + floor(M*lam), n)."""
    if n < 1 or M < 1:
        raise ValueError("need n, M >= 1")
    return comb(n + int(Fraction(M) * Fraction(lam)), n)
