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

The threshold search certifies with one rule. Walking candidates lambda =
r/(p^a(p^s - 1)) upward from a known ideal "below", tau drops at lambda
when tau(f^lambda) differs from below; the drop is a certified jump when
the left limit of tau at lambda still equals below, and only a candidate
when it does not (then tau dropped somewhere in between, at an exponent
outside the candidate families).

The jumping numbers in (0, 1) need no search. For a digit 0 <= d < p
write Phi_d(J) = (f^d * J)^[1/p]. Then tau(f^((d + mu)/p)) =
Phi_d(tau(f^mu)) for mu in [0, 1) (Blickle-Mustata-Smith, "Discreteness
and rationality of F-thresholds", Michigan Math. J. 2008), so the states
reachable from (1) under Phi_0, ..., Phi_(p-1) are exactly the distinct
tau(f^lambda) with lambda in [0, 1): a chain (1) = Q_0 > Q_1 > ... > Q_k,
one state per jump and one for (1). Building that digit automaton takes
p root levels per state, all at depth 1. The least exponent a_S at which
tau is S solves a_S = min over edges T -d-> S of (d + a_T)/p, with
a_(1) = 0: the least digit word along reversed edges, eventually
periodic, so a_S is rational. Sorted by a_S the states are the chain, and
a_(Q_j) is the j-th jump, with tau Q_j there and left limit Q_(j-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, comb, lcm

from .errors import (
    CharpError,
    OutOfInterval,
    ResourceLimit,
    UnitPolynomial,
    ZeroPolynomial,
)
from .ring import Polynomial, call_memo, per_call_memo, pow_base_p
from .groebner import Ideal, ideal_equal, ideal_subset, scale_ideal, unit_ideal
from .frobenius import _check_root_guard, _max_root_depth, mixed_root
from .hsl import _walk, hsl_upper_bound


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


def _require_nonzero(f: Polynomial):
    if not f.terms:
        raise ZeroPolynomial("zero polynomial has no test ideals")


def _require_nonunit(f: Polynomial):
    if f.is_unit():
        raise UnitPolynomial("constant polynomial is F-regular everywhere")


@per_call_memo
def cartier_chain(f: Polynomial, r: int, s: int, seed: Ideal) -> Ideal:
    """Iterate J -> (f^r * J)^[1/p^s] from seed until it stops moving.

    The step operator is inclusion-monotone, so the chain is walked by
    hsl._walk, which stops at the first repeat and asserts the direction
    (ascending or descending) on the first step.

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
    # the older of the two equal last entries: seed itself if it is fixed
    return _walk(lambda J: mixed_root(f, r, J, s), seed, bound)[-2]


def tau_ppower(f: Polynomial, m: int, e: int) -> Ideal:
    """tau(f^(m/p^e)) = (f^m)^[1/p^e], exactly.

    Every call in one memo scope roots from the same unit ideal, so after
    the first, mixed_root finds its state by identity.
    """
    _require_nonzero(f)
    memo = call_memo("unit_ideal", f.ring)
    if not memo:
        memo[None] = unit_ideal(f.ring)
    return mixed_root(f, m, memo[None], e)


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
    """Largest m with (f^m)^[1/p^e] = (1), found one base-p digit per level.

    nu(k) = ceil(fpt * p^k) - 1, so nu(k) lies in [p*nu(k-1), p*nu(k-1) +
    p - 1] (Mustata-Takagi-Watanabe, "F-thresholds and Bernstein-Sato
    polynomials", 2005): by (f^(p*m))^[1/p^k] = (f^m)^[1/p^(k-1)], the
    exponent p*nu(k-1) roots to (1) at depth k and p*nu(k-1) + p to a
    proper ideal. Each level k = 1..e bisects those p values at depth k,
    starting from nu(0) = 0: at depth 1, f^0 roots to (1) and f^p to (f),
    proper for a nonunit f. Every probe at depth k carries the digits of
    nu(k-1) above its lowest one, so most of its root levels repeat those of
    earlier probes and come from the memo.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    p = f.ring.p
    _check_root_guard(p, e)
    lo = 0
    for k in range(1, e + 1):
        lo, hi = p * lo, p * lo + p  # root(lo) unit, root(hi) proper
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tau_ppower(f, mid, k).is_unit():
                lo = mid
            else:
                hi = mid
    return NuValue(e=e, nu=lo)


def _candidates_in_interval(p, lo: Fraction, hi: Fraction, a_max, s_max):
    """All rationals r/(p^a(p^s-1)) in (lo, hi], ascending.

    Each is k/M over the common denominator M = p^a_max * lcm(p^s - 1 :
    s <= s_max), so the families are enumerated, merged and sorted as
    integers k, and only the distinct ones become Fractions.
    """
    M = p**a_max * reduce(lcm, (p**s - 1 for s in range(1, s_max + 1)), 1)
    k_lo = lo.numerator * M // lo.denominator  # k > lo*M
    k_hi = hi.numerator * M // hi.denominator  # k <= hi*M
    ks = set()
    for a in range(a_max + 1):
        for s in range(1, s_max + 1):
            step = M // (p**a * (p**s - 1))
            ks.update(range((k_lo // step + 1) * step, k_hi + 1, step))
    return [Fraction(k, M) for k in sorted(ks)]


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


def _digit_automaton(f: Polynomial):
    """The states reachable from (1) under Phi_d(J) = (f^d * J)^[1/p], and
    edges[s][d], the number of the state Phi_d(states[s]).

    A state is the ideal object that mixed_root interns in the memo scope,
    so the states are keyed by identity. The first row is tau(f^(d/p)) =
    Phi_d((1)), and its digit 0 gives the scope's own (1): Phi_0((1)) = (1).
    Every state is a tau(f^lambda) with lambda in [0, 1), so the states form
    a chain of ideals generated in degree at most deg f, and there are at
    most jump_count_bound(n, deg f, 1) + 1 of them; more is an internal
    error.
    """
    ring = f.ring
    bound = jump_count_bound(len(ring.vars), f.total_degree(), 1) + 1
    row = [tau_ppower(f, d, 1) for d in range(ring.p)]
    states, number, edges = [row[0]], {id(row[0]): 0}, []
    while len(edges) < len(states):
        if edges:
            J = states[len(edges)]
            row = [mixed_root(f, d, J, 1) for d in range(ring.p)]
        targets = []
        for K in row:
            t = number.get(id(K))
            if t is None:
                t = number[id(K)] = len(states)
                states.append(K)
                if len(states) > bound:
                    raise CharpError(
                        f"digit automaton of {f} exceeds its bound of {bound} states"
                    )
            targets.append(t)
        edges.append(targets)
    return states, edges


def _least_exponents(edges, p):
    """a[s] = min over edges t -d-> s of (d + a[t])/p, with a[0] = 0, exactly.

    Policy iteration: each state follows one incoming edge, its policy,
    and the values of a policy follow its edges back to a cycle of digits
    d_1 .. d_L, whose entry state has the value (d_1 p^(L-1) + ... +
    d_L)/(p^L - 1). A state whose value a strictly smaller edge offers
    switches to that edge, and the values strictly fall, until no edge
    offers less: then they solve the system, whose solution is unique (the
    map is a contraction by 1/p). The first policy is the edge through
    which each state was found, and digit 0 from (1) to itself for (1).
    """
    incoming = [[] for _ in edges]
    policy = [None] * len(edges)
    for t, row in enumerate(edges):
        for d, s in enumerate(row):
            incoming[s].append((d, t))
            if policy[s] is None:
                policy[s] = (d, t)
    assert policy[0] == (0, 0)
    while True:
        value = [None] * len(edges)
        for s in range(len(edges)):
            path, on_path = [], {}
            while value[s] is None and s not in on_path:
                on_path[s] = len(path)
                path.append(s)
                s = policy[s][1]
            if value[s] is None:  # path closes a cycle at s
                cycle = path[on_path[s]:]
                digits = reduce(lambda n, c: n * p + policy[c][0], cycle, 0)
                value[s] = Fraction(digits, p ** len(cycle) - 1)
            for c in reversed(path):
                if value[c] is None:
                    d, t = policy[c]
                    value[c] = (d + value[t]) / p
        changed = False
        for s, offers in enumerate(incoming):
            best = value[s]
            for d, t in offers:
                if (d + value[t]) / p < best:
                    best, policy[s], changed = (d + value[t]) / p, (d, t), True
        if not changed:
            return value


@per_call_memo
def jumps_in_unit_interval(f: Polynomial, e_res: int, s_max: int = 4):
    """Certified F-jumping numbers of f in the open interval (0, 1).

    Reads them off the digit automaton of f (see the module docstring):
    sorted by least exponent, the states are the chain Q_0 > ... > Q_k,
    and the j-th jump a_(Q_j) has tau Q_j and left limit Q_(j-1). Each
    inclusion of the chain is checked, one per jump; a failed one, or two
    states with one least exponent, is an internal error. e_res and s_max
    are ignored: the automaton needs no search depth or period bound.
    """
    _require_nonzero(f)
    _require_nonunit(f)
    states, edges = _digit_automaton(f)
    least = _least_exponents(edges, f.ring.p)
    order = sorted(range(len(states)), key=least.__getitem__)
    results = []
    for above, below in zip(order, order[1:]):
        if not least[above] < least[below] or not ideal_subset(
            states[below], states[above]
        ):
            raise CharpError(
                f"states {above} and {below} of the digit automaton of {f} "
                "are not a chain"
            )
        results.append(
            JumpCertificate(
                value=least[below],
                tau_at=states[below],
                tau_left=states[above],
                status="certified-jump",
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


def jump_count_bound(n: int, M: int, lam) -> int:
    """Dimension count bounding the number of jumping numbers below lam for
    a degree-M polynomial in n variables: C(n + floor(M*lam), n)."""
    if n < 1 or M < 1:
        raise ValueError("need n, M >= 1")
    return comb(n + int(Fraction(M) * Fraction(lam)), n)
