"""Bracket powers J^[p^e] and Frobenius roots b^[1/p^e].

The root of b is the smallest ideal J with b contained in J^[p^e]. It is
computed one generator at a time from the decomposition h = sum_j a_j^(p^e)
u_j over the monomial basis u_j with all exponents below p^e: each term
c * x^v splits as v = p^e * quo + res, contributing c * x^quo to the
coefficient polynomial of the class res. The root is generated by all the
coefficient polynomials.

mixed_root(f, m, I, e) computes (f^m * I)^[1/p^e] without ever forming
f^m: peeling one base-p digit r of m per root level keeps every
intermediate polynomial degree at most deg(f) * (p-1) plus the largest
generator degree. Each digit power f^r comes from f.digit_power(r), so the
p possible values are built once per outermost call (see
per_call_digit_powers in ring.py) and reused by every level of every root
taken within it. It is the workhorse behind every test-ideal chain.
"""

from __future__ import annotations

from .errors import ResourceLimit, RingMismatch
from .ring import Polynomial, frob_power, per_call_digit_powers, pow_base_p
from .groebner import Ideal, canonical_ideal, scale_ideal

# guard on p^e: exponent components beyond this indicate a runaway input
ROOT_POWER_LIMIT = 2**40


def _check_root_guard(p, e):
    if e < 1:
        raise ValueError("root exponent e must be >= 1")
    if p**e > ROOT_POWER_LIMIT:
        raise ResourceLimit(f"p^e = {p}^{e} exceeds {ROOT_POWER_LIMIT}")


def bracket_power(I: Ideal, e: int) -> Ideal:
    """Ideal generated by the p^e-th powers of the generators of I."""
    _check_root_guard(I.ring.p, e)
    return Ideal(I.ring, [frob_power(g, e) for g in I.gens])


def _root_one_generator(h: Polynomial, q: int):
    classes = {}
    for v, c in h.terms:
        res = tuple(x % q for x in v)
        quo = tuple(x // q for x in v)
        classes.setdefault(res, {})[quo] = c
    ring = h.ring
    # distinct terms of h land on distinct (res, quo), so no cancellation
    # happens here; sort classes for a deterministic generator list
    return [
        ring.from_dict(classes[res])
        for res in sorted(classes, key=ring.desc_key)
    ]


def frob_root(b: Ideal, e: int) -> Ideal:
    """Smallest ideal J with b contained in J^[p^e]."""
    _check_root_guard(b.ring.p, e)
    q = b.ring.p**e
    gens = []
    for h in b.gens:
        gens.extend(_root_one_generator(h, q))
    return Ideal(b.ring, gens)


@per_call_digit_powers
def mixed_root(f: Polynomial, m: int, I: Ideal, e: int) -> Ideal:
    """(f^m * I)^[1/p^e] by digit-peeling.

    With m = q*p + r: (f^m * I)^[1/p] = f^q * (f^r * I)^[1/p], applied once
    per root level; any exponent left after e levels multiplies the result
    directly (it is at most m / p^e, tiny for every chain use).
    """
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal from different rings")
    if m < 0:
        raise ValueError("negative exponent")
    _check_root_guard(f.ring.p, e)
    p = f.ring.p
    J = I
    for _ in range(e):
        m, r = divmod(m, p)
        # compress to the canonical basis: per-generator rooting multiplies
        # generator counts, and without minimalization the growth compounds
        # exponentially across levels
        J = canonical_ideal(frob_root(scale_ideal(f.digit_power(r), J), 1))
    if m:
        J = scale_ideal(pow_base_p(f, m), J)
    return J
