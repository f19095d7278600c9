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
call (see per_call_memo in ring.py) as an automaton over the digits: one
table of states for f, each a canonical ideal J, interned by its generator
terms, with an edge for each digit r taken so far, to the state of
(f^r * J)^[1/p]. A call finds the state of its input once, by identity
when the input is a state's own ideal and by its generator terms
otherwise, then follows one edge per digit, and only a missing edge
computes a level. The chains and probes of one search keep taking the
same edges, because test-ideal chains stabilize (Blickle-Mustata-Smith,
"Discreteness and rationality of F-thresholds", Michigan Math. J. 2008):
a seed-1 round of the benchmark's scan-cli (fpt and hsl) walks 1,011
levels and computes 43 of them, and one of nondiag-groebner 398 and 80.
The jumping numbers take every edge of the automaton once (diag-jumps:
136 levels, each computed). A level is a pure function of its digit and
input, so an edge leads to the same canonical ideal, byte for byte, and
equal levels are one object: ideal_equal answers them by identity.

The digit powers f^0, ..., f^(p-1) live in the same scope in one form
only: split by residue class mod p. Each is split once, and the table
grows by one product from the highest power built so far. The classes of
one term, almost all of them, are held as exponent columns: one tuple per
variable, whose i-th entry is that variable's exponent in the i-th term,
and one tuple of their coefficients. The classes of several terms stay
term tuples sorted descending. The three kernels on these tables work a
whole column at a time, with map and zip, which loop in C:
ring._product_terms shifts the columns of the long factor by each term of
the short one, and only its merge into a dict runs per term; _split takes
the residues of a column with one map; _class_roots takes the quotients of
a column with one map.

One root level is monomial-first. Almost every residue class of f^r * J
holds a single term, whose root is a monomial: those stay exponent tuples
in a set, and only classes of several terms become Polynomials. A monomial
generator x^u of J needs neither a product nor a split: class res of f^r
lands in class (res + u) mod p of f^r * x^u, and its quotients gain the
carry (res + u) div p. With u = p*w + s this is the scaled-root identity
(x^(p*w) * h)^[1/p] = x^w * h^[1/p] (Blickle-Mustata-Smith, "Discreteness
and rationality of F-thresholds", Michigan Math. J. 2008) applied to h =
f^r * x^s. A level whose classes are all single terms is a monomial ideal,
minimalized once by divisibility with no Buchberger run. Every level
returns the canonical reduced basis, which is unique, so this route gives
the same ideals, byte for byte, as rooting the product directly.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import add, floordiv, mod

from .errors import ResourceLimit, RingMismatch
from .ring import (
    Polynomial,
    _columns,
    _product_terms,
    call_memo,
    frob_power,
    per_call_memo,
    pow_base_p,
)
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
    """Group the terms c * x^v by residue class v mod q: {res: {v: c}}.

    Distinct terms have distinct exponents, so nothing cancels.
    """
    classes = {}
    qs = repeat(q)
    for v, c in terms:
        classes.setdefault(tuple(map(mod, v, qs)), {})[v] = c
    return classes


def frob_root(b: Ideal, e: int) -> Ideal:
    """Smallest ideal J with b contained in J^[p^e]."""
    ring = b.ring
    _check_root_guard(ring.p, e)
    q = ring.p**e
    qs = repeat(q)
    gens = []
    for h in b.gens:
        classes = _classes(h.terms, q)
        # sort classes for a deterministic generator list
        gens.extend(
            ring.from_dict(
                {tuple(map(floordiv, v, qs)): c for v, c in classes[res].items()}
            )
            for res in sorted(classes, key=ring.desc_key)
        )
    return Ideal(ring, gens)


def _split(ring, exponents, coeffs):
    """The terms coeffs[i] * x^exponents[i] of a polynomial, given as two
    tuples, split by residue class mod p.

    Returns (singles, multis): the terms alone in their class, as exponent
    columns with their coefficients (see ring._columns), and each class of
    several terms as a tuple sorted descending. Both keep the order in
    which their classes first occur. The residues come a column at a time;
    almost every class holds one term, and when every class does, the
    columns of the terms are the singles as they stand.
    """
    columns = _columns(exponents, ring.nvars)
    ps = repeat(ring.p)
    residues = tuple(zip(*[map(mod, col, ps) for col in columns]))
    n = len(residues)
    last = dict(zip(residues, count()))
    if len(last) == n:
        return (columns, coeffs), []
    # a term is alone in its class iff it is both the first and the last
    first = dict(zip(reversed(residues), range(n - 1, -1, -1)))
    alone = set(first.values()).intersection(last.values())
    classes = {}
    for i in sorted(set(range(n)).difference(alone)):
        classes.setdefault(residues[i], []).append((exponents[i], coeffs[i]))
    key = ring.desc_key
    multis = [tuple(sorted(cls, key=lambda t: key(t[0]))) for cls in classes.values()]
    alone = sorted(alone)
    singles = (
        tuple(tuple(map(col.__getitem__, alone)) for col in columns),
        tuple(map(coeffs.__getitem__, alone)),
    )
    return singles, multis


def _split_times(ring, split, terms):
    """The split of h * g, from the split of h and the terms of g."""
    (columns, coeffs), multis = split
    if multis:
        exponents, more = zip(*chain(*multis))
        columns = tuple(map(add, columns, _columns(exponents, ring.nvars)))
        coeffs += more
    out = _product_terms(columns, coeffs, terms)
    exponents = tuple(out)
    coeffs = tuple(map(mod, out.values(), repeat(ring.p)))
    if 0 in coeffs:
        # drop the coefficients that cancel mod p
        exponents = tuple(compress(exponents, coeffs))
        coeffs = tuple(filter(None, coeffs))
    return _split(ring, exponents, coeffs)


def _digit_split(f: Polynomial, r: int):
    """The split of f^r for a base-p digit 0 <= r < p, memoized in the
    call's scope.

    The table maps k to the split of f^k for k = 0, 1, ... and grows one
    product at a time from the highest power built so far, f^k = f^(k-1) * f.
    """
    ring = f.ring
    if not 0 <= r < ring.p:
        raise ValueError(f"digit {r} is not in [0, {ring.p})")
    table = call_memo("digit_split", f)
    for k in range(len(table), r + 1):
        table[k] = (
            _split_times(ring, table[k - 1], f.terms)
            if k
            else ((((0,),) * ring.nvars, (1,)), [])
        )
    return table[r]


def _class_roots(split, u, ps):
    """The roots of the classes of h * x^u, from the split of h.

    Multiplying by x^u moves class res of h to class (res + u) mod p, so
    h * x^u has the classes of h, relabelled: each term c * x^v of a class
    roots to c * x^((v + u) div p), the quotient of v plus the carry (res +
    u) div p. Returns an iterator over the exponents of the single-term
    roots, computed a column at a time, and the term tuples of the others,
    still sorted descending.
    """
    (columns, _), multis = split
    monos = zip(
        *[
            map(floordiv, map(add, col, repeat(k)) if k else col, ps)
            for col, k in zip(columns, u)
        ]
    )
    polys = [
        tuple((tuple(map(floordiv, map(add, v, u), ps)), c) for v, c in cls)
        for cls in multis
    ]
    return monos, polys


def _root_level(f: Polynomial, r: int, J: Ideal) -> Ideal:
    """(f^r * J)^[1/p] for a base-p digit r, canonical.

    A class of one term roots to a monomial, kept as its exponent in a set;
    only classes of several terms become Polynomials. A monomial generator
    x^u of J needs neither a product nor a split: the classes of f^r * x^u
    are those of f^r, relabelled (see _class_roots). The generator f, the
    seed of every tau chain, gives the next digit power f^(r+1), split
    already or once, where the product f^r * f would build and split it
    again: fpt of x^4+x*y^3+y^2*z^2+z^5 at p = 47 takes 0.71-0.82 s CPU this
    way and 0.98-1.14 s by the product (three alternating in-process runs
    each, time.process_time, 2-vCPU x86-64 container, Python 3.11). Any
    other generator of several terms is multiplied in split form and its
    product split. When every class is a single term the level is a monomial
    ideal and skips Buchberger.
    """
    ring = J.ring
    ps = repeat(ring.p)
    zero = (0,) * ring.nvars
    fr = _digit_split(f, r)
    monos, polys = set(), []
    for g in J.gens:
        if len(g.terms) == 1:
            single, multi = _class_roots(fr, g.terms[0][0], ps)
        elif g.terms == f.terms and r + 1 < ring.p:
            single, multi = _class_roots(_digit_split(f, r + 1), zero, ps)
        else:
            single, multi = _class_roots(_split_times(ring, fr, g.terms), zero, ps)
        monos.update(single)
        polys.extend(Polynomial(ring, terms) for terms in multi)
    if not polys:
        return monomial_ideal(ring, monos)
    return canonical_ideal(
        Ideal(ring, list(monomial_ideal(ring, monos).gens) + polys)
    )


def _state(table, J):
    """The number of the state whose ideal has J's generator terms, with J
    as a new state's ideal if none has them yet.

    The state list holds each state's ideal, which keeps its id from being
    reused while the scope lasts, so an id in the index is always that of a
    state's own ideal.
    """
    states, index = table["states"], table["index"]
    terms = tuple(g.terms for g in J.gens)
    s = index.get(terms)
    if s is None:
        s = index[terms] = index[id(J)] = len(states)
        states.append((J, {}))
    return s


@per_call_memo
def mixed_root(f: Polynomial, m: int, I: Ideal, e: int) -> Ideal:
    """(f^m * I)^[1/p^e] by digit-peeling.

    With m = q*p + r: (f^m * I)^[1/p] = f^q * (f^r * I)^[1/p], applied once
    per root level; any exponent left after e levels multiplies the result
    directly (it is at most m / p^e, tiny for every chain use). e = 0 is
    the identity root: f^m * I, and I itself when m = 0.

    The levels walk f's automaton in the memo scope: the state of I,
    found by identity when I is a state's own ideal and by its generator
    terms otherwise, then one edge per digit r, lowest first. An edge holds
    the number of the state it leads to, not the state, so the fixed points
    of a chain leave no reference cycle.
    """
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal from different rings")
    if m < 0:
        raise ValueError("negative exponent")
    _check_root_guard(f.ring.p, e)
    if not e:
        return scale_ideal(pow_base_p(f, m), I) if m else I
    p = f.ring.p
    table = call_memo("mixed_root", f)
    if not table:
        # states: (ideal, {digit: number of the next state}); index: id or
        # generator terms of a state's ideal -> its number. A dict of edges,
        # not a list of p, stays small for p up to the root guard's 2^40
        table.update(states=[], index={})
    states = table["states"]
    s = table["index"].get(id(I))
    if s is None:
        s = _state(table, I)
    for _ in range(e):
        m, r = divmod(m, p)
        J, edges = states[s]
        t = edges.get(r)
        if t is None:
            # each level is canonical: per-generator rooting multiplies
            # generator counts, and without minimalization the growth
            # compounds exponentially across levels
            root = _root_level(f, r, J)
            t = edges[r] = _state(table, root)
            old = states[t][0]
            if old._canon is None:
                # an input with the root's terms: they are its reduced basis
                old._canon = root._canon
        s = t
    J = states[s][0]
    if m:
        J = scale_ideal(pow_base_p(f, m), J)
    return J
