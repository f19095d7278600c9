"""Bracket powers and Frobenius root ideals."""

import random
import time
from collections import Counter
from itertools import repeat

import pytest
from hypothesis import example, given, settings, strategies as st

import charp.frobenius as frobenius
import charp.testideal as testideal
from charp.groebner import canonical_ideal
from charp.ring import per_call_memo
from charp import (
    Ideal,
    ResourceLimit,
    bracket_power,
    cartier_chain,
    frob_root,
    ideal_equal,
    ideal_subset,
    jumps_in_unit_interval,
    make_ring,
    mixed_root,
    parse_poly,
    poly_pow,
    pow_base_p,
    scale_ideal,
    unit_ideal,
)

R5 = make_ring(5, ["x", "y"])
R7 = make_ring(7, ["x", "y", "z"])


def ideal(ring, *texts):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


def test_bracket_power_examples():
    assert ideal_equal(bracket_power(ideal(R5, "x", "y"), 1), ideal(R5, "x^5", "y^5"))
    assert bracket_power(unit_ideal(R5), 3).is_unit()
    R2 = make_ring(2, ["x", "y"])
    B = bracket_power(Ideal(R2, [parse_poly(R2, "x+y")]), 1)
    assert ideal_equal(B, Ideal(R2, [parse_poly(R2, "x^2+y^2")]))


def test_frob_root_monomial_rule():
    # x^(2p) -> x^2; x*y^p -> y (class x)
    I = ideal(R5, "x^10", "x*y^5")
    assert ideal_equal(frob_root(I, 1), ideal(R5, "x^2", "y"))


def test_frob_root_quintic_sixth_power():
    f = parse_poly(R7, "x^5+y^5+z^5")
    got = frob_root(Ideal(R7, [poly_pow(f, 6)]), 1)
    assert ideal_equal(got, ideal(R7, "x^2", "y^2", "z^2", "x*y*z"))


def test_frob_root_pure_power():
    for e in (1, 2, 3):
        I = ideal(R5, f"x^{5**e}")
        assert ideal_equal(frob_root(I, e), ideal(R5, "x"))


def test_frob_root_zero_and_unit():
    assert frob_root(Ideal(R5, []), 2).is_zero()
    assert frob_root(unit_ideal(R5), 2).is_unit()


def test_mixed_root_examples():
    x, y = parse_poly(R5, "x"), parse_poly(R5, "y")
    got = mixed_root(x, 6, Ideal(R5, [y]), 1)
    assert ideal_equal(got, ideal(R5, "x"))
    f = parse_poly(R5, "x^2+y")
    I = ideal(R5, "x*y", "y^2+1")
    assert ideal_equal(mixed_root(f, 0, I, 2), frob_root(I, 2))


def test_root_power_guard():
    with pytest.raises(ResourceLimit):
        frob_root(ideal(R5, "x"), 60)
    with pytest.raises(ResourceLimit):
        mixed_root(parse_poly(R5, "x"), 3, unit_ideal(R5), 60)


def test_root_power_guard_does_not_form_the_power():
    # 3^(10^7) alone takes seconds to build; the guard compares depths
    R3 = make_ring(3, ["x"])
    start = time.process_time()
    with pytest.raises(ResourceLimit):
        mixed_root(parse_poly(R3, "x"), 0, unit_ideal(R3), 10**7)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("p", [2, 3, 5, 47, 1021, 1048573, 1099511627791])
def test_root_guard_allows_exactly_the_depths_within_the_limit(p):
    # the constant-time guard agrees with the depth found by multiplying up
    top = frobenius._max_root_depth(p)
    assert p**top <= frobenius.ROOT_POWER_LIMIT < p ** (top + 1)
    frobenius._check_root_guard(p, top)
    for e in (top + 1, top + 2, 10**9):
        with pytest.raises(ResourceLimit):
            frobenius._check_root_guard(p, e)


def test_depth_zero_is_the_identity_root():
    f = parse_poly(R5, "x^2+y")
    I = ideal(R5, "x*y", "y^2+1")
    for m in (0, 1, 7):
        assert mixed_root(f, m, I, 0) == scale_ideal(pow_base_p(f, m), I)
    assert frob_root(I, 0) == I
    assert bracket_power(I, 0) == I
    for root in (lambda: mixed_root(f, 1, I, -1), lambda: frob_root(I, -1),
                 lambda: bracket_power(I, -1)):
        with pytest.raises(ValueError):
            root()


def random_poly(rng, ring, max_deg=4, max_terms=3):
    d = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in ring.vars)
        d[e] = rng.randrange(1, ring.p)
    return ring.from_dict(d)


def random_ideal(rng, ring):
    return Ideal(ring, [random_poly(rng, ring) for _ in range(rng.randrange(1, 3))])


def root_level_inputs(rng, ring):
    """One J of each shape a root level meets: random, monomial, mixed,
    zero, unit, and monomials that share u mod p (one root, many shifts)."""
    p = ring.p
    monos = [ring.monomial([rng.randrange(2 * p) for _ in ring.vars])
             for _ in range(3)]
    s = [rng.randrange(p) for _ in ring.vars]
    shared = [ring.monomial([x + p * rng.randrange(3) for x in s])
              for _ in range(3)]
    return [
        random_ideal(rng, ring),
        Ideal(ring, monos),
        Ideal(ring, monos[:2] + [random_poly(rng, ring)]),
        Ideal(ring, []),
        unit_ideal(ring),
        Ideal(ring, shared),
    ]


@pytest.mark.parametrize("p,nvars,seed,iters,m_hi", [
    (2, 2, 0, 20, 12), (3, 2, 1, 20, 12), (5, 3, 2, 12, 8), (7, 2, 3, 10, 6),
])
def test_mixed_root_matches_direct_root(p, nvars, seed, iters, m_hi):
    # the same reduced basis, byte for byte, as rooting f^m * J directly;
    # below m = p^e no factor f^k is left over, and the root comes back
    # generated by that basis
    rng = random.Random(seed)
    names = ["x", "y", "z"][:nvars]
    for order in ("grevlex", "lex"):
        ring = make_ring(p, names, order)
        for i in range(iters):
            f = random_poly(rng, ring)
            if not f:
                continue
            inputs = root_level_inputs(rng, ring)
            I = inputs[i % len(inputs)]
            m, e = rng.randrange(0, m_hi), rng.randrange(1, 3)
            direct = canonical_ideal(frob_root(scale_ideal(poly_pow(f, m), I), e))
            got = mixed_root(f, m, I, e)
            assert got.canon() == direct.gens
            if m < p**e:
                assert got.gens == direct.gens


def levels_one_by_one(f, m, I, e):
    """mixed_root's levels applied through _root_level, with no memo."""
    J = I
    for _ in range(e):
        m, r = divmod(m, f.ring.p)
        J = frobenius._root_level(f, r, J)
    return scale_ideal(poly_pow(f, m), J) if m else J


@per_call_memo
def roots_in_one_call(f, cases):
    # one outermost call, so every root shares the level memo
    return [mixed_root(f, m, I, e) for m, I, e in cases]


@pytest.mark.parametrize("p,seed", [(2, 20), (3, 21), (5, 22), (7, 23)])
def test_memoized_levels_match_levels_one_by_one(p, seed):
    # each case twice and the roots of the first results again, so that
    # most levels come from the memo
    rng = random.Random(seed)
    ring = make_ring(p, ["x", "y", "z"])
    for _ in range(4):
        f = random_poly(rng, ring)
        if not f:
            continue
        cases = [(rng.randrange(0, p**2), I, rng.randrange(1, 3))
                 for I in root_level_inputs(rng, ring)]
        first = roots_in_one_call(f, cases)
        cases += cases + [(m, J, e) for (m, _, e), J in zip(cases, first)]
        got = roots_in_one_call(f, cases)
        for (m, I, e), root in zip(cases, got):
            assert root.gens == levels_one_by_one(f, m, I, e).gens


def test_chain_takes_each_level_once(monkeypatch):
    # the chain asks for some levels more than once; each distinct
    # (f^r, J) reaches _root_level once
    R = make_ring(7, ["x", "y", "z"])
    f = parse_poly(R, "x^5+y^5+z^5")
    levels, real_level = Counter(), frobenius._root_level
    asked, real_root = [], testideal.mixed_root

    def root_level(g, r, J):
        levels[g.terms, r, tuple(h.terms for h in J.gens)] += 1
        return real_level(g, r, J)

    def mixed_root(g, m, I, e):
        asked.append(e)
        return real_root(g, m, I, e)

    monkeypatch.setattr(frobenius, "_root_level", root_level)
    monkeypatch.setattr(testideal, "mixed_root", mixed_root)
    cartier_chain(f, 1, 3, Ideal(R, [f]))
    assert set(levels.values()) == {1}
    assert sum(asked) > len(levels)


def split_terms(ring, terms):
    # _split takes the exponents and the coefficients as two sequences
    return frobenius._split(
        ring, tuple(v for v, _ in terms), tuple(c for _, c in terms)
    )


def class_roots(split, u, p):
    monos, polys = frobenius._class_roots(split, u, repeat(p))
    return sorted(monos), sorted(polys)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relabelled_split_matches_direct_split(data):
    # class res of f^r lands in class (res + s) mod p of f^r * x^s, and
    # its quotients gain the carry (res + s) div p
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    ring = make_ring(p, ["x", "y", "z"])
    f = ring.from_dict(data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3), st.integers(1, p - 1),
        min_size=1, max_size=4,
    )))
    r = data.draw(st.integers(0, p - 1))
    s = data.draw(st.tuples(*[st.integers(0, p - 1)] * 3))
    fr = poly_pow(f, r)
    shifted = fr.mul_term(s, 1)
    relabelled = {
        tuple((a + b) % p for a, b in zip(res, s)): {
            tuple(x // p + (a + b) // p for x, a, b in zip(v, res, s)): c
            for v, c in cls.items()
        }
        for res, cls in frobenius._classes(fr.terms, p).items()
    }
    direct = {
        res: {tuple(x // p for x in v): c for v, c in cls.items()}
        for res, cls in frobenius._classes(shifted.terms, p).items()
    }
    assert relabelled == direct
    # the roots a level takes from the split of f^r are those of the split
    # of f^r * x^s, and the scope's digit power is the split of f^r
    zero = (0, 0, 0)
    split = split_terms(ring, fr.terms)
    assert class_roots(split, s, p) == class_roots(
        split_terms(ring, shifted.terms), zero, p
    )
    assert class_roots(frobenius._digit_split(f, r), zero, p) == class_roots(
        split, zero, p
    )


def split_by_classes(ring, terms):
    # the split as a dict per residue class gives it
    singles, multis = [], []
    for cls in frobenius._classes(terms, ring.p).values():
        if len(cls) == 1:
            singles.extend(cls.items())
        else:
            multis.append(tuple((v, cls[v]) for v in sorted(cls, key=ring.desc_key)))
    return singles, multis


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    order=st.sampled_from(["grevlex", "lex"]),
    terms=st.dictionaries(
        st.tuples(*[st.integers(0, 15)] * 2), st.integers(1, 6), max_size=12
    ),
)
@example(p=3, order="grevlex", terms={(0, 1): 1, (3, 1): 2, (1, 0): 1, (6, 4): 1})
@example(p=2, order="lex", terms={(0, 1): 1, (2, 3): 1, (1, 0): 1, (3, 2): 1})
@example(p=5, order="grevlex", terms={(0, 1): 1, (1, 0): 2, (7, 9): 3})
@example(p=7, order="lex", terms={})
def test_split_matches_split_by_classes(p, order, terms):
    # singles and multis come out as the per-class dicts give them, in the
    # order in which their classes first occur, whatever the term order;
    # the singles are columns, one tuple per variable, also when there are
    # none (the second example) and when every class is a single (the third)
    ring = make_ring(p, ["x", "y"], order)
    terms = [(v, c % p or 1) for v, c in terms.items()]
    (columns, coeffs), multis = split_terms(ring, terms)
    assert len(columns) == 2
    assert all(type(col) is tuple and len(col) == len(coeffs) for col in columns)
    singles = list(zip(zip(*columns), coeffs))
    assert (singles, multis) == split_by_classes(ring, terms)
    assert sorted(singles + [t for cls in multis for t in cls]) == sorted(terms)
    for cls in multis:
        assert len(cls) > 1
        assert len({tuple(x % p for x in v) for v, _ in cls}) == 1
        keys = [ring.sort_key(v) for v, _ in cls]
        assert keys == sorted(keys, reverse=True)


def test_jumps_split_each_digit_power_once(monkeypatch):
    # a level roots f^r * x^u from the classes of f^r, so in one outermost
    # call the splits are one per digit power f^1 .. f^(p-1) (f^0 = 1 needs
    # none) and at most one per product of f^r with a generator of several
    # terms; splitting per shift would take one per distinct u mod p too
    R = make_ring(7, ["x", "y", "z"])
    f = parse_poly(R, "x^5+y^5+z^5")
    splits, products, shifts = Counter(), [], []
    real_split, real_level = frobenius._split, frobenius._root_level

    def split(ring, exponents, coeffs):
        splits[frozenset(zip(exponents, coeffs))] += 1
        return real_split(ring, exponents, coeffs)

    def root_level(*args):
        J = args[-1]
        products.extend(g for g in J.gens if len(g.terms) > 1)
        shifts.extend({tuple(x % 7 for x in g.terms[0][0])
                       for g in J.gens if len(g.terms) == 1})
        return real_level(*args)

    monkeypatch.setattr(frobenius, "_split", split)
    monkeypatch.setattr(frobenius, "_root_level", root_level)
    certs = jumps_in_unit_interval(f, 3)
    assert [str(c.value) for c in certs] == ["4/7", "5/7", "6/7", "48/49"]
    assert set(splits.values()) == {1}
    assert sum(splits.values()) <= 6 + len(products)
    assert len(shifts) > 6 + len(products)


@pytest.mark.parametrize("p,seed", [(2, 10), (5, 11), (7, 12)])
def test_root_identities(p, seed):
    rng = random.Random(seed)
    ring = make_ring(p, ["x", "y"])
    for _ in range(15):
        b = random_ideal(rng, ring)
        e = rng.randrange(1, 3)
        root = frob_root(b, e)
        # containment: b inside the bracket power of its root
        assert ideal_subset(b, bracket_power(root, e))
        # composition of single-level roots
        assert ideal_equal(frob_root(frob_root(b, 1), e), frob_root(b, e + 1))
        # scaled-root identity
        g = random_poly(rng, ring)
        if g:
            lhs = frob_root(scale_ideal(poly_pow(g, p**e), b), e)
            assert ideal_equal(lhs, scale_ideal(g, root))


def test_root_monotone_and_minimal():
    rng = random.Random(99)
    ring = make_ring(3, ["x", "y"])
    for _ in range(15):
        b = random_ideal(rng, ring)
        c = Ideal(ring, list(b.gens) + [random_poly(rng, ring)])
        e = rng.randrange(1, 3)
        assert ideal_subset(frob_root(b, e), frob_root(c, e))
        # minimality spot check against random monomial ideals J with
        # b inside J^[p^e]
        root = frob_root(b, e)
        for _ in range(5):
            exps = [tuple(rng.randrange(3) for _ in ring.vars) for _ in range(3)]
            J = Ideal(ring, [ring.monomial(x) for x in exps])
            if ideal_subset(b, bracket_power(J, e)):
                assert ideal_subset(root, J)
