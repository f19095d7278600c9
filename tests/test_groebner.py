"""Reduced Groebner bases and ideal decision procedures."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import charp.groebner as groebner_module
from charp import (
    Ideal,
    RingMismatch,
    buchberger,
    fpt,
    ideal_contains,
    ideal_equal,
    ideal_product,
    ideal_subset,
    make_ring,
    normal_form,
    parse_poly,
    scale_ideal,
    unit_ideal,
)

R5 = make_ring(5, ["x", "y"])
R7 = make_ring(7, ["x", "y", "z"])


def ideal(ring, *texts):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


@pytest.mark.parametrize("f,basis,expected", [
    ("x^2+x*y", ["x"], "0"),
    ("y^2+1", ["x"], "y^2 + 1"),
    ("x^2*y", ["x^2+y"], "4*y^2"),
])
def test_normal_form(f, basis, expected):
    g = normal_form(parse_poly(R5, f), [parse_poly(R5, b) for b in basis])
    assert str(g) == expected


def test_normal_form_ring_mismatch():
    with pytest.raises(RingMismatch):
        normal_form(parse_poly(R5, "x"), [parse_poly(R7, "x")])


@pytest.mark.parametrize("gens,expected", [
    (("x", "x+y"), ["x", "y"]),
    (("x^2+y", "x*y"), ["x^2 + y", "x*y", "y^2"]),
    ((), []),
    (("0",), []),
    (("3",), ["1"]),
    (("x^3", "x",), ["x"]),
])
def test_buchberger(gens, expected):
    I = ideal(R5, *gens)
    assert [str(g) for g in buchberger(I)] == expected


def test_buchberger_idempotent():
    I = ideal(R5, "x^2+y", "x*y")
    again = Ideal(R5, buchberger(I))
    assert buchberger(again) == buchberger(I)


def test_ideal_contains_examples():
    I = ideal(R7, "x^2", "y^2", "z^2", "x*y*z")
    assert not ideal_contains(I, parse_poly(R7, "x*y"))
    J = ideal(R5, "x", "y")
    assert ideal_contains(J, parse_poly(R5, "x+y"))
    assert ideal_contains(unit_ideal(R5), parse_poly(R5, "x^4+2"))
    assert ideal_contains(J, parse_poly(R5, "0"))
    assert not ideal_contains(Ideal(R5, []), parse_poly(R5, "x"))


def test_ideal_equal_examples():
    assert ideal_equal(ideal(R5, "x", "y"), ideal(R5, "x+y", "y"))
    sq = ideal_product(ideal(R7, "x", "y", "z"), ideal(R7, "x", "y", "z"))
    assert not ideal_equal(ideal(R7, "x^2", "y^2", "z^2", "x*y*z"), sq)


def test_ideal_product_expands():
    I = ideal(R5, "x", "y")
    assert [str(g) for g in buchberger(ideal_product(I, I))] == ["x^2", "x*y", "y^2"]


def test_scale_ideal():
    K = scale_ideal(parse_poly(R5, "x"), ideal(R5, "x", "y"))
    assert ideal_equal(K, ideal(R5, "x^2", "x*y"))


def test_unit_and_zero_printing():
    assert str(unit_ideal(R5)) == "(1)"
    assert str(Ideal(R5, [])) == "(0)"
    assert Ideal(R5, []).is_zero()
    assert unit_ideal(R5).is_unit()
    assert ideal(R5, "x+1", "x").is_unit()


def test_str_prints_reduced_basis_whatever_is_cached():
    J = ideal_product(ideal(R7, "x+y"), ideal(R7, "x", "x+y"))
    before = str(J)
    hash(J)  # computes and caches the reduced basis
    assert str(J) == before == "(x^2 + 6*y^2, x*y + y^2)"


def test_generator_permutations_same_basis():
    texts = ("x^2+y", "x*y", "y^3+x")
    polys = [parse_poly(R5, t) for t in texts]
    bases = {tuple(str(g) for g in buchberger(Ideal(R5, perm)))
             for perm in itertools.permutations(polys)}
    assert len(bases) == 1


def test_equal_ideals_share_hash():
    I, J = ideal(R5, "x", "y"), ideal(R5, "x+y", "y")
    assert I == J and hash(I) == hash(J)
    assert len({I, J}) == 1


def test_subset():
    assert ideal_subset(ideal(R5, "x^2"), ideal(R5, "x"))
    assert not ideal_subset(ideal(R5, "x"), ideal(R5, "x^2"))


def test_membership_of_random_combinations():
    rng = random.Random(7)
    gens = [parse_poly(R5, t) for t in ("x^2+y", "x*y+3", "y^3")]
    I = Ideal(R5, gens)
    for _ in range(25):
        coeffs = [R5.from_dict({(rng.randrange(3), rng.randrange(3)):
                                rng.randrange(1, 5)}) for _ in gens]
        f = sum((c * g for c, g in zip(coeffs, gens)), R5.zero())
        assert ideal_contains(I, f)


@st.composite
def monomial_ideals(draw):
    nvars = draw(st.integers(1, 3))
    ring = make_ring(draw(st.sampled_from([2, 5])), ["x", "y", "z"][:nvars])
    exps = draw(st.lists(st.tuples(*[st.integers(0, 5)] * nvars),
                         min_size=1, max_size=5))
    return Ideal(ring, [ring.monomial(e) for e in exps])


@settings(max_examples=100, deadline=None)
@given(monomial_ideals(), monomial_ideals())
def test_monomial_fast_path_matches_buchberger(I, J):
    if I.ring != J.ring:
        return
    # force the general path on copies by adding a redundant binomial 0-sum
    direct = ideal_equal(I, J)
    via_canon = buchberger(I) == buchberger(J)
    assert direct == via_canon


@settings(max_examples=60, deadline=None)
@given(monomial_ideals())
def test_contains_every_generator(I):
    for g in I.gens:
        assert ideal_contains(I, g)
    assert all(ideal_contains(I, g) for g in buchberger(I))


# --- textbook Buchberger: every pair reduced, no criteria -------------------
# An oracle that shares nothing with charp.groebner but the polynomial type.


def _textbook_divide(f, divisors):
    ring, p = f.ring, f.ring.p
    work, rem = dict(f.terms), {}
    while work:
        e = max(work, key=ring.sort_key)
        c = work.pop(e)
        for g in divisors:
            lm, lc = g.terms[0]
            if all(a >= b for a, b in zip(e, lm)):
                q = c * pow(lc, -1, p) % p
                shift = tuple(a - b for a, b in zip(e, lm))
                for v, d in g.terms[1:]:
                    w = tuple(a + b for a, b in zip(shift, v))
                    work[w] = (work.get(w, 0) - q * d) % p
                    if not work[w]:
                        del work[w]
                break
        else:
            rem[e] = c
    return ring.from_dict(rem)


def _textbook_spoly(f, g):
    p = f.ring.p
    (lf, cf), (lg, cg) = f.terms[0], g.terms[0]
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = f.ring.monomial([a - b for a, b in zip(lcm, lf)], pow(cf, -1, p))
    sg = f.ring.monomial([a - b for a, b in zip(lcm, lg)], pow(cg, -1, p))
    return sf * f - sg * g


def textbook_reduced_basis(ring, gens):
    basis = [g for g in gens if g.terms]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]

    def lcm_degree(pair):
        lf, lg = basis[pair[0]].terms[0][0], basis[pair[1]].terms[0][0]
        return sum(max(a, b) for a, b in zip(lf, lg))

    while pairs:
        # lowest lcm degree first: the same pairs, in a cheaper order
        i, j = pairs.pop(pairs.index(min(pairs, key=lcm_degree)))
        h = _textbook_divide(_textbook_spoly(basis[i], basis[j]), basis)
        if h.terms:
            basis.append(h)
            pairs.extend((len(basis) - 1, m) for m in range(len(basis) - 1))
    basis = sorted((g.monic() for g in basis),
                   key=lambda g: ring.sort_key(g.terms[0][0]))
    minimal = []
    for g in basis:
        lm = g.terms[0][0]
        if not any(all(a >= b for a, b in zip(lm, h.terms[0][0])) for h in minimal):
            minimal.append(g)
    reduced = [
        _textbook_divide(g, minimal[:k] + minimal[k + 1:]).monic()
        for k, g in enumerate(minimal)
    ]
    reduced.sort(key=lambda g: ring.sort_key(g.terms[0][0]), reverse=True)
    return reduced


@st.composite
def small_ideals(draw):
    nvars = draw(st.integers(2, 3))
    ring = make_ring(draw(st.sampled_from([5, 7])), ["x", "y", "z"][:nvars])
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                     st.integers(1, ring.p - 1))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    return Ideal(ring, [ring.from_dict(dict(terms)) for terms in gens])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contains_matches_normal_form(data):
    # a monomial ideal decides membership by divisibility of each term,
    # any other by division; both agree with the remainder by the reduced
    # basis, for members built from the generators and for random f
    I = data.draw(st.one_of(monomial_ideals(), small_ideals()))
    ring, nvars = I.ring, len(I.ring.vars)
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), st.integers(1, ring.p - 1))
    if data.draw(st.booleans()):
        f = ring.from_dict({})
        for g in I.gens:
            f = f + g.mul_term(*data.draw(term))
        assert not normal_form(f, buchberger(I)).terms
    else:
        f = ring.from_dict(dict(data.draw(st.lists(term, max_size=4))))
    assert ideal_contains(I, f) == (not normal_form(f, buchberger(I)).terms)


@settings(max_examples=80, deadline=None)
@given(small_ideals())
def test_buchberger_matches_textbook_oracle(I):
    basis = buchberger(I)
    assert basis == textbook_reduced_basis(I.ring, I.gens)
    for f, g in itertools.combinations(basis, 2):
        assert not normal_form(_textbook_spoly(f, g), basis).terms
    # the raw basis is minimal: no lead divides another
    raw = groebner_module._buchberger_raw(I.ring, I.gens)
    leads = [g.lead_monomial() for g in raw]
    for a, b in itertools.permutations(leads, 2):
        assert not groebner_module._divides(a, b)


def _count_spolys(monkeypatch):
    """A list that grows by one entry per S-polynomial formed."""
    spolys, real_spoly = [], groebner_module._spoly

    def counting_spoly(f, g):
        spolys.append(real_spoly(f, g))
        return spolys[-1]

    monkeypatch.setattr(groebner_module, "_spoly", counting_spoly)
    return spolys


def test_pair_criteria_skip_redundant_pairs(monkeypatch):
    # x*y+z, x*z+y, y*z+x gain three elements; the criteria leave 8 of the
    # 15 pairs of the six to be reduced. Inputs pass through normal_form
    # too, so only the remainders of S-polynomials count as gained.
    gens = [parse_poly(R7, t) for t in ("x*y+z", "x*z+y", "y*z+x")]
    spolys, added = _count_spolys(monkeypatch), []
    real_normal_form = groebner_module.normal_form

    def counting_normal_form(f, basis):
        h = real_normal_form(f, basis)
        if h.terms and any(f is s for s in spolys):
            added.append(h)
        return h

    monkeypatch.setattr(groebner_module, "normal_form", counting_normal_form)
    raw = groebner_module._buchberger_raw(R7, gens)
    n = len(gens) + len(added)
    assert n == 6
    assert 0 < len(spolys) < n * (n - 1) // 2
    monkeypatch.undo()
    assert buchberger(Ideal(R7, raw)) == textbook_reduced_basis(R7, gens)


def test_inputs_join_reduced_by_the_active_basis(monkeypatch):
    # every term of the three binomials lies in (x^3, y^3, z^3), so each
    # reduces to zero as it joins and no pair is ever made
    spolys = _count_spolys(monkeypatch)
    gens = [parse_poly(R7, t) for t in (
        "x^3", "y^3", "z^3", "x^3*y+2*y^3*z", "x^4+y*z^3", "x*y^3*z+3*z^4")]
    raw = groebner_module._buchberger_raw(R7, gens)
    assert [str(g) for g in raw] == ["x^3", "y^3", "z^3"]
    assert spolys == []


def test_fpt_of_cubic_forms_no_spolynomial(monkeypatch):
    # its root ideals are generated by monomials and by binomials whose
    # terms those monomials divide: each binomial reduces to zero as it
    # joins, so no S-polynomial is formed
    spolys = _count_spolys(monkeypatch)
    R = make_ring(23, ["x", "y", "z"])
    assert fpt(parse_poly(R, "x^3+y^3+z^3+x*y*z")).value == Fraction(22, 23)
    assert spolys == []


@pytest.mark.parametrize("a,b,expected", [
    ((1, 2, 0), (1, 2, 0), True),   # equal
    ((1, 0, 2), (3, 1, 2), True),   # proper divisor
    ((0, 0, 0), (0, 4, 1), True),   # 1 divides everything
    ((2, 1, 0), (1, 5, 5), False),  # one exponent too large
    ((3, 1, 2), (1, 0, 2), False),  # the reverse direction
])
def test_divides(a, b, expected):
    assert groebner_module._divides(a, b) is expected


@st.composite
def exponent_sets(draw):
    nvars = draw(st.integers(1, 4))
    ring = make_ring(2, ["x", "y", "z", "w"][:nvars],
                     draw(st.sampled_from(["grevlex", "lex"])))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=40))
    return ring, exps


@settings(max_examples=200, deadline=None)
@given(exponent_sets())
def test_indexed_minimalize_matches_definition(data):
    # e is a minimal generator iff no other exponent of the set divides it
    ring, exps = data
    uniq = set(exps)
    naive = [e for e in uniq
             if not any(k != e and groebner_module._divides(k, e) for k in uniq)]
    naive.sort(key=ring.sort_key, reverse=True)
    assert groebner_module._monomial_minimalize(ring, exps) == naive
