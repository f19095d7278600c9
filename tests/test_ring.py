"""Ring construction, parsing, printing, and exact polynomial arithmetic."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from charp import (
    BadVariableName,
    DuplicateVariable,
    EmptyVariableList,
    NotPrime,
    PolySyntaxError,
    RingMismatch,
    UnknownVariable,
    frob_power,
    is_prime,
    make_ring,
    mixed_root,
    parse_poly,
    poly_pow,
    pow_base_p,
    unit_ideal,
)
from charp.ring import call_memo, per_call_memo


@pytest.mark.parametrize("n,expected", [
    (0, False), (1, False), (2, True), (3, True), (4, False), (5, True),
    (25, False), (91, False), (97, True),
    (561, False), (1105, False), (2821, False),   # Carmichael numbers
    (2**31 - 1, True), (2**61 - 1, True), (2**61 + 1, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) == expected


def test_make_ring_valid():
    R = make_ring(7, ["x", "y", "z"])
    assert R.p == 7 and R.vars == ("x", "y", "z") and R.order == "grevlex"


@pytest.mark.parametrize("p,vars,err", [
    (4, ["x"], NotPrime),
    (2, ["x", "x"], DuplicateVariable),
    (2, [], EmptyVariableList),
    (2, ["2bad"], BadVariableName),
    (2, [""], BadVariableName),
])
def test_make_ring_rejects(p, vars, err):
    with pytest.raises(err):
        make_ring(p, vars)


def test_make_ring_rejects_unknown_order():
    with pytest.raises(ValueError):
        make_ring(5, ["x"], order="deglex")


@pytest.mark.parametrize("p,text,printed", [
    (7, "x^5+y^5+z^5", "x^5 + y^5 + z^5"),
    (7, "7*x + y", "y"),
    (7, "x^2 + 6*x*y + 3", "x^2 + 6*x*y + 3"),
    (5, "-x+1", "4*x + 1"),
    (2, "(x+y)^2", "x^2 + y^2"),
    (7, "2x y^2", "2*x*y^2"),
    (7, "x - x", "0"),
    (7, "x^0", "1"),
    (7, "10", "3"),
])
def test_parse_and_print(p, text, printed):
    R = make_ring(p, ["x", "y", "z"])
    assert str(parse_poly(R, text)) == printed


def test_parse_error_has_position():
    R = make_ring(7, ["x"])
    with pytest.raises(PolySyntaxError) as info:
        parse_poly(R, "x^")
    assert info.value.position == 2


def test_parse_unknown_variable():
    R = make_ring(7, ["x", "y"])
    with pytest.raises(UnknownVariable) as info:
        parse_poly(R, "x+w")
    assert info.value.position == 2


@pytest.mark.parametrize("text", ["", "x+", "^2", "x**2", "(x", "x^-2"])
def test_parse_rejects_malformed(text):
    R = make_ring(7, ["x", "y"])
    with pytest.raises(PolySyntaxError):
        parse_poly(R, text)


def test_mul_and_pow_examples():
    R2 = make_ring(2, ["x", "y"])
    f = parse_poly(R2, "x+y")
    assert str(poly_pow(f, 2)) == "x^2 + y^2"
    assert str(poly_pow(f, 0)) == "1"
    R3 = make_ring(3, ["x"])
    g = parse_poly(R3, "x+1") * parse_poly(R3, "x+2")
    assert str(g) == "x^2 + 2"


def test_pow_rejects_negative():
    R = make_ring(3, ["x"])
    with pytest.raises(ValueError):
        poly_pow(parse_poly(R, "x"), -1)


def test_ring_mismatch():
    a = parse_poly(make_ring(5, ["x"]), "x")
    b = parse_poly(make_ring(7, ["x"]), "x")
    with pytest.raises(RingMismatch):
        a * b


def test_frob_power_examples():
    R5 = make_ring(5, ["x", "y"])
    assert str(frob_power(parse_poly(R5, "x+y"), 1)) == "x^5 + y^5"
    R3 = make_ring(3, ["x"])
    assert str(frob_power(parse_poly(R3, "2*x"), 2)) == "2*x^9"


def test_pow_base_p_examples():
    R7 = make_ring(7, ["x", "y", "z"])
    x = parse_poly(R7, "x")
    assert str(pow_base_p(x, 8)) == "x^8"
    f = parse_poly(R7, "x^5+y^5+z^5")
    assert pow_base_p(f, 6) == poly_pow(f, 6)
    assert str(pow_base_p(f, 0)) == "1"


def test_zero_and_degree():
    R = make_ring(5, ["x", "y"])
    zero = parse_poly(R, "0")
    assert not zero and zero.total_degree() == -1
    assert parse_poly(R, "3").total_degree() == 0
    assert parse_poly(R, "x^2*y + x").total_degree() == 3


def test_monomial_order_grevlex():
    # graded first; among equal degrees the grevlex tiebreak
    R = make_ring(7, ["x", "y", "z"])
    f = parse_poly(R, "z^3 + x*y + x^2*z")
    assert [str(parse_poly(R, m)) for m in ("z^3", "x*y", "x^2*z")]
    assert str(f) == "x^2*z + z^3 + x*y"


def test_monomial_order_lex():
    R = make_ring(7, ["x", "y"], order="lex")
    f = parse_poly(R, "y^5 + x")
    assert str(f) == "x + y^5"


# random polynomials over a small prime, built term by term
@st.composite
def ring_and_polys(draw, count=2):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    R = make_ring(p, ["x", "y", "z"][:nvars])
    polys = []
    for _ in range(count):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 6)] * nvars),
            st.integers(1, p - 1) if p > 1 else st.just(1),
            max_size=4,
        ))
        polys.append(R.from_dict(terms))
    return R, polys


@settings(max_examples=150, deadline=None)
@given(ring_and_polys(count=3))
def test_ring_axioms(data):
    R, (f, g, h) = data
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == R.zero()
    assert f * R.one() == f


@settings(max_examples=150, deadline=None)
@given(ring_and_polys(count=1))
def test_parse_print_roundtrip(data):
    R, (f,) = data
    assert parse_poly(R, str(f)) == f


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(count=1), st.integers(1, 2))
def test_frob_power_matches_direct_power(data, e):
    R, (f,) = data
    assert frob_power(f, e) == poly_pow(f, R.p**e)


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(count=1), st.integers(0, 30))
def test_pow_base_p_matches_direct_power(data, m):
    R, (f,) = data
    assert pow_base_p(f, m) == poly_pow(f, m)


@st.composite
def ring_and_exponents(draw):
    nvars = draw(st.integers(1, 4))
    order = draw(st.sampled_from(["grevlex", "lex"]))
    R = make_ring(5, ["x", "y", "z", "w"][:nvars], order=order)
    monomials = st.tuples(*[st.integers(0, 5)] * nvars)
    return R, draw(st.lists(monomials, max_size=30))


@settings(max_examples=150, deadline=None)
@given(ring_and_exponents())
def test_desc_key_sorts_like_reversed_sort_key(data):
    R, exponents = data
    assert sorted(exponents, key=R.desc_key) == sorted(
        exponents, key=R.sort_key, reverse=True
    )


def naive_product(p, a, b):
    """The product of two {exponents: coeff} dicts mod p, zeros dropped."""
    out = {}
    for u, c in a.items():
        for v, d in b.items():
            w = tuple(x + y for x, y in zip(u, v))
            out[w] = (out.get(w, 0) + c * d) % p
    return {w: c for w, c in out.items() if c}


@st.composite
def ring_and_dicts(draw):
    # small exponents make many products collide, and some cancel mod p
    p = draw(st.sampled_from([2, 3, 7]))
    nvars = draw(st.integers(1, 4))
    R = make_ring(p, ["x", "y", "z", "w"][:nvars])
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1), max_size=6
    )
    return R, draw(terms), draw(terms)


def assert_mul_is_naive(R, a, b):
    product = R.from_dict(a) * R.from_dict(b)
    expected = naive_product(R.p, a, b)
    assert dict(product.terms) == expected
    assert [e for e, _ in product.terms] == sorted(expected, key=R.sort_key, reverse=True)


@settings(max_examples=200, deadline=None)
@given(ring_and_dicts())
def test_mul_matches_naive_convolution(data):
    assert_mul_is_naive(*data)


@pytest.mark.parametrize("p,a,b,product", [
    (2, "x+y", "x+y", "x^2+y^2"),
    (3, "x+y", "x^2+2*x*y+y^2", "x^3+y^3"),
    (7, "x+y", "x-y", "x^2-y^2"),
    (7, "1+z+z^2+z^3", "1-z", "1-z^4"),
    (3, "x*y+w", "x*y+2*w", "x^2*y^2+2*w^2"),
    (2, "x+y+z+w", "x+y+z+w", "x^2+y^2+z^2+w^2"),
])
def test_mul_drops_coefficients_that_cancel(p, a, b, product):
    R = make_ring(p, ["x", "y", "z", "w"])
    f, g = parse_poly(R, a), parse_poly(R, b)
    assert f * g == parse_poly(R, product)
    assert_mul_is_naive(R, dict(f.terms), dict(g.terms))


@pytest.mark.parametrize("p", [2, 3, 7])
def test_digit_power_matches_direct_power(p):
    R = make_ring(p, ["x", "y", "z"])
    f = parse_poly(R, "x^2 + 3*x*y + z + 1")
    # ask out of order so that the memo grows more than once
    for r in [1, 0, p - 1] + list(range(p)):
        assert f.digit_power(r).terms == (f**r).terms


@pytest.mark.parametrize("r", [-1, 5])
def test_digit_power_rejects_non_digits(r):
    f = parse_poly(make_ring(5, ["x"]), "x+1")
    with pytest.raises(ValueError):
        f.digit_power(r)


def fill_memos(f):
    # inside a scope: fills the digit powers and root levels of f's value
    f.digit_power(f.ring.p - 1)
    mixed_root(f, f.ring.p + 1, unit_ideal(f.ring), 2)
    assert call_memo("digit_power", f) and call_memo("mixed_root", f)


@per_call_memo
def test_digit_power_memo_is_invisible():
    R = make_ring(7, ["x", "y"])
    f, g = parse_poly(R, "x^3 + y"), parse_poly(R, "x^3 + y")
    fill_memos(f)
    assert f == g and hash(f) == hash(g) and f.terms == g.terms
    assert {f: 1}[g] == 1


@per_call_memo
def test_ring_and_memoized_polynomial_pickle():
    R = make_ring(5, ["x", "y"], order="lex")
    assert pickle.loads(pickle.dumps(R)) == R
    f = parse_poly(R, "x*y + y^2 + 2")
    fill_memos(f)
    # every protocol, down to 0 and 1, which need Polynomial.__reduce__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        g = pickle.loads(pickle.dumps(f, protocol))
        assert g == f and g.ring.order == "lex"
        assert g.digit_power(4) == f**4
