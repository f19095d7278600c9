"""Test ideals, left limits, jumping numbers, thresholds, and bounds."""

import gc
import random
import time
from fractions import Fraction
from math import factorial

import pytest

import charp.frobenius as frobenius_module
import charp.ring as ring_module
import charp.testideal as testideal_module
from charp import (
    CharpError,
    FptInterval,
    GapClaim,
    Ideal,
    OutOfInterval,
    Polynomial,
    ResourceLimit,
    UnitPolynomial,
    ZeroPolynomial,
    cartier_chain,
    fpt,
    frob_root,
    gap_certificate,
    ideal_equal,
    ideal_product,
    ideal_subset,
    is_fjumping,
    jump_count_bound,
    jumps_in_unit_interval,
    make_ring,
    nu,
    parse_poly,
    pfrac_form,
    scale_ideal,
    tau,
    tau_left,
    tau_ppower,
    transport_jump,
    unit_ideal,
)
from charp.ring import call_memo, per_call_memo

R7 = make_ring(7, ["x", "y", "z"])
QUINTIC = parse_poly(R7, "x^5+y^5+z^5")


def ideal(ring, *texts):
    return Ideal(ring, [parse_poly(ring, t) for t in texts])


def maximal_power(ring, k):
    gens = [parse_poly(ring, v) for v in ring.vars]
    out = Ideal(ring, gens)
    for _ in range(k - 1):
        out = ideal_product(out, Ideal(ring, gens))
    return out


@pytest.mark.parametrize("lam,p,expected", [
    (Fraction(4, 7), 7, (24, 1, 1)),
    (Fraction(3, 5), 7, (1440, 0, 4)),
    (Fraction(1, 3), 3, (2, 1, 1)),
    (Fraction(5, 1), 3, (10, 0, 1)),
])
def test_pfrac_form_examples(lam, p, expected):
    form = pfrac_form(lam, p)
    assert (form.r, form.a, form.s) == expected
    assert form.as_fraction(p) == lam


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_pfrac_form_reconstructs(p):
    rng = random.Random(p)
    for _ in range(50):
        lam = Fraction(rng.randrange(1, 400), rng.randrange(1, 400))
        form = pfrac_form(lam, p)
        assert form.as_fraction(p) == lam


def test_pfrac_form_period_limit():
    # the form is exact for any period; a limit stops the order search
    lam = Fraction(1, 379)
    assert pfrac_form(lam, 2).as_fraction(2) == lam
    assert pfrac_form(lam, 2).s > 40
    with pytest.raises(ResourceLimit):
        pfrac_form(lam, 2, s_limit=40)
    assert testideal_module.multiplicative_order(2, 7, limit=3) == 3
    with pytest.raises(ResourceLimit):
        testideal_module.multiplicative_order(2, 7, limit=2)


@pytest.mark.parametrize("side", [tau, tau_left])
@pytest.mark.parametrize("p,den", [(3, 10000019), (2, 1099511627689)])
def test_huge_period_fails_before_the_order_search(side, p, den):
    # the order of p mod den is far beyond the largest root depth; finding
    # it took seconds (p = 3) or longer than anyone waited (p = 2)
    x = parse_poly(make_ring(p, ["x"]), "x")
    start = time.process_time()
    with pytest.raises(ResourceLimit):
        side(x, Fraction(1, den))
    assert time.process_time() - start < 0.5


R3 = make_ring(3, ["x"])
X3 = parse_poly(R3, "x")


@pytest.mark.parametrize("call", [
    lambda: cartier_chain(X3, 1, 10**7, unit_ideal(R3)),
    lambda: nu(X3, 10**7),
    lambda: gap_certificate(X3, 1, 10**7, 1),
    lambda: gap_certificate(X3, 1, 1, 10**7),
], ids=["cartier_chain", "nu", "gap_certificate-e", "gap_certificate-d"])
def test_depth_guard_fires_before_the_power(call):
    # 3^(10^7) alone takes seconds to build
    start = time.process_time()
    with pytest.raises(ResourceLimit):
        call()
    assert time.process_time() - start < 0.5


def test_tau_ppower_monomial_rule():
    R = make_ring(5, ["x"])
    x = parse_poly(R, "x")
    for m, e in [(7, 1), (24, 1), (26, 2), (0, 1)]:
        want = ideal(R, f"x^{m // 5**e}") if m // 5**e else unit_ideal(R)
        assert ideal_equal(tau_ppower(x, m, e), want)


def test_tau_ppower_quintic_values():
    assert ideal_equal(tau_ppower(QUINTIC, 6, 1),
                       ideal(R7, "x^2", "y^2", "z^2", "x*y*z"))
    assert ideal_equal(tau_ppower(QUINTIC, 48, 2), maximal_power(R7, 3))


def test_tau_ppower_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        tau_ppower(R7.zero(), 3, 1)


def test_cartier_chain_examples():
    R = make_ring(5, ["x"])
    x = parse_poly(R, "x")
    assert cartier_chain(x, 4, 1, unit_ideal(R)).is_unit()
    # seeded at (f^6)^[1/7] the chain walks tau(f^(1-1/7^e)) downward and
    # stops at the left limit at 1, the cube of the maximal ideal
    seed = frob_root(Ideal(R7, [parse_poly(R7, "x^5+y^5+z^5")**6]), 1)
    fixed = cartier_chain(QUINTIC, 6, 1, seed)
    assert ideal_equal(fixed, maximal_power(R7, 3))
    assert ideal_equal(fixed, tau_left(QUINTIC, 1))
    assert ideal_equal(cartier_chain(QUINTIC, 6, 1, fixed), fixed)


def test_cartier_chain_step_limit(monkeypatch):
    # a chain still moving at its proven bound is an internal error; this
    # one leaves its seed (1) on the first step
    monkeypatch.setattr(testideal_module, "hsl_upper_bound", lambda n, M: 1)
    with pytest.raises(CharpError) as info:
        cartier_chain(QUINTIC, 6, 1, unit_ideal(R7))
    assert type(info.value) is CharpError


@pytest.mark.parametrize("lam,expected_texts", [
    (Fraction(4, 7), ("x", "y", "z")),
    (Fraction(6, 7), ("x^2", "y^2", "z^2", "x*y*z")),
])
def test_tau_quintic(lam, expected_texts):
    assert ideal_equal(tau(QUINTIC, lam), ideal(R7, *expected_texts))


def test_tau_quintic_squares():
    assert ideal_equal(tau(QUINTIC, Fraction(5, 7)), maximal_power(R7, 2))
    assert ideal_equal(tau(QUINTIC, Fraction(48, 49)), maximal_power(R7, 3))


def test_tau_degenerate_exponents():
    assert tau(QUINTIC, 0).is_unit()
    R = make_ring(5, ["x"])
    x = parse_poly(R, "x")
    assert ideal_equal(tau(x, Fraction(3, 2)), ideal(R, "x"))
    assert ideal_equal(tau(x, 2), ideal(R, "x^2"))
    assert tau(parse_poly(R, "3"), Fraction(9, 2)).is_unit()


def test_tau_left_examples():
    assert tau_left(QUINTIC, Fraction(4, 7)).is_unit()
    R = make_ring(5, ["x"])
    assert tau_left(parse_poly(R, "x"), 1).is_unit()
    assert ideal_equal(tau_left(QUINTIC, 1), maximal_power(R7, 3))


def test_is_fjumping_examples():
    cert = is_fjumping(QUINTIC, Fraction(4, 7))
    assert cert.status == "certified-jump" and cert.is_jump()
    assert cert.tau_left.is_unit()
    assert is_fjumping(QUINTIC, Fraction(1, 2)).status == "certified-not-jump"
    R = make_ring(5, ["x"])
    assert is_fjumping(parse_poly(R, "x"), 1).status == "certified-jump"


def test_nu_examples():
    R = make_ring(5, ["x"])
    x = parse_poly(R, "x")
    for e in (1, 2, 3):
        assert nu(x, e).nu == 5**e - 1
    assert nu(QUINTIC, 1).nu == 3
    R11 = make_ring(11, ["x", "y", "z"])
    assert nu(parse_poly(R11, "x^5+y^5+z^5"), 1).nu == 6


def test_nu_rejects_unit_and_zero():
    with pytest.raises(UnitPolynomial):
        nu(R7.one(), 1)
    with pytest.raises(ZeroPolynomial):
        nu(R7.zero(), 1)


@pytest.mark.parametrize("p,expected", [
    (2, Fraction(1, 4)),
    (7, Fraction(4, 7)),
    (11, Fraction(3, 5)),
])
def test_fpt_quintic(p, expected):
    R = make_ring(p, ["x", "y", "z"])
    cert = fpt(parse_poly(R, "x^5+y^5+z^5"))
    assert cert.status == "certified-jump"
    assert cert.value == expected
    assert cert.tau_left.is_unit() and not cert.tau_at.is_unit()


def test_fpt_monomial():
    R = make_ring(5, ["x", "y"])
    cert = fpt(parse_poly(R, "x*y"))
    assert cert.value == 1 and cert.status == "certified-jump"


def test_fpt_interval_fallback():
    # depth 1 with no candidate room still yields a bracketing interval
    R = make_ring(2, ["x", "y", "z"])
    f = parse_poly(R, "x^5+y^5+z^5")
    out = fpt(f, e_max=1, s_max=1)
    if isinstance(out, FptInterval):
        assert out.lo < Fraction(1, 4) <= out.hi
    else:
        assert out.value == Fraction(1, 4)


@pytest.mark.parametrize("p,e_res,expected", [
    (2, 3, ["1/4", "1/2", "3/4"]),
    (3, 4, ["1/3", "2/3", "8/9"]),
])
def test_jumps_quintic_small_primes(p, e_res, expected):
    R = make_ring(p, ["x", "y", "z"])
    certs = jumps_in_unit_interval(parse_poly(R, "x^5+y^5+z^5"), e_res)
    assert [str(c.value) for c in certs] == expected
    assert all(c.status == "certified-jump" for c in certs)
    values = [c.value for c in certs]
    assert values == sorted(values)


def test_jumps_end_of_cell_candidate():
    # x^17 over F_2 at e_res 1, s_max 1: the last deep cell (15/16, 1] holds
    # the jump 16/17, which no candidate r/2^a (a <= 3) reaches, so the
    # cell ends in a candidate at 1 with the left limit of tau there
    R = make_ring(2, ["x"])
    f = parse_poly(R, "x^17")
    last = jumps_in_unit_interval(f, 1, s_max=1)[-1]
    assert (last.value, last.status) == (1, "candidate")
    assert ideal_equal(last.tau_at, tau_left(f, 1))
    assert ideal_equal(last.tau_left, ideal(R, "x^15"))


def test_jumps_monomial_none_below_one():
    R = make_ring(3, ["x", "y"])
    assert jumps_in_unit_interval(parse_poly(R, "x"), 2) == []


@pytest.mark.parametrize("p", [2, 3, 7])
def test_jumps_leaves_no_garbage_cycles(p):
    # the grid cache and the private copy of f go when the call returns,
    # freed by reference counting, not left to the cycle collector
    R = make_ring(p, ["x", "y", "z"])
    f = parse_poly(R, "x^5+y^5+z^5")
    gc.collect()
    gc.disable()
    try:
        jumps_in_unit_interval(f, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_jumps_grid_reuses_coarse_cells(monkeypatch):
    # a sub-cell endpoint m*p^k/p^(e+k) keys the grid as m/p^e, so the
    # refinement walk probes fewer test ideals; keyed on (m, depth) as
    # given, this walk made 59 tau_ppower calls
    calls = []
    real = testideal_module.tau_ppower

    def counted(f, m, e):
        calls.append((m, e))
        return real(f, m, e)

    monkeypatch.setattr(testideal_module, "tau_ppower", counted)
    R = make_ring(3, ["x", "y", "z"])
    certs = jumps_in_unit_interval(parse_poly(R, "x^5+y^5+z^5"), 2)
    assert [(str(c.value), c.status) for c in certs] == [
        ("1/3", "certified-jump"),
        ("2/3", "certified-jump"),
        ("8/9", "certified-jump"),
    ]
    assert len(calls) < 59


def test_calls_keep_no_digit_power_memo(monkeypatch):
    # the outermost call opens one memo scope that every nested call
    # shares and that is dropped when it returns, so a repeated call does
    # the same work and no memo outlives its call
    products, tables = [], []
    real_mul, real_digit_power = Polynomial.__mul__, Polynomial.digit_power

    def mul(a, b):
        products.append(1)
        return real_mul(a, b)

    def digit_power(g, r):
        tables.append(call_memo("digit_power", g))
        return real_digit_power(g, r)

    monkeypatch.setattr(Polynomial, "__mul__", mul)
    monkeypatch.setattr(Polynomial, "digit_power", digit_power)
    f = parse_poly(make_ring(5, ["x", "y"]), "x^3+y^2")
    calls = {
        "fpt": lambda: fpt(f).value,
        "tau": lambda: tau(f, Fraction(3, 4)).canon(),
        "jumps": lambda: [c.value for c in jumps_in_unit_interval(f, 2)],
    }
    for name, call in calls.items():
        counts, results = [], []
        for _ in range(2):
            products.clear()
            tables.clear()
            results.append(call())
            counts.append(len(products))
            assert tables and all(t is tables[0] for t in tables), name
            assert ring_module._SCOPE.get() is None, name
        assert counts[0] == counts[1] and results[0] == results[1], name
    assert calls["fpt"]() == Fraction(4, 5)


def test_equal_polynomials_share_root_levels(monkeypatch):
    # the scope keys its tables by value: fpt on an equal but distinct g
    # takes every root level from f's run
    counts = []
    real_root_level = frobenius_module._root_level

    def root_level(fr, J):
        counts[-1] += 1
        return real_root_level(fr, J)

    monkeypatch.setattr(frobenius_module, "_root_level", root_level)
    R = make_ring(7, ["x", "y", "z"])
    f, g = parse_poly(R, "x^5+y^5+z^5"), parse_poly(R, "x^5+y^5+z^5")

    @per_call_memo
    def both():
        results = []
        for h in (f, g):
            counts.append(0)
            results.append(fpt(h).value)
        return results

    assert both() == [Fraction(4, 7)] * 2
    assert counts == [26, 0]


def cubic_hasse_invariant(p):
    # coefficient of (xyz)^(p-1) in (x^3+y^3+z^3+xyz)^(p-1) mod p: the
    # multinomial terms x^(3a+d) y^(3b+d) z^(3c+d) reach it only for
    # a = b = c and d = p-1-3a
    return sum(
        factorial(p - 1) // (factorial(a) ** 3 * factorial(p - 1 - 3 * a))
        for a in range((p - 1) // 3 + 1)
    ) % p


@pytest.mark.parametrize("p", [5, 13])
def test_fpt_nondiagonal_cubic_matches_hasse_invariant(p):
    # the smooth plane cubic x^3+y^3+z^3+xyz (p not 2 or 7) has fpt 1 when
    # it is ordinary (Hasse invariant nonzero) and 1 - 1/p otherwise
    # (Bhatt-Singh, "The F-pure threshold of a Calabi-Yau hypersurface",
    # Math. Ann. 2015)
    expected = 1 if cubic_hasse_invariant(p) else 1 - Fraction(1, p)
    R = make_ring(p, ["x", "y", "z"])
    cert = fpt(parse_poly(R, "x^3+y^3+z^3+x*y*z"))
    assert cert.status == "certified-jump"
    assert cert.value == expected


def cusp_fpt(p):
    # the cusp x^2+y^3: 5/6 if p = 1 mod 6, 5/6 - 1/(6p) if p = 5 mod 6
    return Fraction(5, 6) - (Fraction(1, 6 * p) if p % 6 == 5 else 0)


@pytest.mark.parametrize("p", [37, 41])
def test_fpt_cusp_where_full_depth_exceeds_root_guard(p):
    # p^8 > 2^40, so the threshold is localized one level shallower
    R = make_ring(p, ["x", "y"])
    cert = fpt(parse_poly(R, "x^2+y^3"))
    assert cert.status == "certified-jump"
    assert cert.value == cusp_fpt(p)


@pytest.mark.parametrize("p", [23, 29])
def test_jumps_cusp_where_full_depth_exceeds_grid_guard(p):
    # p^9 > 2^40: drops are refined one level shallower; the only jump
    # in (0, 1) is the threshold
    R = make_ring(p, ["x", "y"])
    certs = jumps_in_unit_interval(parse_poly(R, "x^2+y^3"), 3)
    assert [(c.value, c.status) for c in certs] == [(cusp_fpt(p), "certified-jump")]


def test_fpt_guard_fires_two_levels_short():
    R = make_ring(53, ["x", "y"])
    with pytest.raises(ResourceLimit):
        fpt(parse_poly(R, "x^2+y^3"))


def test_transport_examples():
    assert transport_jump(Fraction(48, 49), 6, 1, 7) == Fraction(6, 7)
    assert transport_jump(Fraction(8, 9), 2, 1, 3) == Fraction(2, 3)
    # boundary algebra: mu = (1 - p^-2e) lam maps to (1 - p^-e) lam
    lam = Fraction(6, 48)
    mu = (1 - Fraction(1, 49**2)) * lam
    assert transport_jump(mu, 6, 2, 7) == (1 - Fraction(1, 49)) * lam


def test_transport_out_of_interval():
    with pytest.raises(OutOfInterval):
        transport_jump(Fraction(1, 3), 6, 1, 7)
    with pytest.raises(OutOfInterval):
        transport_jump(Fraction(8, 7), 6, 1, 7)


def test_gap_certificate_quintic():
    claim = gap_certificate(QUINTIC, 6, 1, 4)
    assert isinstance(claim, GapClaim)
    assert claim.hi == 1 and claim.lo == 1 - Fraction(1, 7**4)
    # cross-check: tau is constant on the certified-empty interval
    assert ideal_equal(tau_left(QUINTIC, 1), tau(QUINTIC, claim.lo))


def test_gap_certificate_refuses_a_false_claim():
    # (6/7, 1) holds the certified jump 48/49, so there is no gap to claim
    assert is_fjumping(QUINTIC, Fraction(48, 49)).is_jump()
    assert gap_certificate(QUINTIC, 6, 1, 1) is None


def test_jump_count_bound_examples():
    assert jump_count_bound(3, 5, 1) == 56
    assert jump_count_bound(1, 1, 1) == 2
    assert jump_count_bound(3, 5, Fraction(1, 2)) == 10
    with pytest.raises(ValueError):
        jump_count_bound(0, 5, 1)


def test_tau_monotone_in_lambda():
    values = [Fraction(1, 3), Fraction(4, 7), Fraction(5, 7), Fraction(9, 10),
              Fraction(48, 49), 1, Fraction(8, 7)]
    ideals = [tau(QUINTIC, v) for v in values]
    for small, big in zip(ideals, ideals[1:]):
        assert ideal_subset(big, small)


def test_grid_chain_ascends_to_tau():
    lam = Fraction(5, 7)
    prev = None
    for e in (1, 2, 3):
        q = 7**e
        cell = tau_ppower(QUINTIC, -(-lam.numerator * q // lam.denominator), e)
        if prev is not None:
            assert ideal_subset(prev, cell)
        prev = cell
    assert ideal_equal(prev, tau(QUINTIC, lam))


QUINTIC_2 = parse_poly(make_ring(2, ["x", "y", "z"]), "x^5+y^5+z^5")
SKODA_CASES = [(QUINTIC, Fraction(lam)) for lam in ("1", "11/7", "13/7", "2")]
SKODA_CASES += [(QUINTIC_2, Fraction(lam)) for lam in ("5/4", "3/2", "7/4")]


@pytest.mark.parametrize("f,lam", SKODA_CASES,
                         ids=[f"lam{i}" for i in range(len(SKODA_CASES))])
def test_skoda_identity(f, lam):
    assert ideal_equal(tau(f, lam), scale_ideal(f, tau(f, lam - 1)))
    if lam > 1:
        assert ideal_equal(tau_left(f, lam), scale_ideal(f, tau_left(f, lam - 1)))


@pytest.mark.parametrize("m,e", [(3, 1), (11, 2), (48, 2), (100, 3)])
def test_two_path_equality(m, e):
    assert ideal_equal(tau(QUINTIC, Fraction(m, 7**e)), tau_ppower(QUINTIC, m, e))


def test_fpt_consistency_property():
    cert = fpt(QUINTIC)
    assert ideal_equal(tau(QUINTIC, cert.value), cert.tau_at)
    assert tau_left(QUINTIC, cert.value).is_unit()
