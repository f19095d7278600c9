"""Test ideals, left limits, jumping numbers, thresholds, and bounds."""

import gc
import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import charp.frobenius as frobenius_module
import charp.ring as ring_module
import charp.testideal as testideal_module
from charp import (
    ChainNotMonotone,
    CharpError,
    FptInterval,
    Ideal,
    NuValue,
    OutOfInterval,
    Polynomial,
    ResourceLimit,
    UnitPolynomial,
    ZeroPolynomial,
    cartier_chain,
    fpt,
    frob_root,
    hsl_number,
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
from charp.lucas import multinomial_nonzero
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
], ids=["cartier_chain", "nu"])
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


def test_cartier_chain_asserts_its_direction():
    # (y^5 * x)^[1/5] = (y): the first step leaves the seed (x) for an
    # incomparable ideal, so the step is not the monotone chain map
    R = make_ring(5, ["x", "y"])
    with pytest.raises(ChainNotMonotone):
        cartier_chain(parse_poly(R, "y^5"), 1, 1, ideal(R, "x"))


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


def nu_by_bisection(f, e):
    # the largest m in [0, p^e) with (f^m)^[1/p^e] = (1), bisected at full
    # depth: (f^(p^e))^[1/p^e] = (f) is proper
    lo, hi = 0, f.ring.p**e
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tau_ppower(f, mid, e).is_unit():
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nu_matches_bisection_at_full_depth(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    ring = make_ring(p, ["x", "y"])
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)
    f = ring.from_dict(data.draw(st.dictionaries(
        exponents, st.integers(1, p - 1), min_size=1, max_size=3,
    )))
    e = data.draw(st.integers(1, 3))
    assert nu(f, e) == NuValue(e=e, nu=nu_by_bisection(f, e))


def carry_free_compositions(N, n, bound, p, e):
    """The compositions a of N into n parts a_i <= bound whose base-p
    digits add up to N's without a carry: by Lucas' theorem exactly those
    with a multinomial coefficient nonzero mod p. Built digit by digit from
    the top; a part whose digits so far equal bound's is still tight."""
    if N >= p**e:
        return
    place = [p**j for j in reversed(range(e))]
    N_digits = [N // q % p for q in place]
    bound_digits = [bound // q % p for q in place]

    def splits(total, n):
        if n == 1:
            yield (total,)
            return
        for c in range(total, -1, -1):
            for rest in splits(total - c, n - 1):
                yield (c,) + rest

    def walk(j, tight, parts):
        if j == e:
            yield tuple(parts)
            return
        for digits in splits(N_digits[j], n):
            if any(t and c > bound_digits[j] for t, c in zip(tight, digits)):
                continue
            yield from walk(
                j + 1,
                [t and c == bound_digits[j] for t, c in zip(tight, digits)],
                [a + c * place[j] for a, c in zip(parts, digits)],
            )

    yield from walk(0, [True] * n, [0] * n)


def diagonal_nu(d, n, p, e):
    """nu(e) of x_1^d + ... + x_n^d without any root: f^N is the sum of the
    multinomial(N; a) x^(d*a) over the compositions a of N, no two with one
    monomial, and f^N is homogeneous, so (f^N)^[1/p^e] = (1) exactly when
    some a has d*a_i < p^e for every i and a nonzero multinomial mod p."""
    bound = (p**e - 1) // d
    for N in range(n * bound, -1, -1):
        for a in carry_free_compositions(N, n, bound, p, e):
            if multinomial_nonzero(N, a, p):
                return N
    raise AssertionError("the zero composition always qualifies")


def test_carry_free_compositions_are_the_nonzero_multinomials():
    # the digit-by-digit walk lists exactly the compositions that the
    # Lucas test accepts, checked against every composition at small sizes
    for p, e, bound in [(2, 3, 5), (3, 2, 4), (5, 1, 4), (7, 2, 16)]:
        for N in range(3 * bound + 2):
            everything = {
                (a, b, N - a - b)
                for a in range(bound + 1)
                for b in range(bound + 1)
                if 0 <= N - a - b <= bound
                and multinomial_nonzero(N, (a, b, N - a - b), p)
            }
            walked = list(carry_free_compositions(N, 3, bound, p, e))
            assert len(walked) == len(set(walked))
            assert set(walked) == everything, (p, e, bound, N)


@pytest.mark.parametrize("d,primes", [
    (3, [2, 3, 5, 7, 11, 13, 17, 19]),
    (5, [2, 3, 5, 7, 11, 13]),
])
def test_nu_of_diagonal_forms_matches_lucas(d, primes):
    for p in primes:
        f = parse_poly(make_ring(p, ["x", "y", "z"]), f"x^{d}+y^{d}+z^{d}")
        for e in (1, 2, 3):
            assert nu(f, e).nu == diagonal_nu(d, 3, p, e), (p, e)


def test_nu_at_depth_zero_is_zero():
    # (f^m)^[1/1] = (f^m) is proper for every m >= 1
    assert nu(QUINTIC, 0) == NuValue(e=0, nu=0)
    assert nu(parse_poly(make_ring(2, ["x"]), "x"), 0).nu == 0


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


def test_jumps_x17_at_2_all_certified():
    # the jumps of x^17 are r/17; the grid and candidate search with e_res
    # 1 and s_max 1 reached none above 15/16 and ended in a candidate at 1,
    # and the digit automaton reads every one of them, 16/17 included
    R = make_ring(2, ["x"])
    f = parse_poly(R, "x^17")
    certs = jumps_in_unit_interval(f, 1, s_max=1)
    assert [c.value for c in certs] == [Fraction(r, 17) for r in range(1, 17)]
    assert all(c.status == "certified-jump" for c in certs)
    last = certs[-1]
    assert ideal_equal(last.tau_at, ideal(R, "x^16"))
    assert ideal_equal(last.tau_left, ideal(R, "x^15"))


def test_jumps_monomial_none_below_one():
    R = make_ring(3, ["x", "y"])
    assert jumps_in_unit_interval(parse_poly(R, "x"), 2) == []


def hsl_off_jumps(values, p):
    """The least l >= 1 with no jump in (1 - p^-l, 1 - p^-(l+1)]: there
    hsl's chain tau(f^(1 - p^-l)) first repeats."""
    l = 1
    while any(1 - Fraction(1, p**l) < v <= 1 - Fraction(1, p ** (l + 1)) for v in values):
        l += 1
    return l


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_automaton_jumps_agree_with_the_other_routes(data):
    # every jump read off the digit automaton is one that is_fjumping
    # certifies, with the same two ideals; fpt, found by its own search,
    # is the first jump (1 when there is none below 1); and hsl's chain
    # moves exactly where the jumps say
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    nvars = data.draw(st.integers(1, 3))
    ring = make_ring(p, ["x", "y", "z"][:nvars])
    f = ring.from_dict(data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * nvars), st.integers(1, p - 1),
        min_size=1, max_size=3,
    )))
    if f.total_degree() == 0:
        return
    certs = jumps_in_unit_interval(f, 3)
    values = [c.value for c in certs]
    assert values == sorted(set(values)) and all(0 < v < 1 for v in values)
    for c in certs:
        assert c.status == "certified-jump"
        check = is_fjumping(f, c.value)
        assert check.status == "certified-jump", c.value
        assert ideal_equal(check.tau_at, c.tau_at) and ideal_equal(check.tau_left, c.tau_left)
    threshold = fpt(f)
    if isinstance(threshold, FptInterval):
        assert values and threshold.lo < values[0] <= threshold.hi
    else:
        assert threshold.value == (values[0] if values else 1)
    assert hsl_number(f).hsl == hsl_off_jumps(values, p)


# x^7+y^9 at p = 19: period-6 jumps in 63rds and jumps with denominators
# 19^a among them; searches over r/(p^a(p^s - 1)) with s <= 4 missed six
X7Y9_JUMPS = (
    "16/63 2504/6859 25/63 9/19 1257701/2476099 34/63 11/19 4246/6859 "
    "84812/130321 43/63 13/19 5008/6859 275/361 15/19 52/63 5770/6859 "
    "315/361 17/19 338/361 18/19 61/63 355/361"
).split()


def test_jumps_x7_y9_at_19():
    f = parse_poly(make_ring(19, ["x", "y"]), "x^7+y^9")
    certs = jumps_in_unit_interval(f, 3)
    assert [str(c.value) for c in certs] == X7Y9_JUMPS
    for c in certs:
        assert c.status == "certified-jump"
        assert is_fjumping(f, c.value).status == "certified-jump", c.value
    assert certs[0].tau_left.is_unit()


def test_jumps_check_each_chain_inclusion(monkeypatch):
    # one inclusion per jump; a state that is not inside the one before
    # it is an internal error, not an answer
    checks = []
    real_subset = testideal_module.ideal_subset

    def subset(I, J):
        checks.append((I, J))
        return real_subset(I, J)

    monkeypatch.setattr(testideal_module, "ideal_subset", subset)
    certs = jumps_in_unit_interval(QUINTIC, 3)
    assert checks == [(c.tau_at, c.tau_left) for c in certs]
    monkeypatch.setattr(testideal_module, "ideal_subset", lambda I, J: False)
    with pytest.raises(CharpError, match="not a chain"):
        jumps_in_unit_interval(QUINTIC, 3)


def test_jumps_automaton_capped_by_jump_count_bound(monkeypatch):
    # the quintic at p = 7 has 5 states; a bound below that is a violated
    # invariant
    monkeypatch.setattr(testideal_module, "jump_count_bound", lambda n, M, lam: 3)
    with pytest.raises(CharpError, match="bound of 4 states"):
        jumps_in_unit_interval(QUINTIC, 3)
    monkeypatch.setattr(testideal_module, "jump_count_bound", lambda n, M, lam: 4)
    assert len(jumps_in_unit_interval(QUINTIC, 3)) == 4


@pytest.mark.parametrize("p", [2, 3, 7])
def test_jumps_leaves_no_garbage_cycles(p):
    # the digit automaton of jumps and the memo scope go when the call
    # returns, freed by reference counting, not left to the cycle
    # collector; the level
    # automaton's edges are state numbers, so the fixed points that every
    # chain ends in (hsl's most of all) make no cycle either
    R = make_ring(p, ["x", "y", "z"])
    f = parse_poly(R, "x^5+y^5+z^5")
    calls = {
        "jumps": lambda: jumps_in_unit_interval(f, 2),
        "fpt": lambda: fpt(f),
        "hsl": lambda: hsl_number(f),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_jumps_grid_reuses_coarse_cells(monkeypatch):
    # jumps probes tau_ppower only for the digit automaton's first row,
    # tau(f^(d/p)) for d < p; the grid walk it replaced made 59 calls here
    # keyed on (m, depth) as given, fewer with coarse cells reused
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
    assert calls == [(d, 1) for d in range(3)]


def naive_candidates(p, lo, hi, a_max, s_max):
    """Every r/(p^a(p^s-1)) in (lo, hi], one Fraction per (a, s, r)."""
    values = set()
    for a in range(a_max + 1):
        for s in range(1, s_max + 1):
            den = p**a * (p**s - 1)
            for r in range(int(lo * den) + 1, int(hi * den) + 1):
                values.add(Fraction(r, den))
    return sorted(values)


def test_integer_candidates_match_fraction_enumeration():
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        a_max, s_max = rng.randrange(4), rng.randrange(4)
        depth = a_max + s_max
        if rng.random() < 0.5:
            # a cell of the searches: ((m-1)/p^depth, m/p^depth]
            m = rng.randrange(1, p**depth + 1)
            lo, hi = Fraction(m - 1, p**depth), Fraction(m, p**depth)
        else:
            # any rationals, a few cells wide
            lo = Fraction(rng.randrange(50), rng.randrange(1, 50))
            hi = lo + Fraction(rng.randrange(1, 4), p ** max(depth - 2, 0))
        got = testideal_module._candidates_in_interval(p, lo, hi, a_max, s_max)
        assert got == naive_candidates(p, lo, hi, a_max, s_max)
        assert all(type(lam) is Fraction for lam in got)


def test_calls_keep_no_digit_power_memo(monkeypatch):
    # the outermost call opens one memo scope that every nested call
    # shares and that is dropped when it returns, so a repeated call does
    # the same work and no memo outlives its call: a digit-power table or
    # root level kept from the first call would show as fewer products,
    # splits or levels in the second
    work, tables = Counter(), []
    real_mul = Polynomial.__mul__
    real_digit_split = frobenius_module._digit_split
    real_split_times = frobenius_module._split_times
    real_root_level = frobenius_module._root_level

    def mul(a, b):
        work["mul"] += 1
        return real_mul(a, b)

    def split_times(ring, split, terms):
        work["split_times"] += 1
        return real_split_times(ring, split, terms)

    def root_level(f, r, J):
        work["root_level"] += 1
        return real_root_level(f, r, J)

    def digit_split(g, r):
        tables.append(call_memo("digit_split", g))
        return real_digit_split(g, r)

    monkeypatch.setattr(Polynomial, "__mul__", mul)
    monkeypatch.setattr(frobenius_module, "_split_times", split_times)
    monkeypatch.setattr(frobenius_module, "_root_level", root_level)
    monkeypatch.setattr(frobenius_module, "_digit_split", digit_split)
    f = parse_poly(make_ring(5, ["x", "y"]), "x^3+y^2")
    calls = {
        "fpt": lambda: fpt(f).value,
        "tau": lambda: tau(f, Fraction(3, 4)).canon(),
        "jumps": lambda: [c.value for c in jumps_in_unit_interval(f, 2)],
    }
    for name, call in calls.items():
        counts, results, first_tables = [], [], []
        for _ in range(2):
            work.clear()
            tables.clear()
            results.append(call())
            counts.append(dict(work))
            assert tables and all(t is tables[0] for t in tables), name
            assert ring_module._SCOPE.get() is None, name
            # a table held past its call is not the next call's table
            assert all(tables[0] is not t for t in first_tables), name
            first_tables.append(tables[0])
        assert counts[0]["split_times"] > 0 and counts[0]["root_level"] > 0, name
        assert counts[0] == counts[1] and results[0] == results[1], name
    assert calls["fpt"]() == Fraction(4, 5)


def test_equal_polynomials_share_root_levels(monkeypatch):
    # the scope keys its tables by value: fpt on an equal but distinct g
    # takes every root level from f's run; f's run computes 10, since the
    # probes of nu's digit-wise search share most of their levels
    counts = []
    real_root_level = frobenius_module._root_level

    def root_level(h, r, J):
        counts[-1] += 1
        return real_root_level(h, r, J)

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
    assert counts == [10, 0]


# _root_level calls of each search on the quintic at p = 7, as under the
# earlier level memo keyed by (r, generator terms of J); jumps builds its
# digit automaton, p = 7 levels for each of its 5 states (the grid and
# candidate search it replaced computed 27)
QUINTIC_LEVELS = {"fpt": 10, "hsl": 3, "jumps": 35}


def test_searches_compute_each_level_once(monkeypatch):
    # the level automaton computes the same levels as a memo keyed by the
    # digit and the generator terms of J: none twice, none more
    computed = []
    real_root_level = frobenius_module._root_level

    def root_level(h, r, J):
        computed.append((r, tuple(g.terms for g in J.gens)))
        return real_root_level(h, r, J)

    monkeypatch.setattr(frobenius_module, "_root_level", root_level)
    calls = {
        "fpt": lambda: fpt(QUINTIC),
        "hsl": lambda: hsl_number(QUINTIC),
        "jumps": lambda: jumps_in_unit_interval(QUINTIC, 3),
    }
    for name, call in calls.items():
        computed.clear()
        call()
        assert len(computed) == QUINTIC_LEVELS[name], name
        assert len(set(computed)) == len(computed), name


@per_call_memo
def test_equal_test_ideals_are_one_object():
    # levels are interned in the scope, so equal roots are one object and
    # ideal_equal answers them by identity; under the earlier level memo,
    # 393 of these pairs were equal but distinct, m = 0 and m = 4 first
    roots = [tau_ppower(QUINTIC, m, 2) for m in range(49)]
    for a, I in enumerate(roots):
        for J in roots[a + 1 :]:
            assert (I is J) == (I.canon() == J.canon())
    assert roots[0] is roots[4]


@per_call_memo
def test_scope_holds_one_ideal_per_state():
    # every tau_ppower in the scope passes the same unit ideal, which
    # becomes a state once, and a state's ideal is indexed by its id and
    # terms
    for m in range(49):
        tau_ppower(QUINTIC, m, 2)
    table = call_memo("mixed_root", QUINTIC)
    states, index = table["states"], table["index"]
    ideals = [J for J, _ in states]
    assert sum(J.gens == (R7.one(),) for J in ideals) == 1
    assert len(index) == 2 * len(states)
    assert all(index[id(J)] == s for s, J in enumerate(ideals))
    for s, J in enumerate(ideals):
        assert index[tuple(g.terms for g in J.gens)] == s


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


@pytest.mark.parametrize("p", [23, 29, 53, 59, 61, 101, 103])
def test_jumps_cusp_where_full_depth_exceeds_grid_guard(p):
    # p^9 > 2^40 from p = 23 and p^4 > 2^40 from p = 53: the grid search
    # this replaced refined one level short at 23 and 29 and stopped from
    # 37 on; the digit automaton roots at depth 1 only. The only jump in
    # (0, 1) is the threshold
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
