"""Frobenius kernel stabilization (chain of shrinking annihilator ideals)."""

import random
from fractions import Fraction

import pytest

import charp.hsl
from charp import (
    CharpError,
    ZeroPolynomial,
    cartier_step,
    hsl_number,
    hsl_upper_bound,
    ideal_contains,
    ideal_equal,
    ideal_subset,
    jumps_in_unit_interval,
    make_ring,
    parse_poly,
    tau_left,
    tau_ppower,
    unit_ideal,
)

R7 = make_ring(7, ["x", "y", "z"])
QUINTIC = parse_poly(R7, "x^5+y^5+z^5")


def test_cartier_step_examples():
    R = make_ring(5, ["x"])
    assert cartier_step(parse_poly(R, "x"), unit_ideal(R)).is_unit()
    got = cartier_step(QUINTIC, unit_ideal(R7))
    assert ideal_equal(got, tau_ppower(QUINTIC, 6, 1))


def test_cartier_step_twice_is_depth_two_root():
    rng = random.Random(4)
    for p in (2, 3, 5):
        ring = make_ring(p, ["x", "y"])
        for _ in range(8):
            d = {tuple(rng.randrange(4) for _ in ring.vars): rng.randrange(1, p)
                 for _ in range(rng.randrange(1, 4))}
            f = ring.from_dict(d)
            if not f or f.is_unit():
                continue
            twice = cartier_step(f, cartier_step(f, unit_ideal(ring)))
            assert ideal_equal(twice, tau_ppower(f, p**2 - 1, 2))


@pytest.mark.parametrize("p,expected", [
    (2, 2), (3, 2), (7, 2), (13, 2), (17, 2),
    (5, 1), (11, 1), (19, 1), (29, 1),
])
def test_hsl_quintic(p, expected):
    R = make_ring(p, ["x", "y", "z"])
    report = hsl_number(parse_poly(R, "x^5+y^5+z^5"))
    assert report.hsl == expected


def test_hsl_smooth_and_unit():
    R = make_ring(5, ["x"])
    report = hsl_number(parse_poly(R, "x"))
    assert report.hsl == 1
    assert hsl_number(parse_poly(R, "3")).hsl == 1
    with pytest.raises(ZeroPolynomial):
        hsl_number(R.zero())


def test_hsl_chain_shape():
    report = hsl_number(QUINTIC)
    chain = report.chain
    assert chain[0].is_unit()
    assert ideal_equal(chain[-1], chain[-2])
    for earlier, later in zip(chain, chain[1:]):
        assert ideal_subset(later, earlier)
    # strictly shrinking before the repeat
    for i in range(len(chain) - 2):
        assert not ideal_equal(chain[i], chain[i + 1])
    # cross-path: entry l equals the direct depth-l root of f^(p^l - 1)
    for l, entry in enumerate(chain):
        assert ideal_equal(entry, tau_ppower(QUINTIC, 7**l - 1, l) if l else
                           unit_ideal(R7))
    assert ideal_contains(report.stabilized, QUINTIC)


def test_hsl_step_limit(monkeypatch):
    # a chain still moving at its proven bound is an internal error
    monkeypatch.setattr(charp.hsl, "hsl_upper_bound", lambda n, M: 1)
    with pytest.raises(CharpError) as info:
        hsl_number(QUINTIC)
    assert type(info.value) is CharpError
    assert len(info.value.chain) == 3


def test_hsl_fermat_nine():
    R = make_ring(2, ["x", "y", "z"])
    report = hsl_number(parse_poly(R, "x^9+y^9+z^9"))
    assert report.hsl == 3
    assert report.hsl <= hsl_upper_bound(3, 9)


def test_hsl_upper_bound_values():
    assert hsl_upper_bound(3, 5) == 57
    assert hsl_upper_bound(1, 1) == 3
    assert hsl_upper_bound(3, 9) == 221
    with pytest.raises(ValueError):
        hsl_upper_bound(0, 1)


def test_hsl_below_bound_random():
    rng = random.Random(11)
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        nv = rng.randrange(2, 4)
        ring = make_ring(p, ["x", "y", "z"][:nv])
        d = {tuple(rng.randrange(4) for _ in range(nv)): rng.randrange(1, p)
             for _ in range(rng.randrange(1, 4))}
        f = ring.from_dict(d)
        if not f or f.is_unit() or f.total_degree() < 1:
            continue
        report = hsl_number(f)
        assert report.hsl <= hsl_upper_bound(nv, f.total_degree())


def _hsl_from_largest_jump(jumps, p):
    """Least l >= 1 with lam_max <= 1 - p^-l, lam_max the largest certified
    jump in (0, 1); 1 when (0, 1) holds none."""
    values = [c.value for c in jumps if c.is_jump()]
    l = 1
    while values and max(values) > 1 - Fraction(1, p**l):
        l += 1
    return l


@pytest.mark.parametrize("text,p,e_res", [
    *(("x^5+y^5+z^5", p, 3) for p in (2, 3, 5, 7, 11, 13)),
    *(("x^3+y^3+z^3", p, 3) for p in (2, 3, 5, 7, 11, 13, 17, 19)),
    *(("x^4+x*y^3+y^2*z^2+z^5", p, 2) for p in (2, 5, 7)),
    *(("x^2+y^3", p, 3) for p in (2, 3, 5, 7, 11, 13)),
    *(("x^3+y^3+z^3+x*y*z", p, 3) for p in (2, 3, 7)),
])
def test_hsl_agrees_with_left_limit_and_jumps(text, p, e_res):
    # entry l of the chain is tau(f^(1 - p^-l)): the chain ends at the left
    # limit of tau at 1 and moves exactly where a jump lies below 1
    f = parse_poly(make_ring(p, ["x", "y", "z"]), text)
    report = hsl_number(f)
    assert ideal_equal(report.stabilized, tau_left(f, 1))
    jumps = jumps_in_unit_interval(f, e_res)
    assert report.hsl == _hsl_from_largest_jump(jumps, p)
