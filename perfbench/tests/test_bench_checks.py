"""The output checks on hand-worked values."""

from fractions import Fraction as F

import checks
import pytest
from charp import Ideal, make_ring, parse_poly
from workloads import POLYS

R = make_ring(5, ["x", "y", "z"])


def ideal(*texts):
    return Ideal(R, [parse_poly(R, t) for t in texts])


@pytest.mark.parametrize("a, b, p, free", [
    (1, 3, 5, True),
    (3, 4, 5, False),  # 3 + 4 = 7 carries in base 5
    (5, 5, 5, True),  # 10 + 10 = 20 digitwise
    (1, 1, 2, False),
    (0, 7, 2, True),
])
def test_carry_free(a, b, p, free):
    assert checks.carry_free(a, b, p) is free


@pytest.mark.parametrize("d, p, e, nu", [
    (3, 2, 1, 0),  # no k > 0 with 3k < 2
    (3, 2, 2, 1),  # k <= 1, and 1 + 1 carries in base 2
    (3, 7, 1, 6),  # 2 + 2 + 2
    (5, 11, 1, 6),
    (5, 11, 2, 72),  # 24 + 24 + 24, digits (2,2) thrice
])
def test_nu_diagonal(d, p, e, nu):
    assert checks.nu_diagonal(d, 3, p, e) == nu


def test_nu_bracket():
    # fpt of the quintic at p = 11 is 3/5, inside (72/121, 73/121]
    assert checks.nu_bracket_problems(F(3, 5), 5, 3, 11) == []
    assert checks.nu_bracket_problems(F(2, 3), 5, 3, 11) != []
    # cubic at p = 2: fpt 1/2 is the top of (1/4, 1/2]
    assert checks.nu_bracket_problems(F(1, 2), 3, 3, 2) == []
    assert checks.nu_bracket_problems(F(1, 4), 3, 3, 2) != []


@pytest.mark.parametrize("name, p, fpt", [
    ("cubic", 2, F(1, 2)),
    ("cubic", 3, F(1, 3)),
    ("cubic", 5, F(4, 5)),
    ("cubic", 7, F(1)),
    ("quintic", 11, F(3, 5)),
    ("quintic", 7, None),
])
def test_known_fpt(name, p, fpt):
    assert checks.known_fpt(name, p) == fpt


def test_fpt_threshold_bound():
    # n / mult_0 = 3/4 for the quartic
    assert checks.fpt_problems(F(3, 4), "nondiag", POLYS["nondiag"], 5) == []
    assert checks.fpt_problems(F(4, 5), "nondiag", POLYS["nondiag"], 5) != []
    assert checks.fpt_problems(F(4, 7), "quintic", POLYS["quintic"], 11) != []


def test_pfrac_form():
    assert checks.has_pfrac_form(F(48, 49), 7, 2, 1)  # 288 / (7^2 * 6)
    assert not checks.has_pfrac_form(F(48, 49), 7, 1, 1)
    assert checks.has_pfrac_form(F(1, 5), 2, 0, 4)  # 3 / (2^4 - 1)
    assert not checks.has_pfrac_form(F(1, 5), 2, 0, 3)


def test_jump_shape():
    assert checks.jump_shape_problems([F(4, 7), F(5, 7), F(48, 49)], 7, 5, 4) == []
    assert checks.jump_shape_problems([F(1, 2), F(1, 2)], 2, 3, 1) != []
    assert checks.jump_shape_problems([F(1)], 2, 3, 1) != []


def test_strictly_inside():
    assert checks.strictly_inside(ideal("x^2", "y"), ideal("x", "y"))
    assert not checks.strictly_inside(ideal("x", "y"), ideal("x", "y"))
    assert not checks.strictly_inside(ideal("x"), ideal("y"))
    assert checks.strictly_inside(ideal("x+y"), ideal("x", "y"))  # via Groebner bases
    assert checks.strictly_inside(ideal("x"), ideal("1"))


def test_is_unit():
    assert checks.is_unit(ideal("3"))
    assert checks.is_unit(ideal("x", "x+1"))
    assert not checks.is_unit(ideal("x", "y"))


def test_hsl_bound_and_hsl_from_jumps():
    assert checks.hsl_bound(3, 5) == 57  # C(8, 3) + 1
    # quintic at p = 7: 48/49 lies in (6/7, 48/49], nothing in (48/49, 342/343]
    assert checks.hsl_from_jumps([F(4, 7), F(5, 7), F(6, 7), F(48, 49)], 7) == 2
    assert checks.hsl_from_jumps([F(5, 7), F(6, 7)], 7) == 1
    assert checks.hsl_from_jumps([], 3) == 1


def row(p, inv, value, status):
    return {"prime": str(p), "invariant": inv, "value": value, "status": status, "wall_ms": "1"}


def test_scan_rows():
    cold = [row(2, "fpt", "1/2", "certified"), row(2, "hsl", "1", "ok"),
            row(3, "fpt", "1/3", "certified"), row(3, "hsl", "1", "ok")]
    warm = [dict(r, wall_ms="0") for r in cold]
    assert checks.scan_row_problems(cold, warm, [2, 3], ("fpt", "hsl")) == []
    assert checks.scan_row_problems(cold[::-1], warm[::-1], [2, 3], ("fpt", "hsl")) != []
    warm[0]["value"] = "1/4"
    assert checks.scan_row_problems(cold, warm, [2, 3], ("fpt", "hsl")) != []
