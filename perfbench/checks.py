"""Output checks that take no reference value from charp.

Every check returns a list of problems (empty when the output passes). The
reference values come from the literature or from first principles:

* nu(e), the largest N such that f^N has a term with every exponent below
  p^e, brackets the F-pure threshold: nu(e)/p^e < fpt <= (nu(e)+1)/p^e. For
  a diagonal form sum x_i^d the terms of f^N are multinomial coefficients,
  and Lucas' theorem makes a coefficient nonzero mod p exactly when adding
  the exponents k_i in base p carries nowhere.
* Known thresholds: the Fermat cubic (Bhatt-Singh, Math. Ann. 2015) and the
  quintic at p = 11 (Hernandez, Proc. AMS 2015).
* fpt <= n / mult_0(f) for every p.
* Jumps ascend strictly inside (0, 1), each of the form r/(p^a (p^s - 1)),
  and each certificate's test ideal lies strictly inside its left limit.
* hsl <= C(n + d, n) + 1, and hsl is the least l >= 1 with no jump in
  (1 - p^-l, 1 - p^-(l+1)].
"""

from fractions import Fraction
from math import comb


def carry_free(a, b, p):
    """True iff adding a and b in base p carries nowhere."""
    while a and b:
        if a % p + b % p >= p:
            return False
        a //= p
        b //= p
    return True


def nu_diagonal(d, n, p, e):
    """nu(e) of x_1^d + ... + x_n^d: the largest sum k_1 + ... + k_n with
    every d*k_i < p^e and no carry when the k_i are added in base p."""
    k_max = (p**e - 1) // d
    sums = set(range(k_max + 1))
    for _ in range(n - 1):
        sums = {s + k for s in sums for k in range(k_max + 1) if carry_free(s, k, p)}
    return max(sums)


def nu_bracket_problems(fpt_value, d, n, p, es=(1, 2)):
    problems = []
    for e in es:
        nu = nu_diagonal(d, n, p, e)
        lo, hi = Fraction(nu, p**e), Fraction(nu + 1, p**e)
        if not lo < fpt_value <= hi:
            problems.append(f"fpt {fpt_value} outside nu bracket ({lo}, {hi}] at e={e}")
    return problems


def known_fpt(name, p):
    """Thresholds proven independently of this program, or None."""
    if name == "cubic":
        if p == 3:
            return Fraction(1, 3)
        return Fraction(1) if p % 3 == 1 else 1 - Fraction(1, p)
    if name == "quintic" and p == 11:
        return Fraction(3, 5)
    return None


def multiplicity(terms):
    return min(sum(exps) for exps in terms)


def fpt_problems(fpt_value, name, terms, p):
    problems = []
    bound = Fraction(len(next(iter(terms))), multiplicity(terms))
    if fpt_value > bound:
        problems.append(f"fpt {fpt_value} above n/mult = {bound}")
    known = known_fpt(name, p)
    if known is not None and fpt_value != known:
        problems.append(f"fpt {fpt_value} != known threshold {known}")
    return problems


def has_pfrac_form(value, p, a_max, s_max):
    """True iff value = r/(p^a (p^s - 1)) for some a <= a_max, 1 <= s <= s_max."""
    return any(
        (value * p**a * (p**s - 1)).denominator == 1
        for a in range(a_max + 1)
        for s in range(1, s_max + 1)
    )


def jump_shape_problems(values, p, a_max, s_max):
    problems = []
    for lo, hi in zip(values, values[1:]):
        if not lo < hi:
            problems.append(f"jumps not strictly ascending at {lo}, {hi}")
    for v in values:
        if not 0 < v < 1:
            problems.append(f"jump {v} outside (0, 1)")
        if not has_pfrac_form(v, p, a_max, s_max):
            problems.append(f"jump {v} not of the form r/(p^a(p^s-1))")
    return problems


def _monomial_exponents(ideal):
    gens = ideal.gens
    if all(len(g.terms) == 1 for g in gens):
        return [g.terms[0][0] for g in gens]
    return None


def _monomial_subset(small, big):
    return all(any(all(a >= b for a, b in zip(s, g)) for g in big) for s in small)


def strictly_inside(inner, outer):
    """inner is a proper subset of outer. Monomial ideals are compared by
    divisibility here; other ideals fall back to charp's Groebner bases."""
    a, b = _monomial_exponents(inner), _monomial_exponents(outer)
    if a is not None and b is not None:
        return _monomial_subset(a, b) and not _monomial_subset(b, a)
    from charp.groebner import ideal_subset

    return ideal_subset(inner, outer) and not ideal_subset(outer, inner)


def is_unit(ideal):
    if any(not any(g.terms[0][0]) for g in ideal.gens):
        return True  # a nonzero constant generator
    return ideal.is_unit()


def hsl_bound(n, d):
    return comb(n + d, n) + 1


def hsl_from_jumps(values, p):
    """Least l >= 1 with no jump in (1 - p^-l, 1 - p^-(l+1)]."""
    l = 1
    while any(1 - Fraction(1, p**l) < v <= 1 - Fraction(1, p ** (l + 1)) for v in values):
        l += 1
    return l


def scan_row_problems(cold, warm, primes, reports):
    """Cold rows come one per (prime, invariant) in ascending prime order,
    and the warm rerun repeats them apart from wall_ms."""
    problems = []
    expected = [(str(q), name) for q in primes for name in reports]
    if [(r["prime"], r["invariant"]) for r in cold] != expected:
        problems.append("cold rows not one per (prime, invariant) in prime order")

    def key(row):
        return row["prime"], row["invariant"], row["value"], row["status"]

    if [key(r) for r in warm] != [key(r) for r in cold]:
        problems.append("warm rows differ from cold rows")
    return problems
