"""Stabilization index of the Frobenius-iteration ideal chain.

Starting from the unit ideal, each step applies I -> (f^(p-1) * I)^[1/p].
The l-th chain entry equals tau(f^(1 - 1/p^l)), so the chain descends and
stabilizes; the index of the first repeat (at least 1 by convention, also
for constant chains) measures how many Frobenius iterations the hypersurface
needs before its kernel filtration stops moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CharpError, ZeroPolynomial
from .ring import Polynomial, per_call_digit_powers
from .groebner import Ideal, ideal_equal, unit_ideal
from .frobenius import mixed_root


@dataclass(frozen=True)
class HslReport:
    hsl: int
    chain: tuple  # I_0 = (1) down to the first repeated entry
    stabilized: Ideal


@per_call_digit_powers
def cartier_step(f: Polynomial, I: Ideal) -> Ideal:
    """(f^(p-1) * I)^[1/p], one level of the Frobenius iteration."""
    return mixed_root(f, f.ring.p - 1, I, 1)


@per_call_digit_powers
def hsl_number(f: Polynomial) -> HslReport:
    """Smallest l >= 1 with chain entry l+1 equal to entry l.

    One-step equality is a rigorous stop: the step operator is monotone and
    the chain descends. A unit polynomial yields the constant chain (1) and
    hsl = 1 by convention. The chain is followed up to hsl_upper_bound(n,
    deg f) steps; a chain still moving there contradicts that bound, so it
    is an internal error, raised with the partial chain as `.chain`.
    """
    if not f.terms:
        raise ZeroPolynomial("zero polynomial has no Frobenius chain")
    chain = [unit_ideal(f.ring)]
    if f.is_unit():
        chain.append(unit_ideal(f.ring))
        return HslReport(hsl=1, chain=tuple(chain), stabilized=chain[-1])
    bound = hsl_upper_bound(len(f.ring.vars), f.total_degree())
    for _ in range(bound + 1):
        nxt = cartier_step(f, chain[-1])
        chain.append(nxt)
        if ideal_equal(nxt, chain[-2]):
            return HslReport(
                hsl=max(1, len(chain) - 2),
                chain=tuple(chain),
                stabilized=nxt,
            )
    err = CharpError(
        f"chain did not stabilize within its bound C(n+deg f, n)+1 = {bound}"
    )
    err.chain = tuple(chain)  # partial chain for diagnosis
    raise err


def hsl_upper_bound(n: int, M: int) -> int:
    """C(n + M, n) + 1 bounds the stabilization index for any polynomial of
    degree at most M in n variables: every chain entry is generated in degree
    at most M, and the polynomials of degree at most M span a space of
    dimension C(n + M, n)."""
    if n < 1 or M < 1:
        raise ValueError("need n, M >= 1")
    return comb(n + M, n) + 1
