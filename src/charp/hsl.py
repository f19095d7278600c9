"""Stabilization index of the Frobenius-iteration ideal chain, and the one
walk that iterates every Cartier chain.

Starting from the unit ideal, each step applies I -> (f^(p-1) * I)^[1/p].
This is the Cartier chain of testideal.tau_left at 1: the l-th entry
equals tau(f^(1 - 1/p^l)), so the chain descends to tau_left(f, 1). The
index of the first repeat (at least 1 by convention, also for constant
chains) measures how many Frobenius iterations the hypersurface needs
before its kernel filtration stops moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ChainNotMonotone, CharpError, ZeroPolynomial
from .ring import Polynomial, per_call_memo
from .groebner import Ideal, ideal_equal, ideal_subset, unit_ideal
from .frobenius import mixed_root


@dataclass(frozen=True)
class HslReport:
    chain: tuple  # I_0 = (1) down to the first repeated entry

    @property
    def hsl(self) -> int:
        return max(1, len(self.chain) - 2)

    @property
    def stabilized(self) -> Ideal:
        return self.chain[-1]


def _walk(step, seed: Ideal, steps: int) -> list:
    """[seed, step(seed), ...] up to and including the first repeat.

    step is inclusion-monotone, so once two consecutive entries agree the
    chain is constant forever; its direction (ascending or descending) is
    asserted on the first step. A chain still moving after `steps` steps
    raises CharpError carrying the partial chain as `.chain`.
    """
    chain = [seed]
    for _ in range(steps):
        current, nxt = chain[-1], step(chain[-1])
        chain.append(nxt)
        if ideal_equal(nxt, current):
            return chain
        if len(chain) == 2 and not (
            ideal_subset(seed, nxt) or ideal_subset(nxt, seed)
        ):
            raise ChainNotMonotone(f"chain step is not monotone from seed {seed}")
    err = CharpError(f"chain did not stabilize within its bound of {steps} steps")
    err.chain = tuple(chain)  # partial chain for diagnosis
    raise err


def cartier_step(f: Polynomial, I: Ideal) -> Ideal:
    """(f^(p-1) * I)^[1/p], one level of the Frobenius iteration."""
    return mixed_root(f, f.ring.p - 1, I, 1)


@per_call_memo
def hsl_number(f: Polynomial) -> HslReport:
    """Smallest l >= 1 with chain entry l+1 equal to entry l.

    The chain is walked from (1) for hsl_upper_bound(n, max(1, deg f)) + 1
    steps; a unit f gives the constant chain (1) and hsl = 1. A chain still
    moving there contradicts that bound, an internal error.
    """
    if not f.terms:
        raise ZeroPolynomial("zero polynomial has no Frobenius chain")
    steps = hsl_upper_bound(len(f.ring.vars), max(1, f.total_degree())) + 1
    return HslReport(
        tuple(_walk(lambda J: cartier_step(f, J), unit_ideal(f.ring), steps))
    )


def hsl_upper_bound(n: int, M: int) -> int:
    """C(n + M, n) + 1 bounds the stabilization index for any polynomial of
    degree at most M in n variables: every chain entry is generated in degree
    at most M, and the polynomials of degree at most M span a space of
    dimension C(n + M, n)."""
    if n < 1 or M < 1:
        raise ValueError("need n, M >= 1")
    return comb(n + M, n) + 1
