"""Ideals over F_p[x1..xn] with canonical reduced Groebner bases.

The reduced Groebner basis under the ring's monomial order is unique, so it
serves as the ideal's identity: equality, membership, and containment all
reduce to it, and its term tuples give a hashable fingerprint for caches.

Conventions: the zero ideal has canonical basis []; the unit ideal has
canonical basis [1]. Monomial ideals (every generator a single term) skip
Buchberger entirely: divisibility minimalization of the generators already
IS the reduced basis. monomial_ideal builds one straight from exponent
tuples, in canonical form, so callers never form Polynomials for monomials
that minimalization drops. Minimalization indexes the kept exponents by
each entry, so each test scans only those that can divide.

Everything else goes through Buchberger's algorithm with the normal
selection strategy (smallest lcm of the pair's leads first). Pairs wait in a
heap, keyed once when they are created, and the criteria of Gebauer and
Moeller ("On an installation of Buchberger's algorithm", J. Symb. Comp.
1988) drop the pairs whose S-polynomials other pairs already account for.
Neither choice can show in a result: they decide only which raw basis is
found, and its reduction is the unique reduced basis.

Inputs and S-polynomials join the basis by one rule: reduce by the active
basis, drop a zero remainder, add the rest monic. A joining lead is then
divisible by no active lead, and the elements whose leads it divides leave
the active set, so the active leads always form an antichain. The raw
basis is therefore minimal, and reducing it needs only inter-reduction.
"""

from __future__ import annotations

import heapq
from operator import le

from .errors import RingMismatch
from .ring import Polynomial, RingContext


def _divides(a, b):
    """True iff the monomial x^a divides x^b."""
    return all(map(le, a, b))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of multivariate division of f by the listed divisors.

    No monomial of the result is divisible by any divisor's lead monomial.
    Divisors are tried in listed order, which makes the result deterministic
    for an arbitrary list; for a Groebner basis the remainder is canonical
    regardless of order.
    """
    ring = f.ring
    p = ring.p
    for g in basis:
        if g.ring != ring:
            raise RingMismatch("divisor from a different ring")
    leads = [(g.lead_monomial(), pow(g.lead_coeff(), -1, p), g) for g in basis]
    remainder = {}
    work = f
    while work.terms:
        e, c = work.terms[0]
        for lm, inv, g in leads:
            if _divides(lm, e):
                shift = tuple(a - b for a, b in zip(e, lm))
                work = work - g.mul_term(shift, c * inv)
                break
        else:
            remainder[e] = c
            work = Polynomial(ring, work.terms[1:])
    return ring.from_dict(remainder)


def _monomial_minimalize(ring, exponents):
    """Minimal generators of the monomial ideal spanned by the exponents.

    Exponents are visited by ascending total degree, so every proper
    divisor of e is decided before e. The kept ones are indexed by entry:
    buckets[i][v] lists those whose entry i is v. A divisor of e has entry
    i at most e[i], so e is tested only against the buckets v <= e[i] of
    the position i where e is smallest.
    """
    uniq = sorted(set(exponents), key=sum)
    buckets = [{} for _ in range(ring.nvars)]
    kept = []
    for e in uniq:
        low = min(e)
        column = buckets[e.index(low)]
        for v in range(low + 1):
            for k in column.get(v, ()):
                if all(map(le, k, e)):
                    break
            else:
                continue
            break  # a kept exponent divides e
        else:
            kept.append(e)
            for bucket, v in zip(buckets, e):
                bucket.setdefault(v, []).append(e)
    kept.sort(key=ring.desc_key)
    return kept


def monomial_ideal(ring, exponents) -> Ideal:
    """The ideal of the monomials x^e for e in exponents, canonical.

    Its minimal generators by divisibility already are its reduced basis.
    """
    basis = [ring.monomial(e) for e in _monomial_minimalize(ring, exponents)]
    out = Ideal(ring, basis)
    out._canon = out.gens
    return out


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _spoly(f, g):
    lmf, lmg = f.lead_monomial(), g.lead_monomial()
    lcm = _lcm(lmf, lmg)
    p = f.ring.p
    sf = f.mul_term(
        tuple(a - b for a, b in zip(lcm, lmf)), pow(f.lead_coeff(), -1, p)
    )
    sg = g.mul_term(
        tuple(a - b for a, b in zip(lcm, lmg)), pow(g.lead_coeff(), -1, p)
    )
    return sf - sg


def _buchberger_raw(ring, gens):
    """A Groebner basis of the ideal generated by gens (not yet reduced).

    Pairs wait in a heap keyed (sort_key(lcm), i, j), computed once when the
    pair is made: the normal selection strategy, smallest lcm first, with
    index ties broken deterministically. An input joins exactly as an
    S-polynomial does: its normal form by the active basis is dropped if
    zero, and otherwise made monic and added. So no active lead divides a
    joining lead, and the active leads stay an antichain. Each element h
    added passes through the Gebauer-Moeller update:

      * criterion B drops a queued pair (i, j) when lead(h) divides its lcm
        and lcm(i, h), lcm(j, h) both differ from it;
      * criterion M drops a new pair (h, m) whose lcm is a proper multiple
        of another new pair's lcm, and criterion F keeps only one new pair
        of each lcm;
      * the product criterion then drops the new pairs with coprime leads
        (only after M and F, where they may cover other pairs);
      * elements whose lead is a multiple of lead(h) leave the active set:
        they make no more pairs and no longer serve as reducers, though
        their queued pairs are still reduced.

    Dropped pairs are deleted lazily: `live` holds the pending pairs, and a
    popped heap entry that is no longer in it is skipped. The criteria skip
    only S-polynomials that would reduce to zero against the final basis,
    and the queue only orders the rest, so both change the raw basis but
    not its reduction, which is unique: reduced_groebner_basis returns the
    same basis, byte for byte, as with every pair reduced.
    """
    basis, leads = [], []  # every element ever added, its lead monomial
    active = []  # indices of elements still generating pairs
    live = {}  # pending pair (i, j), i > j -> lcm of their leads
    queue = []  # heap of (sort_key(lcm), i, j), possibly with stale entries

    def add(f):
        h = normal_form(f, [basis[m] for m in active])
        if not h.terms:
            return
        h = h.monic()
        k = len(basis)
        lh = h.lead_monomial()
        basis.append(h)
        leads.append(lh)
        for (i, j), lcm in list(live.items()):
            if (
                _divides(lh, lcm)
                and _lcm(leads[i], lh) != lcm
                and _lcm(leads[j], lh) != lcm
            ):
                del live[(i, j)]  # criterion B
        # criteria M and F: a new pair survives unless a later candidate
        # or an already kept one has an lcm dividing its own
        fresh = [(_lcm(leads[m], lh), m) for m in active]
        kept = []
        for idx, (lcm, m) in enumerate(fresh):
            coprime = all(a == 0 or b == 0 for a, b in zip(leads[m], lh))
            rivals = fresh[idx + 1 :] + kept
            if coprime or not any(_divides(r[0], lcm) for r in rivals):
                kept.append((lcm, m, coprime))
        for lcm, m, coprime in kept:
            if not coprime:  # product criterion
                live[(k, m)] = lcm
                heapq.heappush(queue, (ring.sort_key(lcm), k, m))
        active[:] = [m for m in active if not _divides(lh, leads[m])] + [k]

    for g in gens:
        add(g)
    while queue:
        _, i, j = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue  # dropped by criterion B after it was queued
        add(_spoly(basis[i], basis[j]))
    return [basis[m] for m in active]


def _reduce_basis(ring, basis):
    # The leads of a raw basis form an antichain, so no element is redundant
    # and no pass drops any: each is only reduced by the others. Its lead
    # survives, and its tail becomes the unique standard remainder.
    reduced = [
        normal_form(g, basis[:idx] + basis[idx + 1 :]).monic()
        for idx, g in enumerate(basis)
    ]
    reduced.sort(key=lambda g: ring.desc_key(g.lead_monomial()))
    return reduced


def reduced_groebner_basis(ring, gens):
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    if any(g.is_unit() for g in gens):
        return [ring.one()]
    if all(len(g.terms) == 1 for g in gens):
        return list(monomial_ideal(ring, [g.lead_monomial() for g in gens]).gens)
    return _reduce_basis(ring, _buchberger_raw(ring, gens))


class Ideal:
    """Finitely generated ideal; the reduced basis is computed on demand
    and cached (compute-then-publish, safe to race)."""

    __slots__ = ("ring", "gens", "_canon")

    def __init__(self, ring: RingContext, gens):
        gens = tuple(g for g in gens if g.terms)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator from a different ring")
        self.ring = ring
        self.gens = gens
        self._canon = None

    def canon(self):
        if self._canon is None:
            self._canon = tuple(reduced_groebner_basis(self.ring, self.gens))
        return self._canon

    def is_unit(self):
        if self._canon is None and any(g.is_unit() for g in self.gens):
            return True
        return self.canon() == (self.ring.one(),)

    def is_zero(self):
        return not self.gens

    def fingerprint(self):
        return tuple(g.terms for g in self.canon())

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return ideal_equal(self, other)

    def __hash__(self):
        return hash((self.ring, self.fingerprint()))

    def __str__(self):
        polys = self.canon()
        if not polys:
            return "(0)"
        return "(" + ", ".join(str(g) for g in polys) + ")"

    def __repr__(self):
        return f"Ideal{self}"


def canonical_ideal(I: Ideal) -> Ideal:
    """Same ideal, regenerated by its reduced basis (and caching it)."""
    out = Ideal(I.ring, I.canon())
    out._canon = I._canon
    return out


def unit_ideal(ring):
    return Ideal(ring, [ring.one()])


def buchberger(I: Ideal):
    """The unique reduced Groebner basis of I, as a list."""
    return list(I.canon())


def ideal_contains(I: Ideal, f: Polynomial) -> bool:
    """True iff f lies in I.

    A monomial ideal is spanned by the monomials it contains, so it holds f
    iff one of its generators divides each term of f: no division needed.
    """
    if f.ring != I.ring:
        raise RingMismatch("polynomial from a different ring")
    if not f.terms:
        return True
    canon = I.canon()
    if not canon:
        return False
    if all(len(g.terms) == 1 for g in canon):
        leads = [g.terms[0][0] for g in canon]
        return all(any(_divides(u, v) for u in leads) for v, _ in f.terms)
    return not normal_form(f, canon).terms


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I is J:
        return True
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    return I.canon() == J.canon()


def ideal_subset(I: Ideal, J: Ideal) -> bool:
    """True iff I is contained in J."""
    return all(ideal_contains(J, g) for g in I.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    return Ideal(I.ring, [g * h for g in I.gens for h in J.gens])


def scale_ideal(f: Polynomial, I: Ideal) -> Ideal:
    if f.ring != I.ring:
        raise RingMismatch("polynomial from a different ring")
    return Ideal(I.ring, [f * g for g in I.gens])
