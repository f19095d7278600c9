"""Exact sparse multivariate polynomial arithmetic over F_p.

A monomial is an exponent tuple (one non-negative integer per ring
variable). A Polynomial stores its terms as a tuple of (exponents, coeff)
pairs with coefficients in [1, p-1], sorted strictly descending in the
ring's monomial order, so two polynomials are equal iff their term tuples
are identical. The zero polynomial is the empty term tuple.

All values behave as immutable; every operation is a pure function, and a
Polynomial is its ring and terms alone. Memoized work lives in a memo
scope: the outermost call of a function decorated with per_call_memo opens
one, every call nested in it shares it, and it is dropped when that call
returns, so charp keeps no state between calls. call_memo(kind, f) is the
table of one kind of memo for the value f, so equal polynomials share a
table. Outside any scope it is a throwaway table.

The largest tables are the digit powers f^0, ..., f^(p-1) that
frobenius.mixed_root keeps, split by residue class mod p and held as
exponent columns (one tuple per variable): each f^r has at most
C(n + r*deg f, n) terms in n variables. For x^4+x*y^3+y^2*z^2+z^5 that is
7,315 terms (0.3 MiB) at p = 19, but 230,300 terms (7.2 MiB) at p = 47,
built in 0.3-0.5 s (tracemalloc for the size; medians of five in-process
builds in each of four batches, time.process_time, 2-vCPU x86-64
container, Python 3.11).

Exponents and coefficients are arbitrary-precision ints throughout:
Frobenius powers multiply exponents by p^e, which overflows any fixed width
during scans.
"""

from __future__ import annotations

import functools
import re
from contextvars import ContextVar
from itertools import repeat
from operator import add, mul, neg

from .errors import (
    BadVariableName,
    DuplicateVariable,
    EmptyVariableList,
    NotPrime,
    PolySyntaxError,
    RingMismatch,
    UnknownVariable,
)

_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Witnesses proving Miller-Rabin deterministic for n < 3.3 * 10^24, far
# beyond the p^e <= 2^40 resource guard.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RingContext:
    """The ambient ring F_p[x1..xn] with a fixed monomial order."""

    __slots__ = ("p", "vars", "order", "_index")

    def __init__(self, p, vars, order="grevlex"):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        vars = tuple(vars)
        if not vars:
            raise EmptyVariableList("need at least one variable")
        if len(set(vars)) != len(vars):
            raise DuplicateVariable(f"duplicate variable in {vars}")
        for name in vars:
            if not _VAR_RE.match(name):
                raise BadVariableName(f"bad variable name {name!r}")
        if order not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {order!r}")
        self.p = p
        self.vars = vars
        self.order = order
        self._index = {name: i for i, name in enumerate(vars)}

    @property
    def nvars(self):
        return len(self.vars)

    def sort_key(self, exponents):
        """Key under which larger monomials compare larger."""
        if self.order == "lex":
            return exponents
        # grevlex: first by total degree, ties broken by the reversed
        # exponent vector compared with reversed sign.
        return (sum(exponents), tuple(-e for e in reversed(exponents)))

    def desc_key(self, exponents):
        """Key under which larger monomials compare smaller.

        An ascending sort by it is the descending order of sort_key, and is
        cheaper: it builds no generator.
        """
        if self.order == "lex":
            return tuple(map(neg, exponents))
        return (-sum(exponents), exponents[::-1])

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.const(1)

    def const(self, c):
        c %= self.p
        if c == 0:
            return Polynomial(self, ())
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name):
        e = [0] * self.nvars
        e[self._index[name]] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def monomial(self, exponents, coeff=1):
        coeff %= self.p
        if coeff == 0:
            return Polynomial(self, ())
        return Polynomial(self, ((tuple(exponents), coeff),))

    def from_dict(self, d):
        p = self.p
        terms = (
            (e, c) for e in sorted(d, key=self.desc_key) if (c := d[e] % p)
        )
        return Polynomial(self, tuple(terms))

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and self.p == other.p
            and self.vars == other.vars
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.p, self.vars, self.order))

    def __reduce__(self):
        # a slotted class without __getstate__ cannot be pickled with
        # protocols 0 and 1
        return (RingContext, (self.p, self.vars, self.order))

    def __repr__(self):
        return f"RingContext(p={self.p}, vars={list(self.vars)}, order={self.order!r})"


def make_ring(p, vars, order="grevlex"):
    return RingContext(p, vars, order)


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring!r} vs {b.ring!r}")


def _columns(exponents, nvars):
    """Exponent tuples as columns: one tuple per variable, whose i-th entry
    is that variable's exponent in the i-th tuple."""
    return tuple(zip(*exponents)) or ((),) * nvars


def _product_terms(columns, coeffs, terms):
    """The product of a polynomial held as exponent columns (see _columns)
    and coefficients, and the term sequence `terms`, as {exponents: coeff}.

    Each term c * x^u of `terms` shifts every exponent of the columns at
    once, a whole column at a time; only the merge into the dict runs once
    per term of the product. The shifts of one term are distinct, so the
    first merges with no lookup. Pass the longer factor as columns. The
    coefficients are not yet reduced mod p, and those that cancel are still
    there: Polynomial.__mul__ passes the result to from_dict, and frobenius
    splits it by residue class.
    """
    out = {}
    get = out.get
    for u, c in terms:
        shifted = zip(
            *[map(add, col, repeat(k)) if k else col for col, k in zip(columns, u)]
        )
        if out:
            for w, d in zip(shifted, coeffs):
                out[w] = get(w, 0) + c * d
        else:
            out.update(zip(shifted, map(mul, coeffs, repeat(c))))
    return out


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __reduce__(self):
        # a slotted class without __getstate__ cannot be pickled with
        # protocols 0 and 1
        return (Polynomial, (self.ring, self.terms))

    def is_unit(self):
        # nonzero constant
        return bool(self.terms) and not any(self.terms[0][0])

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def lead_monomial(self):
        return self.terms[0][0]

    def lead_coeff(self):
        return self.terms[0][1]

    def monic(self):
        c = self.terms[0][1]
        if c == 1:
            return self
        inv = pow(c, -1, self.ring.p)
        return self.ring.from_dict({e: d * inv for e, d in self.terms})

    def __add__(self, other):
        _check_same_ring(self, other)
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return self.ring.from_dict(out)

    def __neg__(self):
        return self.ring.from_dict({e: -c for e, c in self.terms})

    def __sub__(self, other):
        _check_same_ring(self, other)
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) - c
        return self.ring.from_dict(out)

    def __mul__(self, other):
        _check_same_ring(self, other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        short, long = sorted((self.terms, other.terms), key=len)
        exponents, coeffs = zip(*long)
        columns = _columns(exponents, self.ring.nvars)
        # from_dict reduces mod p and drops the coefficients that cancel
        return self.ring.from_dict(_product_terms(columns, coeffs, short))

    def mul_term(self, exponents, coeff):
        """Multiply by the single term coeff * x^exponents."""
        p = self.ring.p
        coeff %= p
        if coeff == 0 or not self.terms:
            return self.ring.zero()
        terms = tuple(
            (tuple(map(add, e, exponents)), c * coeff % p) for e, c in self.terms
        )
        # a single-term scale preserves the descending order
        return Polynomial(self.ring, tuple(t for t in terms if t[1]))

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for name, k in zip(self.ring.vars, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"


def poly_pow(a: Polynomial, m: int) -> Polynomial:
    return a**m


def frob_power(f: Polynomial, e: int) -> Polynomial:
    """f^(p^e), computed by scaling exponents: coefficients in F_p are
    fixed by Frobenius, so (sum c_i x^v_i)^(p^e) = sum c_i x^(p^e v_i)."""
    q = f.ring.p**e
    terms = tuple((tuple(x * q for x in v), c) for v, c in f.terms)
    # scaling by q preserves both orders
    return Polynomial(f.ring, terms)


# the memo scope of the running outermost call: tables keyed by (kind, f),
# or None while no call runs in this context
_SCOPE = ContextVar("charp_memo_scope", default=None)


def call_memo(kind, f):
    """The table of memo `kind` for the value f in the open scope; a
    throwaway table when no scope is open."""
    scope = _SCOPE.get()
    if scope is None:
        return {}
    return scope.setdefault((kind, f), {})


def per_call_memo(fn):
    """Run fn in a memo scope that lasts its outermost call.

    Only the outermost decorated call opens a scope; the calls nested in it
    share that scope, and it is dropped when the outermost call returns.
    """

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _SCOPE.get() is not None:
            return fn(*args, **kwargs)
        token = _SCOPE.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _SCOPE.reset(token)

    return call


def pow_base_p(f: Polynomial, m: int) -> Polynomial:
    """f^m via the base-p digits of m: f^m = prod_j (f^(d_j))^(p^j).

    The powers f^d for the digits d < p come from one ascending run of
    products by f, which costs less than squaring once the powers are dense:
    f^46 of x^4+x*y^3+y^2*z^2+z^5 at p = 47 takes 0.4-0.8 s this way and
    2.2-2.8 s by squaring (medians of three in-process runs in each of four
    batches, time.process_time, 2-vCPU x86-64 container, Python 3.11). The
    Frobenius power then scales their exponents with no further product.
    """
    if m < 0:
        raise ValueError("negative power")
    p = f.ring.p
    digits = []
    while m:
        m, d = divmod(m, p)
        digits.append(d)
    powers, power = {}, f.ring.one()
    for k in range(max(digits, default=0) + 1):
        if k:
            power = power * f
        if k in digits:
            powers[k] = power
    result = f.ring.one()
    for j, d in enumerate(digits):
        if d:
            result = result * frob_power(powers[d], j)
    return result


class _Parser:
    """Recursive descent for:
    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := (integer | var | '(' expr ')') ('^' nonneg-integer)*

    Powers go through pow_base_p: its factors f^d (d < p) are raised to
    p^j by scaling exponents, so no dense power of the base is squared.
    """

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.pos = 0

    def error(self, message):
        raise PolySyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        f = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return f

    def expr(self):
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        f = self.term()
        if negate:
            f = -f
        while True:
            op = self.peek()
            if op == "+":
                self.pos += 1
                f = f + self.term()
            elif op == "-":
                self.pos += 1
                f = f - self.term()
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                f = f * self.factor()
            elif ch == "(" or ch.isdigit() or ch.isalpha() or ch == "_":
                f = f * self.factor()
            else:
                return f

    def factor(self):
        f = self.primary()
        while self.peek() == "^":
            self.pos += 1
            f = pow_base_p(f, self.integer())
        return f

    def primary(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            f = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return f
        if ch.isdigit():
            return self.ring.const(self.integer())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.ring._index:
                self.pos = start
                raise UnknownVariable(f"unknown variable {name!r}", start)
            return self.ring.var(name)
        self.error("expected integer, variable, or '('")

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return int(self.text[start : self.pos])


def parse_poly(ctx: RingContext, text: str) -> Polynomial:
    return _Parser(ctx, text).parse()
