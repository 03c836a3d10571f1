"""Exact arithmetic for small finite fields F_p, F_{p^k} and the rationals.

Finite-field elements are plain ints in range(q); the interpretation is
carried by the owning field object, which precomputes full operation
tables.  Index encoding for an extension of degree k over F_p: the
element with coordinate tuple (c0, ..., c_{k-1}) w.r.t. the power basis
1, w, ..., w^{k-1} has index c0 + c1*p + ... + c_{k-1}*p^{k-1}.  In
particular 0 -> 0 and 1 -> 1, and `elements()` lists the elements in
increasing index order, a lexicographic coordinate order.

Rational elements are Fraction instances (always in lowest terms with
positive denominator), guarded by a configurable height bound.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import xor

from . import RinggeomError

HEIGHT_BOUND_ENV = "RINGGEOM_Q_HEIGHT_BOUND"
DEFAULT_HEIGHT_BOUND = 10 ** 24

# Fixed defining polynomials (low-to-high coefficients, monic) so that
# every derived table and count is reproducible bit for bit.
DEFAULT_POLYS = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (5, 2): (2, 0, 1),        # x^2 + 2
    (7, 2): (1, 0, 1),        # x^2 + 1
}


class FieldError(RinggeomError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    kind: str                  # "prime" | "extension" | "rationals"
    p: int = 0
    k: int = 1
    poly: tuple = ()           # defining polynomial, low-to-high, monic


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _poly_mod(coeffs, p):
    return tuple(c % p for c in coeffs)


def _poly_divmod(num, den, p):
    """Polynomial division over F_p; coefficients low-to-high."""
    num = list(num)
    dden = len(den) - 1
    while den[-1] == 0:
        den = den[:-1]
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(1, len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i] % p
        if c:
            f = (c * inv_lead) % p
            quot[i - dden] = f
            for j, dc in enumerate(den):
                num[i - dden + j] = (num[i - dden + j] - f * dc) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return tuple(q % p for q in quot), tuple(c % p for c in num)


def _poly_is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    k = len(poly) - 1
    if k < 1 or poly[-1] % p != 1:
        return False
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = tuple(tail) + (1,)
            _, rem = _poly_divmod(poly, den, p)
            if len(rem) == 1 and rem[0] == 0:
                return False
    return True


class FiniteField:
    """F_{p^k} with full add/mul/neg/inv/frobenius tables."""

    is_finite = True

    def __init__(self, spec):
        if spec.kind not in ("prime", "extension"):
            raise FieldError("not a finite field spec: %r" % (spec,))
        p, k = spec.p, spec.k if spec.kind == "extension" else 1
        if not _is_prime(p):
            raise FieldError("characteristic %d is not prime" % p)
        if spec.kind == "extension":
            poly = _poly_mod(spec.poly, p)
            if len(poly) != k + 1 or poly[-1] != 1:
                raise FieldError("defining polynomial must be monic of degree k")
            if not _poly_is_irreducible(poly, p):
                raise FieldError("defining polynomial %r is reducible over F_%d"
                                 % (list(poly), p))
        else:
            poly = (0, 1)
        self.spec = spec
        self.p = p
        self.k = k
        self.q = p ** k
        self.poly = poly
        self.zero = 0
        self.one = 1
        self._build_tables()

    def _coords(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _from_coords(self, cs):
        a = 0
        for c in reversed(cs):
            a = a * self.p + (c % self.p)
        return a

    def _raw_mul(self, a, b):
        # product of coordinate polynomials, reduced mod the defining poly
        ca, cb = self._coords(a), self._coords(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j]
                                            - c * self.poly[j]) % self.p
        return self._from_coords(prod[:self.k])

    def _build_tables(self):
        q, p = self.q, self.p
        self.add_t = [[0] * q for _ in range(q)]
        self.mul_t = [[0] * q for _ in range(q)]
        self.neg_t = [0] * q
        for a in range(q):
            ca = self._coords(a)
            self.neg_t[a] = self._from_coords(tuple((-c) % p for c in ca))
            for b in range(a, q):
                cb = self._coords(b)
                s = self._from_coords(tuple((x + y) % p for x, y in zip(ca, cb)))
                self.add_t[a][b] = s
                self.add_t[b][a] = s
                m = self._raw_mul(a, b)
                self.mul_t[a][b] = m
                self.mul_t[b][a] = m
        self.inv_t = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul_t[a][b] == 1:
                    self.inv_t[a] = b
                    break
            if self.inv_t[a] is None:
                raise FieldError("element %d has no inverse; table corrupt" % a)
        self.frob_t = [self.pow(a, p) for a in range(q)]

    # --- operations -----------------------------------------------------
    def add(self, a, b):
        return self.add_t[a][b]

    def sub(self, a, b):
        return self.add_t[a][self.neg_t[b]]

    def neg(self, a):
        return self.neg_t[a]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_t[a]

    def div(self, a, b):
        return self.mul_t[a][self.inv(b)]

    def pow(self, a, n):
        r = 1
        for _ in range(n):
            r = self.mul_t[r][a]
        return r

    def frobenius(self, a):
        return self.frob_t[a]

    # --- row operations -------------------------------------------------
    # One call per vector, read off the table rows.  In characteristic 2
    # an index is the element's coordinate vector in base 2, so addition
    # is XOR of indices.
    def row_scale(self, c, u):
        """The vector c u."""
        m = self.mul_t[c]
        return tuple([m[a] for a in u])

    def row_add(self, u, v):
        """The vector u + v."""
        if self.p == 2:
            return tuple(map(xor, u, v))
        add = self.add_t
        return tuple([add[a][b] for a, b in zip(u, v)])

    def row_sub_scaled(self, u, c, v):
        """The vector u - c v."""
        m = self.mul_t[self.neg_t[c]]
        if self.p == 2:
            return tuple([a ^ m[b] for a, b in zip(u, v)])
        add = self.add_t
        return tuple([add[a][m[b]] for a, b in zip(u, v)])

    def elements(self):
        return range(self.q)

    def from_int(self, n):
        return n % self.p

    def coords(self, a):
        return self._coords(a)

    def label(self, a):
        if self.k == 1:
            return str(a)
        cs = self._coords(a)
        terms = []
        for i, c in enumerate(cs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(head + ("w" if i == 1 else "w^%d" % i))
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return "F%d" % self.q

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


class RationalField:
    """Exact rationals with a height guard on every result."""

    is_finite = False
    p = 0
    q = None

    def __init__(self, height_bound=None):
        if height_bound is None:
            height_bound = int(os.environ.get(HEIGHT_BOUND_ENV,
                                              DEFAULT_HEIGHT_BOUND))
        self.height_bound = height_bound
        self.spec = FieldSpec("rationals")
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def _guard(self, x):
        if abs(x.numerator) > self.height_bound or x.denominator > self.height_bound:
            raise FieldError("rational height exceeds bound %d" % self.height_bound)
        return x

    def add(self, a, b):
        return self._guard(a + b)

    def sub(self, a, b):
        return self._guard(a - b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return self._guard(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(a.denominator, a.numerator)

    def div(self, a, b):
        return self._guard(a / b)

    def pow(self, a, n):
        r = Fraction(1)
        for _ in range(n):
            r = self.mul(r, a)
        return r

    # --- row operations, each entry under the height guard ---------------
    def row_scale(self, c, u):
        guard = self._guard
        return tuple(guard(c * a) for a in u)

    def row_add(self, u, v):
        guard = self._guard
        return tuple(guard(a + b) for a, b in zip(u, v))

    def row_sub_scaled(self, u, c, v):
        guard = self._guard
        return tuple(guard(a - guard(c * b)) for a, b in zip(u, v))

    def elements(self):
        raise FieldError("cannot enumerate the rationals")

    def from_int(self, n):
        return Fraction(n)

    def label(self, a):
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


def GF(q, poly=None):
    """Convenience constructor: GF(q) for a prime power q."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            k = 0
            n = q
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise FieldError("%d is not a prime power" % q)
            if k == 1:
                return FiniteField(FieldSpec("prime", p))
            if poly is None:
                poly = DEFAULT_POLYS.get((p, k))
                if poly is None:
                    raise FieldError("no default polynomial for F_%d" % q)
            return FiniteField(FieldSpec("extension", p, k, tuple(poly)))
    raise FieldError("%d is not a prime power" % q)


def QQ():
    return RationalField()


def parse_field(name):
    """'F4' -> F_4, 'Q' -> rationals."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ()
    if name.startswith("F"):
        try:
            q = int(name[1:])
        except ValueError:
            raise FieldError("cannot parse field name %r" % name)
        return GF(q)
    raise FieldError("cannot parse field name %r" % name)


def scalar_to_json(field, x):
    return x if field.is_finite else str(x)


def subfield_embedding(sub, big):
    """Embedding F_{p^a} -> F_{p^b} (a | b), as an index map.

    Found by sending a generator of sub to a root of sub's defining
    polynomial in big and extending multiplicatively/additively.
    """
    if sub.p != big.p or big.k % sub.k != 0:
        raise FieldError("no embedding of %r into %r" % (sub, big))
    if sub.k == 1:
        return {a: big.from_int(a) for a in sub.elements()}
    for root in big.elements():
        acc = big.zero
        for i, c in enumerate(sub.poly):
            acc = big.add(acc, big.mul(big.from_int(c), big.pow(root, i)))
        if acc == big.zero:
            emb = {}
            ok = True
            for a in sub.elements():
                cs = sub.coords(a)
                val = big.zero
                for i, c in enumerate(cs):
                    val = big.add(val, big.mul(big.from_int(c), big.pow(root, i)))
                emb[a] = val
            # additive consistency is automatic; check multiplicativity
            for a in list(sub.elements())[:sub.q]:
                for b in list(sub.elements())[:sub.q]:
                    if emb[sub.mul(a, b)] != big.mul(emb[a], emb[b]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return emb
    raise FieldError("embedding search failed for %r into %r" % (sub, big))
