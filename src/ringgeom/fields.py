"""Exact arithmetic for small finite fields F_p, F_{p^k} and the rationals.

Finite-field elements are plain ints in range(q); the interpretation is
carried by the owning field object, which precomputes full operation
tables.  Index encoding for an extension of degree k over F_p: the
element with coordinate tuple (c0, ..., c_{k-1}) w.r.t. the power basis
1, w, ..., w^{k-1} has index c0 + c1*p + ... + c_{k-1}*p^{k-1}.  In
particular 0 -> 0 and 1 -> 1, and `elements()` lists the elements in
increasing index order, a lexicographic coordinate order.

Row operations work on packed rows.  Over F_q a row is the `bytes` of
its entries' storage codes: the index for p = 2 and for prime fields,
and for odd extensions the coordinates as base-(2p - 1) digits, so two
codes add with no carry between digits (each field refuses to be built
unless the sum of two codes fits a byte: p <= 127).  For each scalar the
field holds 256-byte `translate` tables for a -> c a and a -> -c a, and
for odd p one table that reduces a sum of codes; a scalar of a row
operation is a code too.  So u - c v is a fixed number of C-level calls
whatever the length: translate v, read both rows as big-endian ints,
XOR (p = 2) or add and translate back through the reduce table (odd p).
`pack` and `unpack` convert element tuples at the edges.

A packed row is also the key of a point: over F_q a point is the packed
row of its normalized coordinates, and every point set holds these rows.
A storage code increases with the element index, so packed rows of one
length sort as the coordinate tuples do.

Rational elements are Fraction instances (always in lowest terms with
positive denominator), guarded by a configurable height bound; their
rows stay tuples behind the same row operations.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import xor

from . import RinggeomError

_int = int.from_bytes

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


def _translate(pairs):
    """The translate table sending x to y for (x, y) in pairs, else 0."""
    table = bytearray(256)
    for x, y in pairs:
        table[x] = y
    return bytes(table)


@dataclass(frozen=True)
class FieldSpec:
    kind: str                  # "prime" | "extension" | "rationals"
    p: int = 0
    k: int = 1
    poly: tuple = ()           # defining polynomial, low-to-high, monic


def _is_prime(n):
    return n >= 2 and all(n % i for i in range(2, int(n ** 0.5) + 1))


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
            poly = tuple(c % p for c in spec.poly)
            if len(poly) != k + 1 or poly[-1] != 1:
                raise FieldError("defining polynomial must be monic of degree k")
            if not _poly_is_irreducible(poly, p):
                raise FieldError("defining polynomial %r is reducible over F_%d"
                                 % (list(poly), p))
        else:
            poly = (0, 1)
        self.spec, self.p, self.k, self.poly = spec, p, k, poly
        self.q = q = p ** k
        self.zero, self.one = 0, 1
        base = p if p == 2 or k == 1 else 2 * p - 1   # see _build_rows
        top = (p - 1) * (base ** k - 1) // (base - 1)  # the largest code
        if top * (1 if p == 2 else 2) > 255:
            raise FieldError("F_%d does not fit byte rows: two storage "
                             "codes must sum below 256, so p <= 127" % q)
        self._build_tables()
        self._build_rows(base)

    def coords(self, a):
        return tuple(a // self.p ** j % self.p for j in range(self.k))

    def _from_coords(self, cs):
        return sum(c % self.p * self.p ** j for j, c in enumerate(cs))

    def _raw_mul(self, a, b):
        # product of coordinate polynomials, reduced mod the defining poly
        ca, cb = self.coords(a), self.coords(b)
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
        q, coords = self.q, [self.coords(a) for a in range(self.q)]
        self.neg_t = [self._from_coords([-c for c in ca]) for ca in coords]
        self.add_t = [[self._from_coords([x + y for x, y in zip(ca, cb)])
                       for cb in coords] for ca in coords]
        self.mul_t = [[self._raw_mul(a, b) for b in range(q)]
                      for a in range(q)]
        self.inv_t = [None] + [row.index(1) if 1 in row else None
                               for row in self.mul_t[1:]]
        if None in self.inv_t[1:]:
            raise FieldError("element %d has no inverse; table corrupt"
                             % self.inv_t.index(None, 1))
        self.frob_t = [self.pow(a, self.p) for a in range(q)]

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

    # --- packed rows (see the module docstring) ---------------------------
    def _build_rows(self, base):
        """Storage codes in base `base` and their tables (module doc)."""
        p, k, q = self.p, self.k, self.q
        code = self._code = [sum(c * base ** j for j, c in enumerate(
            self.coords(a))) for a in range(q)]
        self._enc = base != p and _translate(enumerate(code))
        self._dec = base != p and _translate(zip(code, range(q)))
        scale = [_translate(zip(code, [code[b] for b in row]))
                 for row in self.mul_t]
        self._scale = dict(zip(code, scale))
        self._negscale = dict(zip(code, [scale[b] for b in self.neg_t]))
        self._unit = dict(zip(code, [scale[c and self.inv_t[c]]
                                     for c in range(q)]))
        if p != 2:   # the codes to which sums of `_batch` codes reduce
            self._batch = 255 // (p - 1) if k == 1 else 2
            self._reduce = _translate(((s, s % p) for s in range(256))
                                      if k == 1 else
                                      ((code[a] + code[b], code[s])
                                       for a, row in enumerate(self.add_t)
                                       for b, s in enumerate(row)))

    def pack(self, u):
        """The packed row of the vector u of element indices."""
        return bytes(u).translate(self._enc) if self._enc else bytes(u)

    def unpack(self, b):
        """The vector of element indices of the packed row b."""
        return tuple(b.translate(self._dec) if self._dec else b)

    def row_scale(self, c, u):
        """The row c u."""
        return u.translate(self._scale[c])

    def row_sub_scaled(self, u, c, v):
        """The row u - c v."""
        n, w = len(u), _int(v.translate(self._negscale[c]), "big")
        if self.p == 2:
            return (_int(u, "big") ^ w).to_bytes(n, "big")
        return (_int(u, "big") + w).to_bytes(n, "big").translate(self._reduce)

    def row_normalize(self, u):
        """u scaled so that its first nonzero entry is 1; empty if u = 0."""
        lead = u.lstrip(b"\0")
        return lead and u.translate(self._unit[lead[0]])

    def row_multiple(self, c, u):
        """c u for the element index c, as the int of its row: the form in
        which `row_combinations` and `row_sum` add it."""
        return _int(u.translate(self._scale[self._code[c]]), "big")

    def row_combinations(self, u, mults):
        """The rows u + m_1 + ... + m_j for every choice of each m_i in
        mults[i] (`row_multiple`s), the last choice varying fastest: one
        XOR (p = 2) or add (odd p) per row and level, on ints, with the
        reduce table read whenever another add could overflow a byte."""
        n, level = len(u), [_int(u, "big")]
        if self.p == 2:
            for ms in mults:
                level = [x ^ m for x in level for m in ms]
            return [x.to_bytes(n, "big") for x in level]
        red, step = self._reduce, self._batch - 1
        for i, ms in enumerate(mults):
            if i and i % step == 0:   # the level sums 1 + step codes
                level = [_int(x.to_bytes(n, "big").translate(red), "big")
                         for x in level]
            level = [x + m for x in level for m in ms]
        return [x.to_bytes(n, "big").translate(red) for x in level]

    def row_sum(self, rows, n):
        """The row of n entries summing the given rows, read as ints."""
        if self.p == 2:
            return reduce(xor, rows, 0).to_bytes(n, "big")
        out, rows, step = bytes(n), list(rows), self._batch - 1
        for i in range(0, len(rows), step):
            out = (_int(out, "big") + sum(rows[i:i + step])).to_bytes(
                n, "big").translate(self._reduce)
        return out

    def elements(self):
        return range(self.q)

    def from_int(self, n):
        return n % self.p

    def label(self, a):
        if self.k == 1:
            return str(a)
        cs = self.coords(a)
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

    # --- rows: tuples, each entry under the height guard -----------------
    pack = unpack = staticmethod(tuple)

    def row_scale(self, c, u):
        guard = self._guard
        return tuple(guard(c * a) for a in u)

    def row_add(self, u, v):
        guard = self._guard
        return tuple(guard(a + b) for a, b in zip(u, v))

    def row_sub_scaled(self, u, c, v):
        guard = self._guard
        return tuple(guard(a - guard(c * b)) if b else a
                     for a, b in zip(u, v))

    def row_normalize(self, u):
        a = next((a for a in u if a), None)
        return u if a is None or a == 1 else self.row_scale(self.inv(a), u)

    row_multiple = row_scale

    def row_sum(self, rows, n):
        return reduce(self.row_add, rows, (self.zero,) * n)

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
            k = next(k for k in itertools.count(1) if p ** k >= q)
            if p ** k != q:
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
