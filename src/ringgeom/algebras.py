"""Quadratic alternative K-algebras as structure-constant tables.

An algebra is a table c[i][j] of coordinate vectors giving the basis
products e_i * e_j, with e_0 always the unit.  The doubling process and
the truncated twisted-series construction are constructive transforms on
these tables, so algebra equality is table comparison.

Elements are coordinate tuples over the base field (ints for finite
fields, Fractions over Q), and the operations of `Algebra` on them are
the reference.  A finite algebra of at most TABLE_BOUND elements also
carries its element tables (`Algebra.tables`, an `ElementTables`): each
element is numbered by its rank in `Algebra.elements()`, and sums,
products, conjugates, norms and inverses are list lookups on the ranks.
The ring plane, its motions and the Veronese map work on the ranks;
`classify` and the algebras over Q keep the coordinates.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import RinggeomError
from . import projective as pj


class AlgebraError(RinggeomError):
    pass


# the most elements an algebra may have for its element tables; the
# plane over it has about |A|^2 points
TABLE_BOUND = 1024


@dataclass(frozen=True)
class Algebra:
    field: object
    dim: int
    table: tuple            # table[i][j] = coords of e_i e_j
    involution: tuple       # matrix rows: involution of e_i; may be None
    tag: str = ""
    base_dim: int = 0       # dim of the B-part for CD(B, zeta) tables

    def __post_init__(self):
        z = self.field.zero
        sparse = tuple(
            tuple(tuple((k, c) for k, c in enumerate(cell) if c != z)
                  for cell in row)
            for row in self.table)
        object.__setattr__(self, "_sparse", sparse)

    # --- element helpers --------------------------------------------------
    def zero(self):
        return (self.field.zero,) * self.dim

    def one(self):
        return (self.field.one,) + (self.field.zero,) * (self.dim - 1)

    def basis(self, i):
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    def scalar(self, c):
        return (c,) + (self.field.zero,) * (self.dim - 1)

    def add(self, a, b):
        return pj.vec_mat(self.field, (self.field.one,) * 2, (a, b))

    def sub(self, a, b):
        return pj.vec_mat(self.field, (self.field.one, self.field.neg(
            self.field.one)), (a, b))

    def neg(self, a):
        return tuple(self.field.neg(x) for x in a)

    def scale(self, c, a):
        return pj.vec_mat(self.field, (c,), (a,))

    def mul(self, a, b):
        field = self.field
        z = field.zero
        add, mul = field.add, field.mul
        out = [z] * self.dim
        sparse = self._sparse
        for i, x in enumerate(a):
            if x == z:
                continue
            row = sparse[i]
            for j, y in enumerate(b):
                if y == z:
                    continue
                xy = mul(x, y)
                for k, c in row[j]:
                    out[k] = add(out[k], mul(xy, c))
        return tuple(out)

    def conj(self, a):
        if self.involution is None:
            raise AlgebraError("algebra %s has no involution" % self.tag)
        return pj.vec_mat(self.field, a, self.involution)

    def trace(self, a):
        s = self.add(a, self.conj(a))
        if any(x != self.field.zero for x in s[1:]):
            raise AlgebraError("a + conj(a) is not scalar; not quadratic")
        return s[0]

    def norm(self, a):
        n = self.mul(a, self.conj(a))
        if any(x != self.field.zero for x in n[1:]):
            raise AlgebraError("a * conj(a) is not scalar; not quadratic")
        return n[0]

    def inverse(self, a):
        n = self.norm(a)
        if n == self.field.zero:
            raise AlgebraError("element has norm 0; not invertible")
        return self.scale(self.field.inv(n), self.conj(a))

    def elements(self):
        if not self.field.is_finite:
            raise AlgebraError("cannot enumerate over an infinite field")
        elems = list(self.field.elements())
        return [tuple(c) for c in itertools.product(elems, repeat=self.dim)]

    def size(self):
        return self.field.q ** self.dim

    @functools.cached_property
    def tables(self):
        """The element tables (`ElementTables`), built on first use; an
        AlgebraError over Q or past TABLE_BOUND elements."""
        if not self.field.is_finite:
            raise AlgebraError("cannot enumerate over an infinite field")
        if self.size() > TABLE_BOUND:
            raise AlgebraError(
                "algebra %s has %d elements; element tables stop at %d"
                % (self.tag, self.size(), TABLE_BOUND))
        return ElementTables(self)

    # structural parts for CD(B, zeta) tables
    @functools.cached_property
    def radical_t(self):
        """True for the CD(B, 0) shape (t = e_base_dim with t^2 = 0);
        False for division algebras, where tB = {0}."""
        if self.base_dim >= self.dim:
            return False
        t = self.basis(self.base_dim)
        return self.mul(t, t) == self.zero()

    def b_part(self, a):
        return a[: self.base_dim]

    def t_part(self, a):
        return a[self.base_dim:]

    def embed_b(self, b):
        return tuple(b) + (self.field.zero,) * (self.dim - self.base_dim)

    def t_times(self, b):
        """The element t*b for b given in B-coordinates."""
        return (self.field.zero,) * self.base_dim + tuple(b)

    def label(self, a):
        return "(" + ",".join(self.field.label(x) for x in a) + ")"

    def __repr__(self):
        return "Algebra(%s, dim=%d)" % (self.tag or repr(self.field), self.dim)


class ElementTables:
    """The operations of a finite algebra A on element ranks: the rank of
    an element is its position in `A.elements()`, the lexicographic order
    of the coordinate tuples, so rank 0 is zero and every `sorted`, `min`
    or first-witness rule over ranks picks what it picks over
    coordinates.  Every entry is computed once from the coordinate
    operations of `Algebra`, which stay the reference:

        elems[i], index[a]      coordinate tuple of rank i, rank of a
        one, basis[i]           rank of 1, of e_i
        add, sub, mul [i][j]    rank of a_i + a_j, a_i - a_j, a_i a_j
        neg[i], conj[i]         rank of -a_i, conj(a_i)
        norm[i], trace[i]       N(a_i) and T(a_i), field scalars
        inverse[i]              rank of a_i^-1
                                (each None where Algebra refuses it)
        b_part[i]               rank of the B-part of a_i (its first
                                base_dim coordinates) among their tuples

    and, for the CD(B, 0) shape (`A.radical_t`, t = e_base_dim, t^2 = 0;
    otherwise tB = {0}):

        t_mul[i]                rank of t b, where b is the B-part of a_i
        t_slot[i]               rank of b, where t b is the t-part of a_i
        t_multiple[i]           whether a_i lies in tB
    """

    def __init__(self, A):
        z = A.field.zero
        self.elems = elems = A.elements()
        self.index = index = {a: i for i, a in enumerate(elems)}
        self.one = index[A.one()]
        self.basis = [index[A.basis(i)] for i in range(A.dim)]
        self.add = [[index[A.add(a, b)] for b in elems] for a in elems]
        self.neg = [index[A.neg(a)] for a in elems]
        self.sub = [[row[j] for j in self.neg] for row in self.add]
        self.mul = [[index[A.mul(a, b)] for b in elems] for a in elems]
        self.conj = [index[A.conj(a)] for a in elems]

        def partial(op, a):
            """op(a), None where the coordinate operation refuses."""
            try:
                return op(a)
            except AlgebraError:
                return None

        self.norm = [partial(A.norm, a) for a in elems]
        self.trace = [partial(A.trace, a) for a in elems]
        self.inverse = [None if b is None else index[b]
                        for b in (partial(A.inverse, a) for a in elems)]
        # ranks are lexicographic: the leading base_dim coordinates rank
        # as the quotient by the number of their tails
        tails = A.field.q ** (A.dim - A.base_dim)
        self.b_part = [i // tails for i in range(len(elems))]
        if A.radical_t:
            self.t_mul = [index[A.t_times(A.b_part(a))] for a in elems]
            self.t_slot = [index[A.embed_b(A.t_part(a))] for a in elems]
            self.t_multiple = [all(c == z for c in A.b_part(a))
                               for a in elems]
        else:
            self.t_mul = self.t_slot = [0] * len(elems)
            self.t_multiple = [i == 0 for i in range(len(elems))]


# --------------------------------------------------------------------------
# constructions

def ground_algebra(field, name=None):
    """The field itself as a 1-dimensional algebra with trivial involution."""
    one = (field.one,)
    table = ((one,),)
    inv = ((field.one,),)
    tag = name if name is not None else repr(field)
    return Algebra(field, 1, table, inv, tag=tag, base_dim=1)


def cd_double(A, zeta, variant="standard"):
    """One Cayley-Dickson doubling step, (a,b)(c,d) = (ac + z d conj(b),
    conj(a) d + c b); zeta = 0 is allowed (degenerate step).

    variant="char2-unital" adjoins a root of x^2 + x + zeta instead and is
    only allowed for A = K in characteristic 2 (gives a nontrivial
    involution there).
    """
    field = A.field
    m = A.dim
    if variant == "char2-unital":
        if m != 1 or field.p != 2:
            raise AlgebraError("char2-unital doubling needs A = K with char 2")
        z, one = field.zero, field.one
        # basis (1, t) with t^2 = zeta + t;  conj(t) = 1 + t
        table = (
            (((one, z)), ((z, one))),
            (((z, one)), ((zeta, one))),
        )
        inv = ((one, z), (one, one))
        tag = "CDu(%s,%s)" % (A.tag, field.label(zeta))
        return Algebra(field, 2, table, inv, tag=tag, base_dim=1)
    if A.involution is None:
        raise AlgebraError("doubling needs an involution on the base")
    m2 = 2 * m
    z = field.zero

    def pack(first, second):
        return tuple(first) + tuple(second)

    zero = (z,) * m
    table = [[None] * m2 for _ in range(m2)]
    for i in range(m):
        ei = A.basis(i)
        ei_c = A.conj(ei)
        for j in range(m):
            ej = A.basis(j)
            # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
            table[i][j] = pack(A.mul(ei, ej), zero)
            # (e_i, 0)(0, e_j) = (0, conj(e_i) e_j)
            table[i][m + j] = pack(zero, A.mul(ei_c, ej))
            # (0, e_i)(e_j, 0) = (0, e_j e_i)
            table[m + i][j] = pack(zero, A.mul(ej, ei))
            # (0, e_i)(0, e_j) = (zeta e_j conj(e_i), 0)
            prod = A.scale(zeta, A.mul(ej, A.conj(ei)))
            table[m + i][m + j] = pack(prod, zero)
    inv_rows = []
    for i in range(m):
        inv_rows.append(pack(A.conj(A.basis(i)), zero))
    for i in range(m):
        inv_rows.append(pack(zero, A.neg(A.basis(i))))
    tag = "CD(%s,%s)" % (A.tag, field.label(zeta))
    return Algebra(field, m2, tuple(tuple(r) for r in table), tuple(inv_rows),
                   tag=tag, base_dim=m)


def cd_chain(field, zetas, first_variant="standard", name=None):
    """Iterated doubling starting from K."""
    A = ground_algebra(field, name=name)
    for idx, zeta in enumerate(zetas):
        variant = first_variant if idx == 0 else "standard"
        A = cd_double(A, zeta, variant=variant)
    return A


def quadratic_field_algebra(field):
    """The quadratic Galois extension of K as a 2-dimensional K-algebra
    (Frobenius involution), via a canonical doubling step."""
    if field.p == 2:
        for zeta in field.elements():
            try:
                A = cd_double(ground_algebra(field), zeta,
                              variant="char2-unital")
            except AlgebraError:
                continue
            if is_division(A):
                return A
        raise AlgebraError("no separable quadratic extension found")
    for zeta in field.elements():
        if zeta == field.zero:
            continue
        A = cd_double(ground_algebra(field), zeta)
        if is_division(A):
            return A
    raise AlgebraError("no quadratic field extension found")


def truncated_series(B, n):
    """B[t]/(t^n) with the parity-twisted multiplication
    (t^i b)(t^j c) = t^{i+j} * (bc, cb, conj(b)c or c conj(b)) by the
    parities of i and j.  Not quadratic for n >= 3."""
    if n < 2:
        raise AlgebraError("order must be at least 2")
    field = B.field
    m = B.dim
    dim = n * m

    def pack(i, vec):
        z = field.zero
        return (z,) * (i * m) + tuple(vec) + (z,) * ((n - 1 - i) * m)

    zero = (field.zero,) * dim
    table = [[None] * dim for _ in range(dim)]
    for i in range(n):
        for bi in range(m):
            b = B.basis(bi)
            for j in range(n):
                for cj in range(m):
                    c = B.basis(cj)
                    if i + j >= n:
                        prod = zero
                    else:
                        if i % 2 == 0 and j % 2 == 0:
                            v = B.mul(b, c)
                        elif i % 2 == 1 and j % 2 == 0:
                            v = B.mul(c, b)
                        elif i % 2 == 0 and j % 2 == 1:
                            v = B.mul(B.conj(b), c)
                        else:
                            v = B.mul(c, B.conj(b))
                        prod = pack(i + j, v)
                    table[i * m + bi][j * m + cj] = prod
    inv_rows = []
    for i in range(n):
        for bi in range(m):
            # conj(a + t b) = conj(a) - t b, matching the doubled algebra
            v = B.conj(B.basis(bi)) if i % 2 == 0 else B.neg(B.basis(bi))
            inv_rows.append(pack(i, v))
    tag = "Series(%s,%d)" % (B.tag, n)
    return Algebra(field, dim, tuple(tuple(r) for r in table),
                   tuple(inv_rows), tag=tag, base_dim=m)


# --------------------------------------------------------------------------
# predicates and radicals

def associator(A, a, b, c):
    return A.sub(A.mul(A.mul(a, b), c), A.mul(a, A.mul(b, c)))


def is_commutative(A):
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            if A.table[i][j] != A.table[j][i]:
                return False
    return True


def is_associative(A):
    # trilinearity: the basis triples decide it over any field
    zero = A.zero()
    for i in range(A.dim):
        ei = A.basis(i)
        for j in range(A.dim):
            ej = A.basis(j)
            for k in range(A.dim):
                if associator(A, ei, ej, A.basis(k)) != zero:
                    return False
    return True


def is_alternative(A):
    """[a,a,b] = [b,a,a] = 0 for all a, b; decided exactly from the basis
    associators, over any field.

    Polarization: for fixed b the map a -> [a,a,b] is quadratic, so for
    a = sum c_i e_i

        [a,a,b] = sum_i c_i^2 [e_i,e_i,b]
                  + sum_{i<k} c_i c_k ([e_i,e_k,b] + [e_k,e_i,b]),

    and it is linear in b.  It therefore vanishes identically, F2
    included, iff [e_i,e_i,e_j] = 0 and [e_i,e_k,e_j] + [e_k,e_i,e_j] = 0
    for all i < k and all j, i.e. iff it vanishes at every pair (e_i, e_j)
    and (e_i + e_k, e_j).  The right law [b,a,a] is handled likewise.

    Returns (flag, witness); the witness is a pair (a, b) with [a,a,b]
    or [b,a,a] nonzero."""
    zero = A.zero()
    basis = [A.basis(i) for i in range(A.dim)]
    # asc[i][k][j] = [e_i, e_k, e_j]
    asc = [[[associator(A, ei, ek, ej) for ej in basis] for ek in basis]
           for ei in basis]
    for i in range(A.dim):
        for j in range(A.dim):
            if asc[i][i][j] != zero or asc[j][i][i] != zero:
                return False, (basis[i], basis[j])
    for i, k in itertools.combinations(range(A.dim), 2):
        for j in range(A.dim):
            if A.add(asc[i][k][j], asc[k][i][j]) != zero or \
                    A.add(asc[j][i][k], asc[j][k][i]) != zero:
                return False, (A.add(basis[i], basis[k]), basis[j])
    return True, None


def is_quadratic(A):
    """Every a satisfies a^2 - T(a) a + N(a) = 0, with T(a) = a + conj(a)
    and N(a) = a conj(a) both scalar; decided exactly over any field.

    Polarization, as in `is_alternative`: a + conj(a) is linear in a, and
    a conj(a) and a^2 - T(a) a + N(a) are quadratic maps, so all of them
    vanish identically, F2 included, iff they vanish at every e_i and
    every e_i + e_k.

    Returns (flag, witness); the witness is the first such test element
    that fails."""
    if A.involution is None:
        return False, None

    def holds(a):
        ac = A.conj(a)
        s, n = A.add(a, ac), A.mul(a, ac)
        if any(x != A.field.zero for x in s[1:] + n[1:]):
            return False
        return A.add(A.sub(A.mul(a, a), A.scale(s[0], a)),
                     A.scalar(n[0])) == A.zero()

    basis = [A.basis(i) for i in range(A.dim)]
    tests = basis + [A.add(basis[i], basis[k])
                     for i, k in itertools.combinations(range(A.dim), 2)]
    bad = next((a for a in tests if not holds(a)), None)
    return bad is None, bad


def is_division(A):
    """Anisotropy of the norm.  Exact over finite fields; over Q exact when
    the norm has a nonzero radical or is diagonal positive definite,
    otherwise sampled."""
    return _division_detail(A)[0]


def _division_detail(A, samples=2000, seed=0):
    field = A.field
    qf = _norm_form(A)
    if field.is_finite:
        a = pj.isotropic_vector(qf)
        return a is None, True, a
    # a nonzero r in rad(f) has N(r) = f(r, r)/2 = 0
    rad_f, _ = radical_bases(A)
    if rad_f:
        return False, True, rad_f[0]
    # a diagonal positive definite norm is anisotropic
    if all(c > 0 if i == j else c == 0
           for (i, j), c in zip(pj.monomial_order(A.dim), qf.coeffs)):
        return True, True, None
    # integer coordinates keep the Fraction arithmetic cheap
    rng = random.Random(seed)
    for _ in range(samples):
        a = tuple(Fraction(rng.randint(-8, 8)) for _ in range(A.dim))
        if a != A.zero() and A.norm(a) == field.zero:
            return False, False, a
    return True, False, None


def _norm_form(A):
    """The norm as a quadratic form on the basis: c_ii = N(e_i) and
    c_ij = f(e_i, e_j) for i < j, with f(x, y) = N(x+y) - N(x) - N(y)."""
    return pj.form_on_basis(A.field, A.norm, pj.unit_vectors(A.field, A.dim))


def radical_bases(A):
    """(rad(f), R) as echelonized basis lists: the kernel of the Gram
    matrix of the norm bilinearization, and the vertex of the norm form
    (its norm-zero part; all of rad(f) in characteristic != 2)."""
    qf = _norm_form(A)
    rad = pj.nullspace(A.field, qf.gram_rows(), A.dim)
    return (list(pj.span(A.field, rad, A.dim).rows),
            list(pj.quadric_vertex(qf).rows))


@dataclass
class AlgebraReport:
    tag: str
    commutative: bool
    associative: bool
    alternative: bool
    quadratic: bool
    nondegenerate: bool
    division: bool
    rad_f: list
    radical: list
    sampled: bool           # division over Q decided on samples
    witnesses: dict = dc_field(default_factory=dict)


def classify(A, samples=1000, seed=0):
    report_witness = {}
    quad, qw = is_quadratic(A)
    if qw is not None:
        report_witness["quadratic"] = qw
    alt, aw = is_alternative(A)
    if aw is not None:
        report_witness["alternative"] = aw
    comm = is_commutative(A)
    assoc = is_associative(A)
    if quad:
        rad_f, R = radical_bases(A)
        div, div_exact, dw = _division_detail(A, samples=samples, seed=seed)
        if dw is not None:
            report_witness["division"] = dw
        nondeg = not R
    else:
        rad_f, R = [], []
        div, nondeg, div_exact = False, False, True
    if div and not nondeg:
        raise AlgebraError("division algebra with nonzero radical")
    return AlgebraReport(A.tag, comm, assoc, alt, quad, nondeg, div,
                         rad_f, R, not div_exact, report_witness)


def find_isomorphism_to_cd(series, cd):
    """Explicit identification of B[t]/(t^2) with CD(B, 0): the basis map
    a + t b -> (a, b) is the identity on coordinates, so the structure
    tables must already agree."""
    if series.dim != cd.dim or series.field != cd.field:
        return None
    if series.table == cd.table and series.involution == cd.involution:
        return [series.basis(i) for i in range(series.dim)]
    return None


# --------------------------------------------------------------------------
# expression parsing ("CD(F3,-1,0)", "CDu(F2,1)", "insep(F2;1,1)", "F4", "Q")

def parse_algebra(expr):
    from .fields import parse_field
    expr = expr.strip()
    if "(" not in expr:
        # a bare field name means its scalars, also for F_{p^k}: the
        # extension as an algebra over its prime field is a CD/CDu
        # expression
        return ground_algebra(parse_field(expr), name=expr)
    head, _, rest = expr.partition("(")
    if not rest.endswith(")"):
        raise AlgebraError("unbalanced algebra expression %r" % expr)
    body = rest[:-1]
    if head == "insep":
        base, _, params = body.partition(";")
        field = parse_field(base)
        if field.p != 2:
            raise AlgebraError("insep(...) requires characteristic 2")
        zetas = [_parse_scalar(field, tok) for tok in params.split(",") if tok]
        A = cd_chain(field, zetas, name=base)
        return Algebra(A.field, A.dim, A.table, A.involution,
                       tag="insep(%s;%s)" % (base, params), base_dim=A.base_dim)
    if head in ("CD", "CDu"):
        parts = [tok.strip() for tok in body.split(",")]
        field = parse_field(parts[0])
        zetas = [_parse_scalar(field, tok) for tok in parts[1:]]
        if not zetas:
            raise AlgebraError("CD expression needs at least one parameter")
        return cd_chain(field, zetas,
                        first_variant="char2-unital" if head == "CDu"
                        else "standard", name=parts[0])
    raise AlgebraError("cannot parse algebra expression %r" % expr)


def _parse_scalar(field, token):
    token = token.strip()
    if token.startswith("w"):
        # w, w2, ... : powers of the extension generator
        power = int(token[1:]) if len(token) > 1 else 1
        if field.k == 1:
            raise AlgebraError("generator symbol in a prime field")
        gen = field._from_coords(tuple(1 if i == 1 else 0
                                       for i in range(field.k)))
        return field.pow(gen, power)
    return field.from_int(int(token))
