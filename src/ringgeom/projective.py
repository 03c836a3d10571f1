"""Exact linear algebra and quadric machinery in PG(N, K).

Vectors are tuples of field elements; projective points are normalized
so that the first nonzero coordinate is 1.  Subspaces are stored as
canonical reduced row echelon bases, which makes subspace equality a
plain data comparison.  Projection from a subspace is reduction against
those rows (`Subspace.project`), onto the coordinates off its pivots;
`Projection` onto a chosen complement is kept for a target that matters.

Elimination runs on the field's packed rows (`fields`): `rref`,
`nullspace`, `span`, `meet` (Zassenhaus on the packed [r | r], [r | 0])
and `Subspace.reduce`, `contains` and `project` pack at entry and unpack
at exit, and a subspace packs its echelon rows once.  `Subspace.rows`,
witnesses, dumps and form coefficients stay tuples.  A `Matrix` applied
many times is built once by its owner (a certified lift, a `Projection`,
the motion checks' lift table) and holds every packed row multiple c r,
so v . M is one XOR or add per coordinate of v (`vec_mat`); a one-off
product packs per call.

Over a finite field the points of a subspace are enumerated as the
packed rows of their normalized coordinates (`Subspace.points`), the
field's one format of a vector, so point sets are sets of `bytes` and
sort as the coordinate tuples do; `field.pack` and `field.unpack`
convert.

Quadratic forms are kept as upper-triangular coefficient tables and
never as symmetric Gram matrices: in characteristic 2 the associated
bilinear form is alternating and does not determine the form.  A form
over F_q is read by its class and never by enumerating points: its
vertex, the dimension m of its nondegenerate part and that part's Witt
index w (`quadric_class`), from which its number of zeros follows
(`zero_count`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import getitem

from . import RinggeomError

INF = "inf"  # cross-ratio value for a vanishing denominator


class GeometryError(RinggeomError):
    pass


# --------------------------------------------------------------------------
# vectors and matrices

def is_zero_vec(field, u):
    z = field.zero
    return all(a == z for a in u)


def normalize_point(field, v):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    b = field.row_normalize(field.pack(v))
    return field.unpack(b) if any(b) else None


def _echelon(field, mat):
    """Reduced row echelon form of the packed rows `mat`, changed in
    place: (rows, pivot_columns).  Rows at and below the current one
    vanish left of the current column, so the pivot row, normalized, is
    zero there."""
    sub, norm = field.row_sub_scaled, field.row_normalize
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        for pr in range(r, len(mat)):
            if mat[pr][c]:
                break
        else:
            continue
        prow = norm(mat[pr])
        mat[pr] = mat[r]
        mat[r] = prow
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = sub(row, row[c], prow)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    red, pivots = _echelon(field, [field.pack(r) for r in rows])
    return [field.unpack(r) for r in red], pivots


def nullspace(field, rows, ncols):
    """Basis of the right kernel of the matrix with the given rows."""
    red, pivots = rref(field, rows)
    z, one, neg = field.zero, field.one, field.neg
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = one
        for r, pc in zip(red, pivots):
            v[pc] = neg(r[fc])
        basis.append(tuple(v))
    return basis


def solve(field, rows, rhs):
    """One solution x of sum_i x_i rows[i] = rhs, its free unknowns 0, or
    None: inconsistent iff the augmented column pivots; x is checked."""
    k = len(rows)
    red, pivots = rref(field, [tuple(r[j] for r in rows) + (rhs[j],)
                               for j in range(len(rhs))])
    if k in pivots:
        return None
    x = [field.zero] * k
    for r, pc in zip(red, pivots):
        x[pc] = r[k]
    return tuple(x) if vec_mat(field, x, rows) == tuple(rhs) else None


def mat_inverse(field, rows):
    n = len(rows)
    aug = [tuple(rows[i]) + tuple(field.one if j == i else field.zero
                                  for j in range(n)) for i in range(n)]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise GeometryError("matrix not invertible")
    return [r[n:] for r in red]


class Matrix:
    """A matrix that is applied many times, built once by its owner: its
    rows, a tuple of tuples, and over a finite field the multiples c r of
    each row r for every scalar c, packed (`row_multiple`)."""

    def __init__(self, field, rows):
        self.rows = tuple(map(tuple, rows))
        self.mults = field.is_finite and [
            [field.row_multiple(c, b) for c in field.elements()]
            for b in map(field.pack, self.rows)]


def vec_mat(field, v, rows):
    """The combination sum_i v_i rows[i], one `row_sum` of the multiples
    v_i r_i: read off a `Matrix`, or packed for this one product."""
    if isinstance(rows, Matrix):
        if rows.mults:
            return field.unpack(field.row_sum(map(getitem, rows.mults, v),
                                              len(rows.rows[0])))
        rows = rows.rows
    return field.unpack(field.row_sum(
        (field.row_multiple(c, field.pack(r)) for c, r in zip(v, rows) if c),
        len(rows[0])))


def apply_matrix(field, matrix, v):
    """The point v . matrix, normalized (None if it is zero)."""
    return normalize_point(field, vec_mat(field, v, matrix))


def mat_mul(field, a, b):
    """The product a . b of matrices, a given as rows."""
    return [vec_mat(field, row, b) for row in a]


# --------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True)
class Subspace:
    """Row-reduced echelon basis of a linear subspace of K^n."""
    field: object
    n: int
    rows: tuple

    @property
    def pdim(self):
        """Projective dimension (-1 for the empty subspace)."""
        return len(self.rows) - 1

    @property
    def vdim(self):
        return len(self.rows)

    @functools.cached_property
    def _packed(self):
        """(packed row, pivot column) for each echelon row."""
        return tuple((self.field.pack(r),
                      next(i for i, a in enumerate(r) if a))
                     for r in self.rows)

    def contains(self, v):
        return not any(self.reduce(v))

    def reduce(self, v):
        """Residual of v after elimination against the echelon rows."""
        field = self.field
        b, sub = field.pack(v), field.row_sub_scaled
        for row, pc in self._packed:
            if b[pc]:
                b = sub(b, b[pc], row)
        return field.unpack(b)

    def project(self, v):
        """The projection of the point v from this subspace, as a point
        (None when v lies in it): the residual of `reduce`, normalized.
        The residual vanishes at the pivot columns, so this projects along
        the subspace onto the coordinates off its pivots, the complement
        on which `quadric_class` reads a form's nondegenerate part."""
        return normalize_point(self.field, self.reduce(v))

    def points(self):
        """The packed rows of all projective points c . rows, c running
        over `pg_parameters`, so each is normalized (finite fields only):
        the points with leading coefficient at row i are row i plus every
        combination of the multiples 0, 1, ..., q - 1 of each later row
        (`row_multiple`, `row_combinations`)."""
        field, heads = self.field, [b for b, _ in self._packed]
        mults = [[field.row_multiple(c, b) for c in field.elements()]
                 for b in heads[1:]]
        out = []
        for lead, head in enumerate(heads):
            out.extend(field.row_combinations(head, mults[lead:]))
        return out

    def __le__(self, other):
        return all(other.contains(r) for r in self.rows)


def pg_parameters(field, k):
    """Normalized coefficient tuples: first nonzero entry is 1."""
    elems = list(field.elements())
    z, one = field.zero, field.one
    for lead in range(k):
        prefix = (z,) * lead + (one,)
        for tail in itertools.product(elems, repeat=k - lead - 1):
            yield prefix + tail


def span(field, vectors, n=None):
    vectors = [tuple(v) for v in vectors]
    if n is None:
        if not vectors:
            raise GeometryError("cannot infer ambient dimension of empty span")
        n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise GeometryError("ambient dimension mismatch")
    rows, _ = rref(field, vectors)
    return Subspace(field, n, tuple(rows))


def meet(s1, s2):
    """Intersection of two subspaces (Zassenhaus)."""
    if s1.n != s2.n or s1.field != s2.field:
        raise GeometryError("ambient mismatch in meet")
    field, n = s1.field, s1.n
    zrow = field.pack((field.zero,) * n)
    red, pivots = _echelon(field, [r + r for r, _ in s1._packed]
                           + [r + zrow for r, _ in s2._packed])
    # the rows pivoting in the right block are the meet's echelon basis
    k = sum(pc < n for pc in pivots)
    return Subspace(field, n, tuple(field.unpack(r[n:]) for r in red[k:]))


def unit_vectors(field, n):
    """The standard basis e_0, ..., e_{n-1} of K^n."""
    zeros = (field.zero,) * n
    return [zeros[:i] + (field.one,) + zeros[i + 1:] for i in range(n)]


class Projection:
    """Linear projection of K^n from `kernel` onto a given complementary
    `target`.  Where only the kernel matters, `Subspace.project` projects
    with no target and no inverse."""

    def __init__(self, kernel, target):
        field = kernel.field
        if target.field != field or target.n != kernel.n:
            raise GeometryError("ambient mismatch")
        if kernel.vdim + target.vdim != kernel.n:
            raise GeometryError("kernel and target are not complementary")
        basis = list(kernel.rows) + list(target.rows)
        self.field = field
        self.target = target
        self._k = kernel.vdim
        # v = x . basis  =>  x = v . basis^{-1}  (row-vector convention)
        self._binv = Matrix(field, mat_inverse(field, basis))
        self._target = Matrix(field, target.rows)

    def apply(self, v):
        """Image of v inside the ambient space, as a point of `target`
        (None if v lies in the kernel)."""
        beta = vec_mat(self.field, v, self._binv)[self._k:]
        if is_zero_vec(self.field, beta):
            return None
        return apply_matrix(self.field, self._target, beta)


def intrinsic_coords(subspace, v):
    """Coordinates of v w.r.t. the echelon rows: for v in the subspace,
    its entries at their pivot columns."""
    if not subspace.contains(v):
        raise GeometryError("vector not in subspace")
    return tuple(v[pc] for _, pc in subspace._packed)


def from_intrinsic(subspace, coeffs):
    return vec_mat(subspace.field, tuple(coeffs), subspace.rows)


# --------------------------------------------------------------------------
# quadratic forms

@dataclass(frozen=True)
class QuadraticForm:
    """Q(x) = sum_{i<=j} coeff[(i,j)] x_i x_j over K^n."""
    field: object
    n: int
    coeffs: tuple   # flat tuple in monomial_order(n) ordering

    def evaluate(self, v):
        field = self.field
        add, mul, z = field.add, field.mul, field.zero
        acc = z
        idx = 0
        for i in range(self.n):
            vi = v[i]
            for j in range(i, self.n):
                c = self.coeffs[idx]
                idx += 1
                if c != z and vi != z and v[j] != z:
                    acc = add(acc, mul(c, mul(vi, v[j])))
        return acc

    def polar(self, x):
        """The coefficients of b(x, .), read off the Gram matrix."""
        return vec_mat(self.field, x, self.gram_rows())

    def gram_rows(self):
        """Matrix of b, read off the coefficients: b_ij = c_ij for i < j
        and b_ii = 2 c_ii."""
        field, n = self.field, self.n
        rows = [[None] * n for _ in range(n)]
        for (i, j), c in zip(monomial_order(n), self.coeffs):
            if i == j:
                rows[i][i] = field.add(c, c)
            else:
                rows[i][j] = rows[j][i] = c
        return [tuple(r) for r in rows]


def monomial_order(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def monomials(field, p):
    """The products p_i p_j, i <= j, in monomial_order."""
    b = field.pack(p)
    return sum((field.unpack(field.row_scale(a, b[i:]))
                for i, a in enumerate(b)), ())


def forms_through(field, points, n):
    """Basis of the space of quadratic forms vanishing on the points."""
    return nullspace(field, [monomials(field, p) for p in points],
                     n * (n + 1) // 2)


def form_on_basis(field, Q, basis):
    """The form x -> Q(sum_i x_i basis[i]), by polarisation: c_ii = Q(b_i)
    and c_ij = Q(b_i + b_j) - Q(b_i) - Q(b_j) for i < j."""
    vals = [Q(b) for b in basis]
    sub, ones = field.sub, (field.one,) * 2
    return QuadraticForm(field, len(basis), tuple(
        vals[i] if i == j else
        sub(sub(Q(vec_mat(field, ones, (basis[i], basis[j]))), vals[i]),
            vals[j]) for i, j in monomial_order(len(basis))))


def quadric_vertex(qf):
    """Vertex {v : Q(v)=0 and b(v,.)==0} as a Subspace (char-2 correct).
    When 2 is invertible, Q(v) = b(v, v)/2 vanishes on rad(b).  In
    characteristic 2, Q is additive on rad(b) and Q(cv) = c^2 Q(v), so on
    a basis r_i of rad(b), Q(sum x_i r_i) = (sum x_i s_i)^2 with
    s_i = Q(r_i)^(q/2), and the vertex is the kernel of that linear form."""
    field = qf.field
    rad = nullspace(field, qf.gram_rows(), qf.n)
    if field.p == 2 and rad:
        roots = [field.pow(qf.evaluate(r), field.q // 2) for r in rad]
        rad = [vec_mat(field, c, rad)
               for c in nullspace(field, [roots], len(rad))]
    return span(field, rad, qf.n)


def isotropic_vector(qf):
    """A point where the finite-field form qf vanishes, or None when qf is
    anisotropic.  By Chevalley-Warning a form in 3 variables over F_q has
    a nonzero zero, so only the points of the first min(n, 3)
    coordinates are tried: at most q^2 + q + 1 of them."""
    field, n = qf.field, qf.n
    tail = (field.zero,) * (n - min(n, 3))
    return next((p + tail for p in pg_parameters(field, min(n, 3))
                 if qf.evaluate(p + tail) == field.zero), None)


def quadric_class(qf):
    """The class of a form over F_q: (vertex, m, w), with m the dimension
    of its nondegenerate part and w that part's Witt index.  The part is
    qf on the unit vectors off the vertex's pivot columns, a complement
    of the vertex.  While it has an isotropic vector v, the plane <v, u>
    with b(v, u) != 0 is hyperbolic and splits off: the part is
    <v, u> + <v, u>^perp, and by Witt cancellation w is the number of
    splits."""
    field = qf.field
    vert = quadric_vertex(qf)
    pivots = {next(i for i, a in enumerate(r) if a != field.zero)
              for r in vert.rows}
    form = form_on_basis(field, qf.evaluate, [
        e for i, e in enumerate(unit_vectors(field, qf.n))
        if i not in pivots])
    w = 0
    while (v := isotropic_vector(form)) is not None:
        gram = form.gram_rows()
        pv = vec_mat(field, v, gram)
        j = next(i for i, a in enumerate(pv) if a != field.zero)
        form = form_on_basis(field, form.evaluate,
                             nullspace(field, [pv, gram[j]], form.n))
        w += 1
    return vert, qf.n - vert.vdim, w


def zero_count(q, r, m, w):
    """Projective zeros over F_q of a nonzero form of class (vertex of
    vector dimension r, m, w): its nondegenerate part has
    (q^(m-1) - 1)/(q - 1) + s q^(m/2 - 1), s = 0 for m odd, 1 when it is
    hyperbolic (2w = m) and -1 when it is elliptic (Hirschfeld,
    Projective Geometries over Finite Fields, ch. 5), and the cone over
    N zeros has q^r N plus the vertex's (q^r - 1)/(q - 1)."""
    s = 0 if m % 2 else 1 if 2 * w == m else -1
    base = (q ** (m - 1) - 1) // (q - 1) + s * q ** (m // 2) // q
    return q ** r * base + (q ** r - 1) // (q - 1)


def cone_forms(field, points, n):
    """(size, cones): the number of forms of the pencil through the
    points, each classified once, and the (form, vertex, w) of those, in
    pencil order, whose zero set is the points plus its vertex, with the
    vertex missing the points.  Every form of the pencil vanishes on the
    points and on its vertex, so the zero set is that union exactly when
    the vertex misses the points and the class has |points| + |vertex|
    zeros: no form is evaluated on its ambient."""
    kernel = forms_through(field, points, n)
    q = field.q
    cones = []
    for coeffs in pg_parameters(field, len(kernel)):
        qf = QuadraticForm(field, n, normalize_point(
            field, vec_mat(field, coeffs, kernel)))
        vert, m, w = quadric_class(qf)
        r = vert.vdim
        if zero_count(q, r, m, w) == len(points) + (q ** r - 1) // (q - 1) \
                and not any(vert.contains(p) for p in points):
            cones.append((qf, vert, w))
    return (q ** len(kernel) - 1) // (q - 1), cones


# --------------------------------------------------------------------------
# ovoids

def _directions_from(field, pts, x):
    """Projection of the points other than x from x onto the coordinate
    hyperplane x_c = 0, c the pivot of the normalized x: returns c and the
    direction of each of those points, in order."""
    c = next(i for i, a in enumerate(x) if a != field.zero)
    bx = field.pack(x)
    return c, [normalize_point(field, field.unpack(field.row_sub_scaled(
        b, b[c], bx))) for b in map(field.pack, pts) if b != bx]


def _hyperplane_directions(field, k, c):
    """The points of the coordinate hyperplane x_c = 0 of K^k."""
    z = field.zero
    return [t[:c] + (z,) + t[c:] for t in pg_parameters(field, k - 1)]


def is_ovoid(field, points, within):
    """Definition check: spans `within`, no 3 collinear, and at each point
    x the tangent lines span a hyperplane.  Lines through x are the
    points of a hyperplane not through x; a direction that two other
    points project to is a line with three points of the set, and the
    directions no point projects to are the tangents."""
    pts = [intrinsic_coords(within, p) for p in points]
    k = within.vdim
    if len(pts) != len(set(pts)):
        return False
    sp, _ = rref(field, pts)
    if len(sp) != k:
        return False
    for x in pts:
        c, dirs = _directions_from(field, pts, x)
        hits = set(dirs)
        if len(hits) != len(dirs):
            return False
        tangent = [d for d in _hyperplane_directions(field, k, c)
                   if d not in hits]
        tsp, _ = rref(field, [x] + tangent)
        if len(tsp) != k - 1:
            return False
    return True


# --------------------------------------------------------------------------
# cross-ratio

def conic_sections(field, pts, sub):
    """Plane sections with q+1 points of a quadric point set spanning
    `sub`; the set itself when it already spans a plane.  A trio inside a
    section already met spans that section's plane, so it is skipped."""
    if sub.pdim == 2:
        return [tuple(sorted(pts))]
    out = set()
    met = set()
    for trio in itertools.combinations(sorted(pts), 3):
        if trio in met:
            continue
        pl = span(field, list(trio), sub.n)
        if pl.vdim != 3:
            continue
        sect = tuple(sorted(p for p in pts if pl.contains(p)))
        met.update(itertools.combinations(sect, 3))
        if len(sect) == field.q + 1:
            out.add(sect)
    return sorted(out)


def point_to_json(field, p):
    from .fields import scalar_to_json
    return [scalar_to_json(field, c) for c in p]


def subspace_to_json(s):
    return [point_to_json(s.field, r) for r in s.rows]


def quadric_to_json(qf):
    from .fields import scalar_to_json
    out = {}
    for (i, j), c in zip(monomial_order(qf.n), qf.coeffs):
        if c != qf.field.zero:
            out["%d,%d" % (i, j)] = scalar_to_json(qf.field, c)
    return out


def cross_ratio(field, p1, p2, p3, p4):
    """Cross-ratio ((l1-l3)(l2-l4)) / ((l1-l4)(l2-l3)), INF for zero
    denominator.  Requires four collinear points, at least three distinct."""
    pts = [tuple(normalize_point(field, p)) for p in (p1, p2, p3, p4)]
    if len(set(pts)) < 3:
        raise GeometryError("need at least three distinct points")
    line = span(field, pts)
    if line.vdim != 2:
        raise GeometryError("points not collinear")
    cs = [intrinsic_coords(line, p) for p in pts]

    def det(a, b):
        return field.sub(field.mul(cs[a][0], cs[b][1]),
                         field.mul(cs[b][0], cs[a][1]))

    num = field.mul(det(0, 2), det(1, 3))
    den = field.mul(det(0, 3), det(1, 2))
    if den == field.zero:
        return INF
    return field.div(num, den)


def conic_parameters(field, conic):
    """PG(1, K) coordinates of the points of a conic, in order.

    Steiner: projecting the conic from its point conic[0] onto a line of
    its plane, with conic[0] sent to the image of its tangent, is a
    projectivity, so cross-ratios of these coordinates are the conic's.
    The line is x_c = 0 in the plane's coordinates (see `_directions_from`)
    and the tangent is the one direction that no secant takes."""
    if len(conic) != field.q + 1:
        raise GeometryError("conic has %d != q+1 points" % len(conic))
    plane = span(field, conic)
    if plane.vdim != 3:
        raise GeometryError("conic does not span a plane")
    pts = [intrinsic_coords(plane, p) for p in conic]
    c, dirs = _directions_from(field, pts, pts[0])
    if len(set(dirs)) != field.q:
        raise GeometryError("two conic points share a direction")
    tangent = [d for d in _hyperplane_directions(field, 3, c)
               if d not in dirs]
    return [d[:c] + d[c + 1:] for d in tangent + dirs]
