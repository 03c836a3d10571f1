"""Reference readings of quadratic forms by enumeration, for the tests.

The package reads a form by its class (`pj.quadric_class`: vertex,
dimension of the nondegenerate part, Witt index) and counts its zeros
from that class (`pj.zero_count`).  These references read the same
things off point sets instead: the zero set by evaluating the form on
every point, the vertex as the zeros where the polar form vanishes, the
Witt index from a maximal totally singular subspace grown out of the
zeros, a tangent hyperplane from the lines through its point, and a
tube's cone by evaluating every form of the pencil on every point of
xi.  They enumerate PG(n-1) and are meant for the small cases
the tests compare against.  `cone_points` reads a tube's cone off the
point sets it stores, its tubic space and its vertex, and
`split_decomposition` splits an algebra as B + R with B orthogonal to
the radical under the norm form.  `swap_hyperbolic_elliptic` plants a
fault in the count for the mutation tests."""

import functools

from ringgeom import projective as pj

from projective_reference import (complement, line_points, subspace_vectors,
                                  vec_add)


def dot(field, u, v):
    """The scalar product sum_i u_i v_i."""
    return functools.reduce(field.add, map(field.mul, u, v), field.zero)


def bilinear(qf, u, v):
    """b(u, v) = Q(u+v) - Q(u) - Q(v), by evaluating the form."""
    field = qf.field
    s = vec_add(field, u, v)
    return field.sub(field.sub(qf.evaluate(s), qf.evaluate(u)),
                     qf.evaluate(v))


def quadric_zero_set(qf, points=None):
    """The points (all of PG(n-1) by default) where qf vanishes."""
    field = qf.field
    if points is None:
        points = list(pj.pg_parameters(field, qf.n))
    return [p for p in points if qf.evaluate(p) == field.zero]


def exact_zero_set_forms(field, points, n, witt=None):
    """All forms (up to scalar) whose zero set in PG(n-1) is exactly the
    given point set, and whose Witt index is `witt` when that is given."""
    ker = pj.forms_through(field, points, n)
    target = set(tuple(p) for p in points)
    ambient = list(pj.pg_parameters(field, n))
    out = []
    for coeffs in pj.pg_parameters(field, len(ker)):
        flat = pj.vec_mat(field, coeffs, ker)
        qf = pj.QuadraticForm(field, n, pj.normalize_point(field, flat))
        if set(quadric_zero_set(qf, ambient)) != target:
            continue
        if witt is not None and witt_index(qf) != witt:
            continue
        out.append(qf)
    return out


def witt_index(qf, within_points=None):
    """Vector dimension of a maximal totally singular subspace whose
    points are among `within_points` (all of PG(n-1) by default), grown
    one zero at a time: a zero joins when it is orthogonal to those taken
    and not in their span.  All maximal totally singular subspaces of a
    quadric have the same dimension (Witt), so one pass finds the
    index."""
    field = qf.field
    basis, sub = [], None
    for p in quadric_zero_set(qf, within_points):
        if sub is not None and sub.contains(p):
            continue
        if all(dot(field, qf.polar(b), p) == field.zero for b in basis):
            basis.append(p)
            sub = pj.span(field, basis, qf.n)
    return len(basis)


def vertex_points(qf):
    """The zeros p of qf with b(p, .) = 0."""
    return {p for p in quadric_zero_set(qf)
            if all(c == qf.field.zero for c in qf.polar(p))}


def tangent_hyperplane(field, points, within, x):
    """Tangent hyperplane at x of an ovoid or cone point set, in ambient
    coordinates, walked line by line: a line through x is tangent when
    one or all of its points are in the set (the latter along the
    generators of a cone), and a secant when two are."""
    pts = {pj.intrinsic_coords(within, p) for p in points}
    xi = pj.intrinsic_coords(within, x)
    tangent = [xi]
    for y in pj.pg_parameters(field, within.vdim):
        if y == xi:
            continue
        line = line_points(field, xi, y)
        hits = sum(p in pts for p in line)
        assert hits == 2 or hits in (1, len(line)), (x, y, hits)
        if hits != 2:
            tangent.append(y)
    rows, _ = pj.rref(field, tangent)
    return pj.span(field, [pj.from_intrinsic(within, r) for r in rows],
                   within.n)


def cone_points(variety, tube):
    """The packed rows of the points of a tube's cone inside xi: X(xi) = X ^ xi
    and the vertex points."""
    return (tube.xi_pts & variety.point_set) | tube.vertex_pts


def refit_tube(variety, tube):
    """The tube's cone fitted by evaluation: every form of the pencil
    through X(xi) is evaluated on every point of xi, and accepted when its
    zero set is X(xi) plus its vertex, the vertex missing X(xi).  Returns
    (fit_count, vertex, form, base_witt) with the form of the zero set
    that sorts first, its vertex in ambient coordinates and the Witt
    index of the form on the projected X points."""
    field = variety.field
    k = tube.xi.vdim
    # xi's rows are in echelon form: its points in xi coordinates are the
    # normalized coefficient tuples
    intr = list(pj.pg_parameters(field, k))
    x_intr = {pj.intrinsic_coords(tube.xi, field.unpack(p))
              for p in tube.xi_pts & variety.point_set}
    kernel = pj.forms_through(field, sorted(x_intr), k)
    # a pencil form's value at a point is the combination of its basis
    # forms' values there
    values = [[pj.QuadraticForm(field, k, f).evaluate(c) for f in kernel]
              for c in intr]
    q = field.q
    sizes = {(q ** m - 1) // (q - 1) for m in range(k + 1)}
    accepted = {}
    for coeffs in pj.pg_parameters(field, len(kernel)):
        qf = pj.QuadraticForm(field, k, pj.normalize_point(
            field, pj.vec_mat(field, coeffs, kernel)))
        zeros = frozenset(c for c, val in zip(intr, values)
                          if dot(field, coeffs, val) == field.zero)
        # an accepted form has as many zeros off X(xi) as its vertex has
        # points
        if len(zeros) - len(x_intr) not in sizes:
            continue
        vert = pj.quadric_vertex(qf)
        vert_pts = set(subspace_vectors(vert))
        if zeros == x_intr | vert_pts and not vert_pts & x_intr:
            accepted.setdefault(zeros, (qf, vert))
    if not accepted:
        return 0, None, None, None
    qf, vert = accepted[min(accepted, key=sorted)]
    base = sorted(x_intr)
    if vert.rows:
        proj = pj.Projection(vert, complement(vert))
        base = sorted({proj.apply(c) for c in base})
    vertex = pj.span(field, [pj.from_intrinsic(tube.xi, r)
                             for r in vert.rows], tube.xi.n)
    return len(accepted), vertex, qf, witt_index(qf, base)


def swap_hyperbolic_elliptic(real):
    """A planted fault: `real` (pj.zero_count) with the hyperbolic and
    elliptic counts swapped, w = e and w = e - 1 exchanged for m = 2e."""
    def count(q, r, m, w):
        return real(q, r, m, m - 1 - w if m % 2 == 0 else w)
    return count


def split_decomposition(A, R):
    """(B_basis, R_basis) when A = B + R with B the construction-history
    base and R the radical rows, and B-perp = R under the norm
    bilinearization; None otherwise."""
    field = A.field
    b_rows = [A.basis(i) for i in range(A.base_dim)]
    r_rows = list(R)
    if len(b_rows) + len(r_rows) != A.dim:
        return None
    all_rows, _ = pj.rref(field, b_rows + r_rows)
    if len(all_rows) != A.dim:
        return None
    qf = pj.form_on_basis(field, A.norm, pj.unit_vectors(field, A.dim))
    if any(dot(field, qf.polar(b), r) != field.zero
           for r in r_rows for b in b_rows):
        return None
    return (b_rows, r_rows)
