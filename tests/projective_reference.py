"""Test-side helpers for `projective` and `fields`: the tuple kernel that
the packed rows replaced (elimination, kernels, spans, meets, reduction
and matrix products on coordinate tuples, entry by entry through the
scalar operations), the tuple enumeration of the points of a span that
`Subspace.points` enumerates as packed rows, the points of a line, a
coordinate complement of a subspace (with the reference projection onto
it, `pj.Projection`, against which `Subspace.project` is checked),
quadratic forms from coefficient maps, and random field elements for
property tests."""

from fractions import Fraction

from ringgeom import projective as pj



# --------------------------------------------------------------------------
# the tuple kernel, one scalar operation per entry

def _scale(field, c, u):
    return tuple(field.mul(c, a) for a in u)


def _sub_scaled(field, u, c, v):
    return tuple(field.sub(a, field.mul(c, b)) for a, b in zip(u, v))


def rref(field, rows):
    """Reduced row echelon form on tuples: (rows, pivot_columns)."""
    mat = [tuple(r) for r in rows]
    z, pivots, r = field.zero, [], 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != z), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        tail = _scale(field, field.inv(mat[r][c]), mat[r][c:])
        mat[r] = mat[r][:c] + tail
        for i, row in enumerate(mat):
            if i != r and row[c] != z:
                mat[i] = row[:c] + _sub_scaled(field, row[c:], row[c], tail)
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def nullspace(field, rows, ncols):
    """Basis of the right kernel, one vector per free column."""
    red, pivots = rref(field, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = field.neg(row[fc])
        basis.append(tuple(v))
    return basis


def span(field, vectors, n):
    return pj.Subspace(field, n, tuple(rref(field, vectors)[0]))


def meet(s1, s2):
    """Zassenhaus: the right halves of the rows of the reduced [r | r],
    [r' | 0] whose left halves vanish, reduced again."""
    field, n = s1.field, s1.n
    z = (field.zero,) * n
    red, _ = rref(field, [r + r for r in s1.rows] + [r + z for r in s2.rows])
    return span(field, [r[n:] for r in red if r[:n] == z], n)


def reduce(s, v):
    """The residual of v against the echelon rows of s."""
    field, v = s.field, tuple(v)
    for row in s.rows:
        pc = next(i for i, a in enumerate(row) if a != field.zero)
        if v[pc] != field.zero:
            v = _sub_scaled(field, v, v[pc], row)
    return v


def normalized(field, v):
    """v scaled so its first nonzero entry is 1; None for zero."""
    lead = next((a for a in v if a != field.zero), None)
    return None if lead is None else _scale(field, field.inv(lead), v)


def vec_mat(field, v, rows):
    """sum_i v_i rows[i], entry by entry."""
    out = (field.zero,) * len(rows[0])
    for c, row in zip(v, rows):
        out = tuple(field.add(a, field.mul(c, b)) for a, b in zip(out, row))
    return out


def vec_add(field, u, v):
    """u + v for coordinate tuples."""
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_scale(field, c, u):
    """c u for a scalar c and a coordinate tuple u."""
    return _scale(field, c, u)


def span_points(field, rows):
    """The points c . rows of the span of echelon rows, c running over
    `pg_parameters`, so each is normalized; at most one row addition per
    point.  The points with leading coefficient at row i are built row
    by row: each partial sum b is followed by b plus the nonzero
    multiples of the next row (0 is the first element)."""
    nonzero = list(field.elements())[1:]
    out = []
    for lead, row in enumerate(rows):
        level = [tuple(row)]
        for nxt in rows[lead + 1:]:
            multiples = [vec_scale(field, c, nxt) for c in nonzero]
            level = [p for b in level
                     for p in [b] + [vec_add(field, b, m)
                                     for m in multiples]]
        out.extend(level)
    return out


def subspace_vectors(s):
    """The points of the subspace s as vectors, in `Subspace.points`
    order."""
    return [s.field.unpack(c) for c in s.points()]


def line_points(field, u, v):
    """All points of the projective line through distinct points u, v."""
    pts = [tuple(u)]
    for lam in field.elements():
        w = vec_add(field, vec_scale(field, lam, u), v)
        pts.append(pj.normalize_point(field, w))
    return pts


def extend_basis(field, rows, candidates, target):
    """Greedy basis extension: the candidates, in order, that each raise
    the rank of the independent `rows` plus those already taken, until the
    rank reaches `target` (fewer if the candidates run out)."""
    rows = list(rows)
    taken = []
    for e in candidates:
        test, _ = pj.rref(field, rows + taken + [e])
        if len(test) > len(rows) + len(taken):
            taken.append(e)
        if len(rows) + len(taken) == target:
            break
    return taken


def complement(s):
    """Canonical coordinate complement: greedy extension by standard basis."""
    field, n = s.field, s.n
    comp = extend_basis(field, s.rows, pj.unit_vectors(field, n), n)
    if len(s.rows) + len(comp) != n:
        raise pj.GeometryError("complement construction failed")
    out, _ = pj.rref(field, comp)
    return pj.Subspace(field, n, tuple(out))


def quadratic_form(field, n, coeff_map):
    """The form sum c_ij x_i x_j over K^n from {(i, j): c_ij}."""
    order = pj.monomial_order(n)
    flat = [field.zero] * len(order)
    for (i, j), c in coeff_map.items():
        flat[order.index((min(i, j), max(i, j)))] = c
    return pj.QuadraticForm(field, n, tuple(flat))


def random_scalar(field, rng, height=50):
    """A random element: uniform over a finite field, and a fraction of
    numerator and denominator up to `height` over Q."""
    if field.is_finite:
        return rng.randrange(field.q)
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)
