"""Test-side helpers for `projective` and `fields`: the tuple enumeration
of the points of a span that `Subspace.points` packs into int codes, the
points of a line, a coordinate complement of a subspace (with the
reference projection onto it, `pj.Projection`, against which
`Subspace.project` is checked), quadratic forms from coefficient maps,
and random field elements for property tests."""

from fractions import Fraction

from ringgeom import projective as pj


def span_points(field, rows):
    """The points c . rows of the span of echelon rows, c running over
    `pg_parameters`, so each is normalized; at most one row addition per
    point.  The points with leading coefficient at row i are built row
    by row: each partial sum b is followed by b plus the nonzero
    multiples of the next row (0 is the first element)."""
    add, scale = field.row_add, field.row_scale
    nonzero = list(field.elements())[1:]
    out = []
    for lead, row in enumerate(rows):
        level = [tuple(row)]
        for nxt in rows[lead + 1:]:
            multiples = [scale(c, nxt) for c in nonzero]
            level = [p for b in level
                     for p in [b] + [add(b, m) for m in multiples]]
        out.extend(level)
    return out


def subspace_vectors(s):
    """The points of the subspace s as vectors, in `Subspace.points`
    order."""
    return [pj.code_point(s.field, s.n, c) for c in s.points()]


def line_points(field, u, v):
    """All points of the projective line through distinct points u, v."""
    pts = [tuple(u)]
    for lam in field.elements():
        w = field.row_add(field.row_scale(lam, u), v)
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
