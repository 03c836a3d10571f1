import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ringgeom.fields import GF, FieldError, parse_field
from ringgeom import projective as pj
from ringgeom.projective import (span, meet, normalize_point,
                                 quadric_vertex, is_ovoid, cross_ratio, INF,
                                 Projection)

import projective_reference as kref
from projective_reference import (complement, line_points, quadratic_form,
                                  random_scalar, span_points,
                                  subspace_vectors, vec_add, vec_scale)
from quadric_reference import (bilinear, quadric_zero_set, witt_index,
                               exact_zero_set_forms, vertex_points)


def test_pg_point_counts():
    for n, q in [(3, 2), (3, 3), (4, 2), (5, 3), (9, 2)]:
        assert len(list(pj.pg_parameters(GF(q), n))) == (q ** n - 1) // (q - 1)


def test_meet_of_hyperplanes_pg42():
    F = GF(2)
    h1 = span(F, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                  (0, 0, 0, 1, 0)])
    h2 = span(F, [(0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                  (0, 0, 0, 0, 1)])
    assert meet(h1, h2).pdim == 2


def test_span_of_frame_is_whole_space():
    F = GF(2)
    frame = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 1, 1)]
    assert span(F, frame).pdim == 3


def test_complement_properties():
    F = GF(3)
    s = span(F, [(1, 0, 2, 1, 0), (0, 1, 1, 1, 2)])
    c = complement(s)
    assert not meet(s, c).rows
    assert span(F, s.rows + c.rows).vdim == 5


def test_ambient_mismatch_errors():
    F = GF(2)
    s = span(F, [(1, 0)])
    t = span(F, [(1, 0, 0)])
    with pytest.raises(pj.GeometryError):
        meet(s, t)


@pytest.mark.parametrize("q", [2, 3])
def test_elliptic_quadric_pg3(q):
    # x0 x1 + n(x2, x3) with n an irreducible binary quadratic
    F = GF(q)
    if q == 2:
        coeffs = {(0, 1): 1, (2, 2): 1, (2, 3): 1, (3, 3): 1}
    else:
        coeffs = {(0, 1): 1, (2, 2): 1, (3, 3): 1}
    qf = quadratic_form(F, 4, coeffs)
    pts = quadric_zero_set(qf)
    assert len(pts) == q * q + 1
    assert quadric_vertex(qf).pdim == -1
    assert witt_index(qf) == 1
    ambient = span(F, [tuple(F.one if j == i else F.zero for j in range(4))
                       for i in range(4)])
    assert is_ovoid(F, pts, ambient)


def test_hyperbolic_quadric_witt_2():
    F = GF(3)
    qf = quadratic_form(F, 4, {(0, 1): 1, (2, 3): 1})
    assert witt_index(qf) == 2


def test_cone_vertex_and_projection():
    # cone over a conic: x0 x1 = x2^2 in PG(3, 3), vertex (0,0,0,1)
    F = GF(3)
    qf = quadratic_form(F, 4, {(0, 1): 1, (2, 2): F.neg(1)})
    v = quadric_vertex(qf)
    assert v.pdim == 0 and v.rows[0] == (0, 0, 0, 1)
    zeros = quadric_zero_set(qf)
    for r in subspace_vectors(v):
        assert qf.evaluate(r) == F.zero
    # projecting the zero set from the vertex leaves a vertex-free conic
    proj = Projection(v, complement(v))
    imgs = sorted({proj.apply(p) for p in zeros if not v.contains(p)})
    forms = exact_zero_set_forms(F, [pj.intrinsic_coords(complement(v), p)
                                     for p in imgs], 3)
    assert forms and all(quadric_vertex(f).pdim == -1 for f in forms[:1])


def test_frame_is_not_ovoid():
    F = GF(2)
    ambient = span(F, [tuple(F.one if j == i else F.zero for j in range(4))
                       for i in range(4)])
    frame4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert not is_ovoid(F, frame4, ambient)


def test_conic_is_ovoid():
    F = GF(3)
    qf = quadratic_form(F, 3, {(0, 2): 1, (1, 1): F.neg(1)})
    pts = quadric_zero_set(qf)
    plane = span(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_ovoid(F, pts, plane)


def test_cross_ratio_harmonic():
    F = GF(5)
    cr = cross_ratio(F, (1, 0), (0, 1), (1, 1), (1, F.neg(1)))
    assert cr == F.neg(1)


def test_cross_ratio_degenerate_convention():
    # with the (l1-l3)(l2-l4) / ((l1-l4)(l2-l3)) arrangement, p4 = p1
    # zeroes the denominator, so the conventional value is infinity
    F = GF(5)
    assert cross_ratio(F, (1, 0), (0, 1), (1, 1), (1, 0)) == INF
    assert cross_ratio(F, (1, 0), (0, 1), (1, 0), (1, 1)) == F.zero


def test_cross_ratio_noncollinear_errors():
    F = GF(3)
    with pytest.raises(pj.GeometryError):
        cross_ratio(F, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def test_cross_ratio_reparametrization_invariance():
    F = GF(5)
    rng = random.Random(0)
    count = 0
    while count < 1000:
        # four points on the line spanned by u, v with distinct parameters
        lams = rng.sample(range(6), 4)   # 5 affine slots + infinity

        def pt(l, u, v):
            if l == 5:
                return v
            return normalize_point(F, vec_add(F, u, vec_scale(F, l, v)))
        u, v = (1, 0), (0, 1)
        quad = [pt(l, u, v) for l in lams]
        base = cross_ratio(F, *quad)
        # random invertible reparametrization of the line
        while True:
            m = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
            det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % 5
            if det:
                break
        quad2 = [normalize_point(F, pj.vec_mat(F, p, m)) for p in quad]
        assert cross_ratio(F, *quad2) == base
        count += 1


def test_modular_law_seeded():
    # span(x, meet(y, z)) == meet(span(x, y), z) whenever x <= z
    F = GF(3)
    rng = random.Random(1)
    n = 7

    def random_subspace(k):
        rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(k)]
        return span(F, rows, n)

    for _ in range(1000):
        z = random_subspace(rng.randint(3, 6))
        if not z.rows:
            continue
        xrows = [z.rows[i] for i in
                 sorted(rng.sample(range(z.vdim), max(1, z.vdim // 2)))]
        x = span(F, xrows, n)
        y = random_subspace(rng.randint(2, 5))
        lhs = span(F, x.rows + meet(y, z).rows, n)
        rhs = meet(span(F, x.rows + y.rows, n), z)
        assert lhs == rhs


def test_subspace_equality_is_canonical():
    F = GF(2)
    s1 = span(F, [(1, 1, 0), (0, 1, 1)])
    s2 = span(F, [(1, 0, 1), (0, 1, 1)])
    assert s1 == s2 and s1.rows == s2.rows


def test_json_serialization_roundtrip():
    F = GF(3)
    qf = quadratic_form(F, 3, {(0, 2): 1, (1, 1): 2})
    data = pj.quadric_to_json(qf)
    assert data == {"0,2": 1, "1,1": 2}


def test_char2_forms_kept_upper_triangular():
    # in char 2 the bilinearization of x0 x1 is alternating and would not
    # determine the form; the stored table must survive the round trip
    F = GF(2)
    qf = quadratic_form(F, 2, {(0, 0): 1, (0, 1): 1})
    assert qf.evaluate((1, 0)) == F.one
    assert qf.evaluate((1, 1)) == F.zero
    assert bilinear(qf, (1, 0), (1, 0)) == F.zero


# --------------------------------------------------------------------------
# is_ovoid and gram_rows against their definitions

def _is_ovoid_by_lines(field, points, within):
    """The definition, walked line by line: the points span `within`, no
    line carries three of them, and at each point the tangent lines (the
    lines through it with no other point) span a hyperplane."""
    pts = [pj.intrinsic_coords(within, p) for p in points]
    k = within.vdim
    if len(pts) != len(set(pts)) or len(pj.rref(field, pts)[0]) != k:
        return False
    pointset = set(pts)
    for x in pts:
        tangent, seen = {x}, set()
        for y in pj.pg_parameters(field, k):
            if y == x or y in seen:
                continue
            line = line_points(field, x, y)
            seen.update(line)
            hits = sum(1 for p in line if p in pointset)
            if hits > 2:
                return False
            if hits == 1:
                tangent.update(line)
        if len(pj.rref(field, sorted(tangent))[0]) != k - 1:
            return False
    return True


def _whole_space(field, k):
    return span(field, pj.unit_vectors(field, k))


def _conic(F):
    return quadric_zero_set(quadratic_form(F, 3, {(0, 2): 1,
                                                  (1, 1): F.neg(1)}))


def _elliptic_quadric(F):
    """x0 x1 + x2^2 + b x2 x3 + c x3^2 with t^2 + b t + c irreducible."""
    for b, c in itertools.product(F.elements(), repeat=2):
        if all(F.add(F.mul(t, F.add(t, b)), c) != F.zero
               for t in F.elements()):
            return quadric_zero_set(quadratic_form(
                F, 4, {(0, 1): 1, (2, 2): 1, (2, 3): b, (3, 3): c}))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_is_ovoid_matches_lines_conic(q):
    F = GF(q)
    pts = _conic(F)
    assert len(pts) == q + 1
    assert is_ovoid(F, pts, _whole_space(F, 3))
    assert _is_ovoid_by_lines(F, pts, _whole_space(F, 3))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_is_ovoid_matches_lines_elliptic_quadric(q):
    F = GF(q)
    pts = _elliptic_quadric(F)
    assert len(pts) == q * q + 1
    assert is_ovoid(F, pts, _whole_space(F, 4))
    assert _is_ovoid_by_lines(F, pts, _whole_space(F, 4))


def test_hyperoval_is_not_ovoid():
    # the conic x0 x2 = x1^2 of PG(2, 4) and its nucleus: six points, no
    # three collinear, but no tangent at any point
    F = GF(4)
    pts = _conic(F) + [(0, 1, 0)]
    assert len(pts) == 6
    assert all(len(pj.rref(F, trio)[0]) == 3
               for trio in itertools.combinations(pts, 3))
    assert not is_ovoid(F, pts, _whole_space(F, 3))
    assert not _is_ovoid_by_lines(F, pts, _whole_space(F, 3))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_conic_with_a_moved_point_is_not_ovoid(q):
    F = GF(q)
    conic = _conic(F)
    moved = next(p for p in pj.pg_parameters(F, 3) if p not in conic)
    pts = conic[1:] + [moved]
    assert not is_ovoid(F, pts, _whole_space(F, 3))
    assert not _is_ovoid_by_lines(F, pts, _whole_space(F, 3))


@st.composite
def _point_sets(draw):
    """Any point set, or an oval or ovoid with one point dropped, one
    added, both or neither."""
    q = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.sampled_from([3, 4]))
    F = GF(q)
    ambient = list(pj.pg_parameters(F, k))
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, len(ambient) - 1), min_size=1,
                            max_size=q * q + 2, unique=True))
        return q, [ambient[i] for i in idx]
    pts = _conic(F) if k == 3 else _elliptic_quadric(F)
    if draw(st.booleans()):
        del pts[draw(st.integers(0, len(pts) - 1))]
    if draw(st.booleans()):
        extra = draw(st.sampled_from(ambient))
        if extra not in pts:
            pts.append(extra)
    return q, pts


@given(_point_sets())
@settings(max_examples=150, deadline=None)
def test_is_ovoid_matches_lines_hypothesis(case):
    q, pts = case
    F = GF(q)
    within = span(F, pts)
    assert is_ovoid(F, pts, within) == _is_ovoid_by_lines(F, pts, within)


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "Q"])
def test_gram_rows_match_polarization(name):
    F = parse_field(name)
    rng = random.Random(7)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            qf = pj.QuadraticForm(F, n, tuple(
                random_scalar(F, rng, 4) for _ in pj.monomial_order(n)))
            gram = qf.gram_rows()
            basis = pj.unit_vectors(F, n)
            assert gram == [tuple(bilinear(qf, u, v) for v in basis)
                            for u in basis]
            u = tuple(random_scalar(F, rng, 4) for _ in range(n))
            v = tuple(random_scalar(F, rng, 4) for _ in range(n))
            ugv = F.zero
            for a, b in zip(pj.vec_mat(F, u, gram), v):
                ugv = F.add(ugv, F.mul(a, b))
            assert ugv == bilinear(qf, u, v)


# --------------------------------------------------------------------------
# the class of a form against enumeration

def _assert_class_matches_enumeration(qf):
    # the vertex, the zero count and the Witt index read off the class
    # are those of the zero set: a maximal totally singular subspace is
    # the vertex plus one of the nondegenerate part
    vert, m, w = pj.quadric_class(qf)
    r = vert.vdim
    assert set(subspace_vectors(vert)) == vertex_points(qf)
    assert m == qf.n - r and 0 <= 2 * w <= m
    assert pj.zero_count(qf.field.q, r, m, w) == len(quadric_zero_set(qf))
    assert r + w == witt_index(qf)


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                  (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_class_matches_enumeration_on_every_form(q, n):
    F = GF(q)
    for coeffs in itertools.product(F.elements(), repeat=n * (n + 1) // 2):
        if any(coeffs):
            _assert_class_matches_enumeration(pj.QuadraticForm(F, n, coeffs))


@st.composite
def _forms(draw):
    """A nonzero form in 4 to 6 variables over F3, F4 or F5, degenerate
    ones included: some variables are dropped and most coefficients are
    0."""
    q = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(4, 6))
    dropped = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    coeffs = tuple(0 if i in dropped or j in dropped else
                   draw(st.sampled_from([0, 0] + list(range(1, q))))
                   for i, j in pj.monomial_order(n))
    assume(any(coeffs))
    return pj.QuadraticForm(GF(q), n, coeffs)


@given(_forms())
@settings(max_examples=60, deadline=None)
def test_class_matches_enumeration_hypothesis(qf):
    _assert_class_matches_enumeration(qf)


def test_cone_forms_reject_a_vertex_on_the_points():
    # the cone x0 x1 = x2^2 of PG(3, 3) less one point off its vertex:
    # the cone form has |points| + |vertex| zeros, but its vertex is one
    # of the points and the dropped point is a zero too
    F = GF(3)
    cone = quadratic_form(F, 4, {(0, 1): 1, (2, 2): F.neg(1)})
    zeros = quadric_zero_set(cone)
    assert zeros[0] == (1, 0, 0, 0) and len(zeros) == 13
    assert pj.cone_forms(F, zeros[1:], 4)[1] == []
    (qf, vert, w), = pj.cone_forms(F, [p for p in zeros
                                       if p != (0, 0, 0, 1)], 4)[1]
    assert vert.rows == ((0, 0, 0, 1),) and w == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_zero_counts_of_the_nondegenerate_classes(q):
    # parabolic, hyperbolic and elliptic quadrics of PG(2), PG(3), PG(5)
    # and a cone with a vertex line over a conic
    assert pj.zero_count(q, 0, 3, 1) == q + 1
    assert pj.zero_count(q, 0, 4, 2) == (q + 1) ** 2
    assert pj.zero_count(q, 0, 4, 1) == q * q + 1
    assert pj.zero_count(q, 0, 6, 2) == (q ** 3 + 1) * (q + 1)
    assert pj.zero_count(q, 2, 3, 1) == q * q * (q + 1) + q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_span_points_match_coefficient_enumeration(q):
    # the points of a span in pg_parameters order of their coordinates,
    # each normalized, against one vec_mat per coefficient tuple; the
    # package's packed rows are those of the same points, in that order
    F = GF(q)
    rng = random.Random(q)
    for k, n in ((1, 3), (2, 4), (3, 6), (4, 5)):
        sub = pj.span(F, [tuple(rng.randrange(q) for _ in range(n))
                          for _ in range(k)], n)
        rows = sub.rows
        ref = [pj.vec_mat(F, c, rows)
               for c in pj.pg_parameters(F, len(rows))]
        pts = span_points(F, rows)
        assert pts == ref
        assert len(set(pts)) == (q ** len(rows) - 1) // (q - 1)
        assert all(pj.normalize_point(F, p) == p for p in pts)
        assert sub.points() == [F.pack(p) for p in pts]
    assert span_points(F, ()) == []
    assert pj.Subspace(F, 3, ()).points() == []


@st.composite
def _subspaces(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25]))
    F = GF(q)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 4 if q < 7 else 3)))
    vecs = [tuple(draw(st.integers(0, q - 1)) for _ in range(n))
            for _ in range(k)]
    return pj.span(F, vecs, n)


@given(_subspaces())
@settings(max_examples=150, deadline=None)
def test_point_codes_match_the_tuple_enumeration_hypothesis(sub):
    # the points are the packed rows of the reference enumeration, in
    # order; unpack inverts pack; sorted rows are the sorted tuples
    F = sub.field
    ref = span_points(F, sub.rows)
    rows = sub.points()
    assert rows == [F.pack(p) for p in ref]
    assert [F.unpack(b) for b in rows] == ref
    assert [F.unpack(b) for b in sorted(rows)] == sorted(ref)
    assert len(set(rows)) == len(ref)


@st.composite
def _kernels_and_vectors(draw):
    """A subspace K of F^n, F one of F2..F9 or Q, and vectors around
    it: random ones, and a multiple of each plus a vector of K."""
    F = parse_field(draw(st.sampled_from(
        ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "Q"])))
    scalar = st.integers(0, F.q - 1) if F.is_finite else \
        st.fractions(-5, 5, max_denominator=5)
    n = draw(st.integers(1, 6))
    vec = st.tuples(*[scalar] * n)
    K = span(F, draw(st.lists(vec, max_size=n)), n)
    vecs = draw(st.lists(vec, min_size=1, max_size=4))
    for v in list(vecs):
        w = vec_scale(F, draw(scalar), v)
        if K.rows:
            w = vec_add(F, w, pj.vec_mat(F, draw(st.tuples(
                *[scalar] * K.vdim)), K.rows))
        vecs.append(w)
    return K, vecs


@given(_kernels_and_vectors())
@settings(max_examples=200, deadline=None)
def test_project_matches_the_projection_onto_a_complement_hypothesis(case):
    # K.project and the reference projection onto complement(K) have one
    # kernel: they are None at the same vectors and have the same fibres;
    # each image is normalized, vanishes at K's pivots and spans with K
    # what its vector does
    K, vecs = case
    F = K.field
    reference = Projection(K, complement(K))
    got = [K.project(v) for v in vecs]
    want = [reference.apply(v) for v in vecs]
    assert [g is None for g in got] == [w is None for w in want]
    assert [[a == b for b in got] for a in got] == \
        [[a == b for b in want] for a in want]
    pivots = [next(i for i, a in enumerate(r) if a != F.zero)
              for r in K.rows]
    for v, g in zip(vecs, got):
        if g is not None:
            assert normalize_point(F, g) == g
            assert all(g[c] == F.zero for c in pivots)
            assert span(F, K.rows + (g,), K.n) == \
                span(F, K.rows + (tuple(v),), K.n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 49, 127])
def test_point_codes_order_and_round_trip_on_all_of_pg2(q):
    # every point of PG(2, q), and every vector of one coordinate: packed
    # rows sort as the tuples do and unpack to them, also for the odd
    # extensions, whose storage codes are base-(2p - 1) digits
    F = GF(q)
    pts = list(pj.pg_parameters(F, 3))
    rows = [F.pack(p) for p in pts]
    assert [F.unpack(b) for b in rows] == pts
    assert [F.unpack(b) for b in sorted(rows)] == sorted(pts)
    singles = [F.pack((a,)) for a in F.elements()]
    assert singles == sorted(singles) and len(set(singles)) == q
    assert pj.span(F, pj.unit_vectors(F, 3), 3).points() == rows
    # the plane of the rows e_i + c e_3, c of the largest code: over F_127
    # a point's last entry sums three codes, past a byte, so the points
    # are reduced between levels
    plane = pj.span(F, [u + (q - 1,) for u in pj.unit_vectors(F, 3)], 4)
    assert plane.points() == [F.pack(p) for p in span_points(F, plane.rows)]


# --------------------------------------------------------------------------
# the packed-row kernel against the tuple kernel of projective_reference

CROSS_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F25", "Q"]


def _outcome(compute):
    """compute(), or the name of the FieldError it raises: over Q both
    kernels must hit the height guard on the same inputs."""
    try:
        return compute()
    except FieldError:
        return "FieldError"


def _kernel_mismatches(F, rows, other, coeffs, v):
    """The names of the kernel results on these inputs that differ from
    the tuple kernel's: rref rows and pivots, nullspace, span, meet,
    reduce and project, and v . M for M given as rows and as a `Matrix`
    (its application and a product through it)."""
    n, product = len(v), [coeffs, coeffs[::-1]]
    pairs = {
        "rref": (lambda: pj.rref(F, rows), lambda: kref.rref(F, rows)),
        "nullspace": (lambda: pj.nullspace(F, rows, n),
                      lambda: kref.nullspace(F, rows, n)),
        "span": (lambda: span(F, rows, n), lambda: kref.span(F, rows, n)),
        "meet": (lambda: meet(span(F, rows, n), span(F, other, n)),
                 lambda: kref.meet(kref.span(F, rows, n),
                                   kref.span(F, other, n))),
        "reduce": (lambda: span(F, rows, n).reduce(v),
                   lambda: kref.reduce(kref.span(F, rows, n), v)),
        "project": (lambda: span(F, rows, n).project(v),
                    lambda: kref.normalized(F, kref.reduce(
                        kref.span(F, rows, n), v)))}
    if rows:
        pairs.update({
            "vec_mat": (lambda: pj.vec_mat(F, coeffs, rows),
                        lambda: kref.vec_mat(F, coeffs, rows)),
            "apply": (lambda: pj.vec_mat(F, coeffs, pj.Matrix(F, rows)),
                      lambda: kref.vec_mat(F, coeffs, rows)),
            "product": (lambda: pj.mat_mul(F, product, pj.Matrix(F, rows)),
                        lambda: [kref.vec_mat(F, c, rows) for c in product])})
    return sorted(k for k, (got, want) in pairs.items()
                  if _outcome(got) != _outcome(want))


@st.composite
def _kernel_inputs(draw, names=CROSS_FIELDS):
    F = parse_field(draw(st.sampled_from(names)))
    scalar = st.integers(0, F.q - 1) if F.is_finite else \
        st.fractions(-5, 5, max_denominator=5)
    n = draw(st.integers(1, 7))
    vec = st.tuples(*[scalar] * n)
    rows, other = (draw(st.lists(vec, max_size=7)) for _ in "ro")
    coeffs = draw(st.tuples(*[scalar] * len(rows)))
    return F, rows, other, coeffs, draw(vec)


@given(_kernel_inputs())
@settings(max_examples=400, deadline=None)
def test_packed_kernel_matches_the_tuple_kernel_hypothesis(case):
    assert _kernel_mismatches(*case) == []


def _random_inputs(F, rng, count=60):
    """Random kernel inputs over F, dense enough to use every scalar."""
    for _ in range(count):
        n = rng.randrange(2, 7)
        vec = lambda: tuple(rng.randrange(F.q) for _ in range(n))
        rows = [vec() for _ in range(rng.randrange(1, 7))]
        yield F, rows, [vec() for _ in range(rng.randrange(1, 7))], \
            tuple(rng.randrange(F.q) for _ in rows), vec()


@pytest.mark.parametrize("q", [3, 4, 9, 25])
def test_a_wrong_translate_table_entry_is_caught(q):
    # c a for c = the element of index 2 and a = the one: one entry of
    # the table of c is planted wrong, and the kernel leaves the reference
    F = GF(q)
    rng = random.Random(q)
    assert not any(_kernel_mismatches(*c) for c in _random_inputs(F, rng))
    code = F.pack((2,))[0]
    table = bytearray(F._scale[code])
    table[F.one] = F.pack((F.add(2, F.one),))[0]
    F._scale[code] = bytes(table)
    assert any(_kernel_mismatches(*c) for c in _random_inputs(F, rng))


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_a_wrong_reduce_table_entry_is_caught(q):
    # the sum of the codes of 1 and 1 reduces to the code of 1 + 1; it is
    # planted as the code of 0
    F = GF(q)
    rng = random.Random(q)
    assert not any(_kernel_mismatches(*c) for c in _random_inputs(F, rng))
    table = bytearray(F._reduce)
    table[2 * F.one] = 0
    F._reduce = bytes(table)
    assert any(_kernel_mismatches(*c) for c in _random_inputs(F, rng))


def test_a_matrix_keeps_the_rows_it_was_packed_from():
    # a Matrix holds its rows as a tuple of tuples, packed when it is
    # built: changing the list it came from changes neither
    F = GF(3)
    rows = [[1, 2, 0], [0, 1, 1]]
    M = pj.Matrix(F, rows)
    rows[0][0] = 2
    assert M.rows == ((1, 2, 0), (0, 1, 1))
    assert pj.vec_mat(F, (1, 1), M) == (1, 0, 1)
