"""Cross-path tests for the PG(1) coordinates that certify projectivities
and for regulus membership.

`pj.conic_parameters` (Steiner projection from one conic point) and
`sc.member_parameters` (one common transversal per family) must give the
same cross-ratio, on every ordered quadruple, as the references below:
a projection from a conic point outside the quadruple onto an auxiliary
line, with a tangent from the refitted conic when the centre has to be
in the quadruple, and a common transversal searched afresh for every
quadruple.  Cross-ratios of the references are read through `solve`.

`sc.member_parameters` takes a pencil modulo its vertex by
`Subspace.project`; it must give the None pattern, the coincidences and
the cross-ratios of the same members taken modulo the vertex by the
reference projection onto a coordinate complement.

`sc.frame_transversals` (the e + 1 transversals through a frame) must
select the same spread members as a reference regulus rebuilt from all
q + 1 transversals of a trio, on every trio of a spread."""

import itertools

import pytest

from ringgeom import projective as pj
from ringgeom import scrolls as sc
from ringgeom import veronese as vr
from ringgeom.fields import GF

import quadric_reference as ref
from projective_reference import complement, line_points, subspace_vectors


def _cross_ratio_by_solve(field, p1, p2, p3, p4):
    pts = [tuple(pj.normalize_point(field, p)) for p in (p1, p2, p3, p4)]
    distinct = list(dict.fromkeys(pts))
    u, v = distinct[0], distinct[1]
    assert len(distinct) >= 3 and pj.span(field, pts).vdim == 2
    cs = [pj.solve(field, [u, v], p) for p in pts]

    def det(a, b):
        return field.sub(field.mul(cs[a][0], cs[b][1]),
                         field.mul(cs[b][0], cs[a][1]))

    num = field.mul(det(0, 2), det(1, 3))
    den = field.mul(det(0, 3), det(1, 2))
    return pj.INF if den == field.zero else field.div(num, den)


def _conic_cross_ratio(field, plane, conic_pts, quad):
    """Reference: projection from a conic point onto an auxiliary line."""
    pts = [pj.intrinsic_coords(plane, p) for p in conic_pts]
    quad_i = [pj.intrinsic_coords(plane, p) for p in quad]
    centre = next((p for p in pts if p not in quad_i), quad_i[0])
    aux_line = pj.span(field, [p for p in pts if p != centre][:2], 3)
    images = []
    for p in quad_i:
        if p == centre:
            form = ref.exact_zero_set_forms(field, pts, 3)[0]
            line = pj.span(field, pj.nullspace(field, [form.polar(centre)],
                                               3), 3)
        else:
            line = pj.span(field, [centre, p], 3)
        img = pj.meet(line, aux_line)
        assert img.vdim == 1
        images.append(img.rows[0])
    return _cross_ratio_by_solve(field, *images)


def _spread_cross_ratio(field, members, avoid=None):
    """Reference: a common transversal of the four members avoiding
    `avoid`, searched over the lines joining points of the first two."""
    m1, m2 = members[0], members[1]
    for p in subspace_vectors(m1):
        if avoid is not None and avoid.contains(p):
            continue
        for r in subspace_vectors(m2):
            if avoid is not None and avoid.contains(r):
                continue
            line = pj.span(field, [p, r], m1.n)
            if line.vdim != 2:
                continue
            hits = []
            for m in members:
                mm = pj.meet(line, m)
                if mm.vdim != 1:
                    break
                hits.append(mm.rows[0])
            else:
                if avoid is None or not pj.meet(line, avoid).rows:
                    return _cross_ratio_by_solve(field, *hits)
    raise AssertionError("no common transversal found")


def _assert_conic_paths_agree(field, conic):
    coords = pj.conic_parameters(field, conic)
    plane = pj.span(field, conic)
    for quad in itertools.permutations(range(len(conic)), 4):
        assert pj.cross_ratio(field, *[coords[i] for i in quad]) == \
            _conic_cross_ratio(field, plane, conic, [conic[i] for i in quad])


def _assert_member_paths_agree(field, members, avoid=None):
    coords = sc.member_parameters(field, members, avoid)
    for quad in itertools.permutations(range(len(members)), 4):
        assert pj.cross_ratio(field, *[coords[i] for i in quad]) == \
            _spread_cross_ratio(field, [members[i] for i in quad], avoid)


def _conics(scroll):
    F = scroll.field
    return pj.conic_sections(F, scroll.quadric_pts,
                             pj.span(F, list(scroll.quadric_pts), scroll.n))


def _lifted_pencil(scroll, conic):
    """The regulus of a conic of the regular 2-scroll, lifted into
    PG(3d + 3, q) as 3-spaces through the line spanned by the two new
    unit vectors."""
    F, n = scroll.field, scroll.n
    pair = dict(zip(scroll.quadric_pts, scroll.members))
    avoid = pj.span(F, pj.unit_vectors(F, n + 2)[n:])
    members = [pj.span(F, [r + (F.zero, F.zero) for r in pair[p].rows]
                       + list(avoid.rows)) for p in conic]
    return [p + (F.zero, F.zero) for p in conic], members, avoid


@pytest.mark.parametrize("name", ["variety_f3", "variety_cd_f4"])
def test_projected_conics_and_chi_pencils_match_references(name, request):
    V = request.getfixturevalue(name)
    field = V.field
    _, data = vr.project_from_y(V)
    chi, _ = vr.connection_chi(V, data)
    for key, qpts in sorted(data["quadrics"].items()):
        pts = sorted(qpts)
        for conic in pj.conic_sections(field, pts, pj.span(field, pts)):
            _assert_conic_paths_agree(field, conic)
            _assert_member_paths_agree(field, [chi[p] for p in conic],
                                       data["vertices"][key])


def _assert_projections_agree(field, members, avoid):
    """member_parameters through `avoid` against the members projected
    from it onto complement(avoid) by `pj.Projection`; returns the
    former."""
    proj = pj.Projection(avoid, complement(avoid))
    images = [pj.span(field, [x for x in map(proj.apply, m.rows)
                              if x is not None], avoid.n) for m in members]
    got = sc.member_parameters(field, members, avoid)
    want = sc.member_parameters(field, images)
    assert [c is None for c in got] == [c is None for c in want]
    assert [[a == b for b in got] for a in got] == \
        [[a == b for b in want] for a in want]
    known = [i for i, c in enumerate(got) if c is not None]
    if len(set(got[i] for i in known[:3])) == 3:
        for i in known[3:]:
            assert pj.cross_ratio(field, *[got[j] for j in known[:3]],
                                  got[i]) == \
                pj.cross_ratio(field, *[want[j] for j in known[:3]], want[i])
    return got


@pytest.mark.parametrize("name", ["variety_f3", "variety_cd_f4"])
def test_chi_pencils_modulo_the_vertex_match_the_complement_path(
        name, request, chi_member_off_pencil):
    # every pencil of chi over a conic, and the first one with a member
    # off it
    V = request.getfixturevalue(name)
    field = V.field
    _, data = vr.project_from_y(V)
    chi = data["chi"]
    for key, qpts in sorted(data["quadrics"].items()):
        pts = sorted(qpts)
        for conic in pj.conic_sections(field, pts, pj.span(field, pts)):
            _assert_projections_agree(field, [chi[p] for p in conic],
                                      data["vertices"][key])
    broken, conic, _ = chi_member_off_pencil(V, data, chi, 1)
    vertex = data["vertices"][next(iter(data["quadrics"]))]
    assert _assert_projections_agree(
        field, [broken[p] for p in conic], vertex)[1] is None


def test_counterexample_pencils_match_the_complement_path(counterexample):
    # at each vertex line V of the counterexample: the planes <V, p> over
    # the points p of a line joining two generators, and last one through
    # a third generator, off that pencil
    ce = counterexample
    field, n = ce.field, ce.n
    seen = set()
    for t in ce.tubes:
        if t.vertex.rows in seen:
            continue
        seen.add(t.vertex.rows)
        x, y, z = (field.unpack(min(g)) for g in t.generators[:3])
        members = [pj.span(field, t.vertex.rows + (p,), n)
                   for p in line_points(field, x, y) + [z]]
        coords = _assert_projections_agree(field, members, t.vertex)
        assert coords[-1] is None and None not in coords[:-1]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_cubic_scroll_conic_and_member_pencil_match_references(q):
    s = sc.canonical_cubic_scroll(GF(q))
    _assert_conic_paths_agree(s.field, s.quadric_pts)
    _assert_member_paths_agree(s.field, s.members)


@pytest.mark.parametrize("q", [3, 4])
def test_regular_2_scroll_reguli_match_references(q):
    s = sc.canonical_regular_scroll(2, q)
    pair = dict(zip(s.quadric_pts, s.members))
    for conic in _conics(s)[:3]:
        _assert_conic_paths_agree(s.field, conic)
        _assert_member_paths_agree(s.field, [pair[p] for p in conic])


@pytest.mark.parametrize("q", [3, 4])
def test_lifted_pencils_of_3_spaces_match_reference(q):
    s = sc.canonical_regular_scroll(2, q)
    conic, members, avoid = _lifted_pencil(s, _conics(s)[0])
    _assert_member_paths_agree(s.field, members, avoid)
    assert sc.projectivity_witness(s.field, conic, members, avoid) is None
    # PGL(2, 3) is all of S_4 on four points, so only q >= 4 has a swap
    # that is no projectivity
    if q >= 4:
        members[3], members[4] = members[4], members[3]
        assert sc.projectivity_witness(s.field, conic, members,
                                       avoid) == conic[3]


def _transversals_of_triple(s1, s2, s3):
    """Reference: common transversal lines of three pairwise disjoint
    (e-1)-spaces spanning a (2e-1)-space; one through each point of s1."""
    out = []
    for p in subspace_vectors(s1):
        t = sc.transversal(p, s2, s3)
        if t.vdim != 2:
            raise pj.GeometryError("triple admits no transversal through %r"
                                   % (p,))
        for s in (s1, s2, s3):
            if pj.meet(t, s).vdim != 1:
                raise pj.GeometryError("transversal misses a member")
        out.append(t)
    return out


def _regulus(s1, s2, s3):
    """Reference: the regulus through three pairwise disjoint lines of a
    PG(3, q), all lines meeting every common transversal."""
    field = s1.field
    for a, b in itertools.combinations((s1, s2, s3), 2):
        if pj.meet(a, b).rows:
            raise pj.GeometryError("regulus inputs are not pairwise disjoint")
    if s1.vdim != 2:
        raise pj.GeometryError("regulus implemented for line spreads only")
    ts = _transversals_of_triple(s1, s2, s3)
    t0, t1, t2 = ts[0], ts[1], ts[2]
    members = []
    for x in subspace_vectors(t0):
        u1 = pj.span(field, list(t1.rows) + [x], s1.n)
        u2 = pj.span(field, list(t2.rows) + [x], s1.n)
        m = pj.meet(u1, u2)
        if m.vdim != 2:
            raise pj.GeometryError("regulus reconstruction failed")
        if all(pj.meet(m, t).vdim == 1 for t in ts):
            members.append(m)
    if len(members) != field.q + 1:
        raise pj.GeometryError("regulus has %d != q+1 members" % len(members))
    return members


def _reversed_spread(q):
    """regular_spread(2, q) with the regulus of its first three members
    replaced by the opposite regulus, their transversals: a spread again
    (the derivation behind the Hall plane), and not a regular one."""
    sp = sc.regular_spread(2, q)
    reg = {m.rows for m in _regulus(*sp.members[:3])}
    return sc.Spread(sp.field, sp.n, tuple(
        [m for m in sp.members if m.rows not in reg]
        + _transversals_of_triple(*sp.members[:3])))


@pytest.mark.parametrize("kind,q", [("regular", 2), ("regular", 3),
                                    ("regular", 4), ("regular", 5),
                                    ("reversed", 3), ("reversed", 4)])
def test_frame_transversals_select_the_reference_regulus(kind, q):
    sp = sc.regular_spread(2, q) if kind == "regular" else _reversed_spread(q)
    points = {m.rows: set(m.points()) for m in sp.members}
    # three lines of a regulus determine it, so the reference is rebuilt
    # once per regulus and read for each trio of its lines
    reguli = {}
    for trio in itertools.combinations(sp.members, 3):
        key = frozenset(m.rows for m in trio)
        if key not in reguli:
            reg = frozenset(m.rows for m in _regulus(*trio))
            reguli.update(dict.fromkeys(
                map(frozenset, itertools.combinations(reg, 3)), reg))
        # a member meets a line in one point iff they share one point
        lines = [set(t.points()) for t in sc.frame_transversals(*trio)]
        selected = {r for r, pts in points.items()
                    if all(len(pts & t) == 1 for t in lines)}
        assert selected == reguli[key] & set(points)


@pytest.mark.parametrize("q", [3, 4])
def test_reversed_spread_is_not_regular(q):
    sp = _reversed_spread(q)
    assert len(sp.members) == q * q + 1
    assert not sc.is_regular_spread(sp)
