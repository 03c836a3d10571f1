import dataclasses
import itertools
import json

import pytest

from ringgeom import algebras as alg
from ringgeom import cli
from ringgeom import f2geom as f2
from ringgeom import hjplane as hp
from ringgeom import projective as pj
from ringgeom import scrolls as sc
from ringgeom import veronese as vr

import quadric_reference as ref
from projective_reference import (complement, line_points,
                                  quadratic_form, subspace_vectors)
from plane_reference import (encode, projective_equivalence,
                             pstar_is_residue_plane_by_search)


def test_veronese_point_images(algebra_cd_f3):
    A = algebra_cd_f3
    F = A.field
    zero, one = A.zero(), A.one()
    # (1, 0, 0) -> (1, 0, 0; 0, 0, 0)
    img = vr.veronese_point(A, encode(A, ("P", 1, one, zero, zero)))
    assert img == (1, 0, 0) + (0,) * 6
    # (0, 0, 1) -> (0, 0, 1; 0, 0, 0)
    img = vr.veronese_point(A, encode(A, ("P", 0, zero, zero, one)))
    assert img == (0, 0, 1) + (0,) * 6
    # (0, y, 1) -> (0, N(y), 1; y, 0, 0) up to normalization
    for y in A.elements():
        p = encode(A, ("P", 0, zero, y, one))
        img = vr.veronese_point(A, p)
        vec = (F.zero, A.norm(y), F.one) + y + zero + zero
        assert img == pj.normalize_point(F, vec)


def test_build_counts(variety_f2, variety_f3):
    assert len(variety_f2.points) == 28 and variety_f2.ambient_pdim == 8
    assert len(variety_f3.points) == 117 and variety_f3.ambient_pdim == 8


def _vectors(variety, packed):
    """The points with the given packed rows, as vectors, in row order."""
    return [variety.field.unpack(b) for b in sorted(packed)]


def test_line_100_equations(variety_f3, algebra_cd_f3):
    # xi of [1, 0, 0] is cut out by K0 = A1 = A2 = 0 (five conditions)
    A = algebra_cd_f3
    plane = variety_f3.plane
    l = encode(A, ("L", 1, A.one(), A.zero(), A.zero()))
    li = plane.line_index[l]
    tube = variety_f3.tubes[li]
    assert tube.xi.pdim == 3
    for p in _vectors(variety_f3, tube.xi_pts):
        assert p[0] == 0 and p[5:] == (0,) * 4
    # the X-points on it satisfy K1 K2 = n'(B00)
    F = A.field
    for p in _vectors(variety_f3, tube.xi_pts & variety_f3.point_set):
        assert F.mul(p[1], p[2]) == F.mul(p[3], p[3])


def test_tube_data(variety_f3, variety_cd_f4, counterexample):
    for t in variety_f3.tubes:
        assert t.fit_count == 1
        assert t.v == 0 and t.d_base == 1
        assert t.base_ovoid and t.base_witt == 1
    # the stored point sets of extracted, transported (CD(F4,0)) and
    # synthetic tubes: the vertex lies in xi and misses X, so the cone
    # is X(xi) plus the vertex, and x_idx lists X(xi)
    for V in (variety_f3, variety_cd_f4, counterexample):
        for t in V.tubes:
            assert not (t.vertex_pts & V.point_set)
            assert t.vertex_pts <= t.xi_pts
            assert t.x_idx == tuple(sorted(
                V.point_index[p] for p in t.xi_pts & V.point_set))


def test_tubic_space_intersection_point(variety_f3, algebra_cd_f3):
    A = algebra_cd_f3
    plane = variety_f3.plane
    l1 = encode(A, ("L", 1, A.one(), A.zero(), A.zero()))
    l2 = encode(A, ("L", 0, A.zero(), A.one(), A.zero()))
    t1 = variety_f3.tubes[plane.line_index[l1]]
    t2 = variety_f3.tubes[plane.line_index[l2]]
    inter = t1.xi_pts & t2.xi_pts
    assert _vectors(variety_f3, inter) == [(0, 0, 1, 0, 0, 0, 0, 0, 0)]
    assert inter <= variety_f3.point_set


def test_axioms_f2_f3(variety_f2, variety_f3):
    for v in (variety_f2, variety_f3):
        assert vr.check_h1(v)["ok"]
        assert vr.check_h2star(v)["ok"]
        assert vr.check_property_v(v)["ok"]


def test_singular_line_law_f3(variety_f3):
    # a line with >= 3 points in X u Y is singular with exactly one Y-point
    # when it meets X
    field = variety_f3.field
    y, verts, _ = vr.vertex_space_y(variety_f3)
    ypts = set(subspace_vectors(y))
    xpts = set(_vectors(variety_f3, variety_f3.point_set))
    both = sorted(xpts | ypts)
    seen = set()
    for u, v in itertools.combinations(both, 2):
        line = frozenset(line_points(field, u, v))
        if line in seen:
            continue
        seen.add(line)
        inside = line & (xpts | ypts)
        if len(inside) <= 2:
            continue
        assert inside == line        # singular
        if line & xpts:
            assert len(line & ypts) == 1


def test_unique_tube_law(variety_f3):
    # non-collinear points lie in exactly one tube
    field = variety_f3.field
    y, _, _ = vr.vertex_space_y(variety_f3)
    ypts = set(subspace_vectors(y))
    pts = variety_f3.points
    through = variety_f3.tubes_through
    for i, j in itertools.combinations(range(len(pts)), 2):
        line = set(line_points(field, pts[i], pts[j]))
        collinear = bool(line & ypts)
        common = set(through[i]) & set(through[j])
        if not collinear:
            assert len(common) == 1
        else:
            assert len(common) > 1


def test_tube_intersection_dichotomy(variety_f3):
    # two distinct tubes meet in an X-point or a full generator
    for t1, t2 in itertools.combinations(variety_f3.tubes, 2):
        inter = t1.xi_pts & t2.xi_pts & variety_f3.point_set
        if len(inter) == 1:
            continue
        assert inter in set(t1.generators) and inter in set(t2.generators)


def test_tangent_space_complementarity(variety_f3):
    # T_x ^ Y = Pi_x^Y; T_x and <C*> complementary for vertices not
    # collinear with x
    field = variety_f3.field
    y, _, _ = vr.vertex_space_y(variety_f3)
    for pi in range(0, len(variety_f3.points), 29):
        tx = vr.tangent_space(variety_f3, pi)
        piy_rows = []
        for ti in variety_f3.tubes_through[pi]:
            piy_rows.extend(variety_f3.tubes[ti].vertex.rows)
        piy = pj.span(field, piy_rows, variety_f3.n)
        assert pj.meet(tx, y) == piy
        for t in variety_f3.tubes:
            if pj.meet(t.vertex, piy).rows:
                continue
            u = pj.meet(tx, t.xi)
            assert not u.rows
            assert pj.span(field, tx.rows + t.xi.rows,
                           variety_f3.n).vdim == variety_f3.n
            break


@pytest.mark.parametrize("name", ["variety_f2", "variety_f3",
                                  "variety_cd_f4", "variety_f4big",
                                  "counterexample"])
def test_fit_by_class_matches_fit_by_evaluation(name, request):
    # the cone of every tube, fitted again by evaluating each pencil form
    # on every point of xi, has the fit_count, vertex, form and base Witt
    # index that extract_tube read off the forms' classes
    variety = request.getfixturevalue(name)
    for t in variety.tubes:
        assert ref.refit_tube(variety, t) == (
            t.fit_count, t.vertex, t.form, t.base_witt), t.index


def test_swapped_hyperbolic_and_elliptic_counts_misfit_tubes(
        variety_f4big, monkeypatch):
    # the tube bases of V2(F2, CD(F4,0)) are elliptic quadrics of PG(3, 2):
    # counted as hyperbolic, the genuine cone is rejected, and a
    # hyperbolic cone on the same vertex line is counted as elliptic and
    # taken in its place, which check_tubes names by its Witt index
    t = variety_f4big.tubes[0]
    monkeypatch.setattr(pj, "zero_count",
                        ref.swap_hyperbolic_elliptic(pj.zero_count))
    bad = vr.extract_tube(variety_f4big.field, t.xi,
                          variety_f4big.point_set, variety_f4big.point_index,
                          t.index)
    assert bad.form != t.form and bad.vertex == t.vertex
    rep = vr.check_tubes(dataclasses.replace(variety_f4big, tubes=[bad]))
    assert rep["violations"] == [(0, "base_witt", 2)]


def test_witt_index_off_by_one_is_reported(variety_f3, monkeypatch):
    # the conic bases have odd m, whose zero count does not read w, so
    # every tube is still extracted and check_tubes names the Witt index
    real = pj.quadric_class

    def off_by_one(qf):
        vert, m, w = real(qf)
        return vert, m, w + 1

    monkeypatch.setattr(pj, "quadric_class", off_by_one)
    V = variety_f3
    tubes = [vr.extract_tube(V.field, t.xi, V.point_set, V.point_index,
                             t.index) for t in V.tubes]
    rep = vr.check_tubes(dataclasses.replace(V, tubes=tubes))
    assert not rep["ok"]
    assert rep["violations"][0] == (0, "base_witt", 2)


def _refit_base_witt(variety, tube):
    """Reference: the base projected from the vertex onto its coordinate
    complement inside xi, its own exact zero-set form refitted in the
    base's span, and that form's Witt index."""
    field = variety.field
    k = tube.xi.vdim
    intr = [pj.intrinsic_coords(tube.xi, p)
            for p in _vectors(variety, tube.xi_pts & variety.point_set)]
    if tube.vertex.rows:
        vert = pj.span(field, [pj.intrinsic_coords(tube.xi, r)
                               for r in tube.vertex.rows], k)
        proj = pj.Projection(vert, complement(vert))
        intr = sorted({proj.apply(c) for c in intr})
    base = pj.span(field, intr, k)
    forms = ref.exact_zero_set_forms(
        field, [pj.intrinsic_coords(base, c) for c in intr], base.vdim)
    return ref.witt_index(forms[0])


@pytest.mark.parametrize("name", ["variety_f2", "variety_f3", "frame5",
                                  "frame4_plus_point", "basis6"])
def test_base_witt_matches_refitted_base_form(name, request):
    # the Witt index read off the accepted cone form on the projected
    # X points equals that of the base's own exact zero-set form
    if name.startswith("variety"):
        variety, shape = request.getfixturevalue(name), (0, 1)
    else:
        variety, shape = f2.d1_q2_examples()[name], (-1, 1)
    for t in variety.tubes:
        assert t.base_witt == _refit_base_witt(variety, t) == 1
        assert (t.v, t.d_base, t.base_ovoid, t.fit_count) == shape + (True, 1)


def test_tube_tangent_matches_combinatorial(variety_f2, variety_f3):
    for variety in (variety_f2, variety_f3):
        for t in variety.tubes[:4]:
            for x in _vectors(variety, t.xi_pts & variety.point_set):
                via_form = vr.tube_tangent_space(variety, t, x)
                via_lines = ref.tangent_hyperplane(
                    variety.field,
                    _vectors(variety, ref.cone_points(variety, t)), t.xi, x)
                assert via_form == via_lines


def test_vertex_space_f3(variety_f3):
    y, verts, rep = vr.vertex_space_y(variety_f3)
    assert y.pdim == 2
    assert rep["vertex_count"] == 13
    assert rep["covers"] and rep["pairwise_disjoint"]
    assert rep["regular_spread"]


def test_projection_f3(projection_f3):
    rep, data = projection_f3
    assert rep["fiber_sizes"] == [9]
    assert rep["x_prime_count"] == 13
    assert rep["f_cap_x_equals_projection"]
    assert rep["xi_cap_f_matches"]
    assert rep["mm1"] and rep["mm2star"]


def test_projection_with_arbitrary_complement(variety_f3, f3_field):
    # any complement of Y works for the projection; only the canonical
    # section is guaranteed to cut X in rho(X)
    y, _, _ = vr.vertex_space_y(variety_f3)
    F = complement(y)
    rep, data = vr.project_from_y(variety_f3, F=F)
    assert rep["x_prime_count"] == 13
    assert rep["fiber_sizes"] == [9]
    assert rep["mm1"] and rep["mm2star"]


def test_fibers_are_pi_x(variety_f3, projection_f3):
    # rho^-1(rho(x)) = Pi_x, an affine (2v+2)-space over Pi_x^Y
    rep, data = projection_f3
    field = variety_f3.field
    for img, fib in data["fibers"].items():
        assert len(fib) == 9
        rows = []
        for ti in variety_f3.tubes_through[fib[0]]:
            rows.extend(variety_f3.tubes[ti].vertex.rows)
        piy = pj.span(field, rows, variety_f3.n)
        assert piy.pdim == 1                 # 2v + 1 with v = 0
        closure = pj.span(field, [variety_f3.points[i] for i in fib],
                          variety_f3.n)
        assert closure.pdim == 2             # 2v + 2


def test_chi_f3(variety_f3, projection_f3):
    rep, data = projection_f3
    chi, crep = vr.connection_chi(variety_f3, data)
    assert crep["bijective"] and crep["incidence_reversing"]
    assert crep["x_is_union"]
    assert crep["pstar_is_residue_plane"]
    assert crep["cross_ratio"] is True
    assert crep["hjelmslev"]["ok"]


# CD(F2,0), CD(F3,0), CD(F4,0), CDu(F2,1,0) and CD(F5,0)
@pytest.mark.parametrize("name", ["variety_f2", "variety_f3",
                                  "variety_cd_f4", "variety_f4big",
                                  "variety_cd_f5"])
def test_tilde_map_verdict_agrees_with_the_search(name, request):
    V = request.getfixturevalue(name)
    _, data = vr.project_from_y(V)
    chi, crep = vr.connection_chi(V, data)
    assert crep["pstar_is_residue_plane"] is True
    assert pstar_is_residue_plane_by_search(V, data, chi) is True


def _swap(a, b):
    return lambda x: {a: b, b: a}.get(x, x)


def _break_tilde(mutation, plane, pm, lm, residue):
    """The tilde maps with two residue points or two residue lines
    swapped, or with the first line sent to another residue line, which
    splits its vertex's tubes over two residue lines."""
    if mutation == "points":
        s = _swap(*residue.points[:2])
        return {p: s(r) for p, r in pm.items()}, lm
    if mutation == "lines":
        s = _swap(*residue.lines[:2])
        return pm, {l: s(r) for l, r in lm.items()}
    first = plane.lines[0]
    other = next(r for r in residue.lines if r != lm[first])
    return pm, {**lm, first: other}


@pytest.fixture(params=["points", "lines", "split_vertex"])
def broken_tilde(request, monkeypatch):
    real = vr.epimorphism_to_residue

    def broken(plane):
        pm, lm, residue = real(plane)
        return (*_break_tilde(request.param, plane, pm, lm, residue),
                residue)

    monkeypatch.setattr(vr, "epimorphism_to_residue", broken)


def test_broken_tilde_map_fails_only_the_residue_plane(
        broken_tilde, variety_f2, projection_f2):
    _, crep = vr.connection_chi(variety_f2, projection_f2[1])
    assert crep["pstar_is_residue_plane"] is False
    assert crep["bijective"] and crep["incidence_reversing"]
    assert crep["x_is_union"]


def test_broken_tilde_map_fails_cor_chi(broken_tilde, tmp_path):
    out = tmp_path / "cor.json"
    assert cli.main(["veronese", "--algebra", "CD(F2,0)", "--check", "cor",
                     "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert [n for n, c in checks.items() if c["status"] == "fail"] == \
        ["cor.chi"]
    assert checks["cor.chi"]["computed"]["pstar_is_residue_plane"] is False


@pytest.mark.parametrize("name", ["variety_f2", "variety_f3",
                                  "variety_cd_f4"])
def test_chi_is_the_per_point_vertex_span(name, request):
    V = request.getfixturevalue(name)
    _, data = vr.project_from_y(V)
    chi, _ = vr.connection_chi(V, data)

    def vertex_span(i):
        # reference: Pi_x^Y, the span of the vertices of the tubes
        # through point i
        return pj.span(V.field, [r for ti in V.tubes_through[i]
                                 for r in V.tubes[ti].vertex.rows], V.n)
    for img, fib in data["fibers"].items():
        for i in fib:
            assert vertex_span(i).rows == chi[img].rows


def test_chi_rejects_two_vertex_spans_in_one_fiber(variety_f3,
                                                   projection_f3):
    # two fibers merged into one: its points have two spans Pi_x^Y
    _, data = projection_f3
    fibers = dict(data["fibers"])
    a, b = list(fibers)[:2]
    fibers[a] = fibers[a] + fibers.pop(b)
    with pytest.raises(pj.GeometryError, match="differs within a fiber"):
        vr._pi_xy(variety_f3, fibers)


def _conic_sections_by_trios(field, pts, sub):
    """Reference: the plane of every non-collinear trio of points, kept
    when it holds q + 1 of them."""
    out = set()
    for trio in itertools.combinations(sorted(pts), 3):
        pl = pj.span(field, list(trio), sub.n)
        if pl.vdim == 3:
            sect = tuple(sorted(p for p in pts if pl.contains(p)))
            if len(sect) == field.q + 1:
                out.add(sect)
    return sorted(out)


def test_conic_sections_match_the_trio_loop(variety_f4big):
    # elliptic quadrics of PG(3, q): of the variety over F2 (d = 2) and
    # of the regular 2-scrolls over F3 and F4
    _, data = vr.project_from_y(variety_f4big)
    cases = [(variety_f4big.field, sorted(q), variety_f4big.n)
             for q in data["quadrics"].values()]
    for q in (3, 4):
        s = sc.canonical_regular_scroll(2, q)
        cases.append((s.field, list(s.quadric_pts), s.n))
    for field, pts, n in cases:
        sub = pj.span(field, pts, n)
        assert sub.pdim == 3
        assert pj.conic_sections(field, pts, sub) == \
            _conic_sections_by_trios(field, pts, sub)


def test_chi_preserves_harmonic_quadruple(variety_f3, projection_f3):
    # an ordering of four conic points with cross-ratio -1 maps to lines
    # of the pencil with cross-ratio -1
    field = variety_f3.field
    rep, data = projection_f3
    chi, _ = vr.connection_chi(variety_f3, data)
    minus_one = field.neg(field.one)
    found = False
    for key, qpts in data["quadrics"].items():
        v = data["vertices"][key]
        conic = sorted(qpts)
        coords = dict(zip(conic, pj.conic_parameters(field, conic)))
        import itertools as it
        for quad in it.permutations(conic):
            val = pj.cross_ratio(field, *[coords[p] for p in quad])
            if val != minus_one:
                continue
            imgs = [chi[p] for p in quad]
            from ringgeom import scrolls as sc
            tval = pj.cross_ratio(field,
                                  *sc.member_parameters(field, imgs, v))
            assert tval == minus_one
            found = True
            break
        if found:
            break
    assert found


def test_chi_cross_ratio_reads_every_conic(variety_cd_f4):
    # swap the chi images of two points of the third conic that lie on
    # neither of the first two: only a check that reads every conic sees
    # that chi is no longer a projectivity there
    V = variety_cd_f4
    field = V.field
    _, data = vr.project_from_y(V)
    chi, crep = vr.connection_chi(V, data)
    assert crep["cross_ratio"] is True
    assert crep["cross_ratio_witness"] is None
    conics = []
    for qpts in data["quadrics"].values():
        pts = sorted(qpts)
        conics.extend(pj.conic_sections(field, pts,
                                        pj.span(field, pts, V.n)))
    assert len(conics) == 21 and all(len(c) == 5 for c in conics)
    p, r = [x for x in conics[2]
            if x not in conics[0] and x not in conics[1]][:2]
    swapped = dict(chi)
    swapped[p], swapped[r] = chi[r], chi[p]
    verdict, witness = vr._chi_cross_ratio(V, data, swapped)
    assert verdict is False
    assert witness["conic"] == conics[2]
    assert witness["point"] in conics[2]


def test_chi_swap_across_pencils_is_rejected(variety_f3, projection_f3):
    # a and b lie on quadrics with different vertices, so after the swap
    # chi(a) misses the vertex of a's conic: it is off that pencil, even
    # where some line meets all four members
    _, data = projection_f3
    chi, _ = vr.connection_chi(variety_f3, data)
    a, b = (0, 0, 1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 2, 0, 0, 0, 0, 0)
    swapped = dict(chi)
    swapped[a], swapped[b] = chi[b], chi[a]
    verdict, witness = vr._chi_cross_ratio(variety_f3, data, swapped)
    assert verdict is False
    assert {a, b} & set(witness["conic"])
    assert witness["point"] in (a, b)


@pytest.mark.parametrize("pos", [1, 3])
def test_chi_member_off_pencil_is_a_witness(variety_f3, projection_f3, pos,
                                           chi_member_off_pencil):
    _, data = projection_f3
    chi, _ = vr.connection_chi(variety_f3, data)
    broken, conic, x = chi_member_off_pencil(variety_f3, data, chi, pos)
    assert vr._chi_cross_ratio(variety_f3, data, broken) == \
        (False, {"conic": conic, "point": x})


def test_equivalence_certificate_f3(variety_f3, projection_f3, f3_field):
    rep, data = projection_f3
    F = data["F"]
    xp = data["xprime"]
    pts1 = [pj.intrinsic_coords(F, p) for p in xp]
    idx1 = {p: i for i, p in enumerate(xp)}
    blocks1 = [tuple(sorted(idx1[p] for p in data["quadrics"][k]))
               for k in sorted(data["quadrics"])]
    direct = vr.build_variety(alg.ground_algebra(f3_field, "F3"))
    t = projective_equivalence(f3_field, pts1, blocks1, direct.points,
                               direct.blocks())
    assert t is not None
    # certify: t really maps points onto points
    img = {pj.apply_matrix(f3_field, t, p) for p in pts1}
    assert img == set(direct.points)


def _broken_generator(variety):
    """The variety with one point of the first generator of the second
    tube at the first vertex moved into its second generator; that tube's
    generators no longer each project from the vertex to one point."""
    key = variety.tubes[0].vertex.rows
    t = [t for t in variety.tubes if t.vertex.rows == key][1]
    g0, g1 = t.generators[:2]
    x = min(g0)
    tubes = list(variety.tubes)
    tubes[t.index] = dataclasses.replace(
        t, generators=(g0 - {x}, g1 | {x}) + t.generators[2:])
    return dataclasses.replace(variety, tubes=tubes)


@pytest.mark.parametrize("name,algebra", [("variety_f3", "CD(F3,0)"),
                                          ("variety_cd_f4", "CD(F4,0)")])
def test_vertexlocal_refuses_a_generator_off_one_point(name, algebra,
                                                       request, monkeypatch,
                                                       capsys):
    # every generator of every tube at a vertex is projected, not only
    # those of the first tube
    broken = _broken_generator(request.getfixturevalue(name))
    _, data = vr.project_from_y(broken)
    with pytest.raises(pj.GeometryError,
                       match="generator does not project to a point"):
        vr.local_structure_at_vertex(broken, broken.tubes[0].vertex, data)
    monkeypatch.setattr(cli.vr, "build_variety", lambda A: broken)
    rc = cli.main(["veronese", "--algebra", algebra, "--check",
                   "vertexlocal"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert "generator does not project to a point" in err


def _analyze_base_by_reference(field, xi, vert_intr, xs, intr):
    """Reference: `vr._analyze_base` with the X points projected from the
    vertex by `pj.Projection` onto a coordinate complement of it."""
    if not vert_intr.rows:
        base = [intr[p] for p in xs]
        return pj.is_ovoid(field, base, pj.span(field, base, xi.vdim)), \
            (frozenset(xs),)
    proj = pj.Projection(vert_intr, complement(vert_intr))
    groups = {}
    for p in xs:
        groups.setdefault(proj.apply(intr[p]), []).append(p)
    base = sorted(groups)
    return pj.is_ovoid(field, base, pj.span(field, base, xi.vdim)), \
        tuple(sorted(map(frozenset, groups.values()), key=min))


@pytest.mark.parametrize("name", ["variety_f3", "variety_cd_f4",
                                  "counterexample"])
def test_base_analysis_matches_the_projection_onto_a_complement(name,
                                                                request):
    # the generators and the ovoid verdict of every tube base are those
    # of the reference projection, and those the tube carries
    V = request.getfixturevalue(name)
    field = V.field
    for t in V.tubes:
        intr = dict(zip(t.xi.points(), pj.pg_parameters(field, t.xi.vdim)))
        xs = sorted(t.xi_pts & V.point_set)
        vert = pj.span(field, [pj.intrinsic_coords(t.xi, r)
                               for r in t.vertex.rows], t.xi.vdim)
        got = vr._analyze_base(field, t.xi, vert, xs, intr)
        assert got == _analyze_base_by_reference(field, t.xi, vert, xs, intr)
        assert got == (t.base_ovoid, t.generators)


def test_local_structure_all_vertices_f3(variety_f3, projection_f3):
    rep, data = projection_f3
    verts = {t.vertex.rows: t.vertex for t in variety_f3.tubes}
    assert len(verts) == 13
    for v in verts.values():
        lrep = vr.local_structure_at_vertex(variety_f3, v, data)
        assert lrep["n_tubes"] == 9 and lrep["n_generators"] == 12
        assert lrep["dual_affine"]
        assert lrep["spread_regular"]
        assert lrep["chi_v_projectivity"] is True
        assert lrep["scroll_quadrics_match"]
        assert lrep["dim_span_cv"] == 5      # 3v + d + 4 at (d, v) = (1, 0)
        assert lrep["dim_formula_ok"] and lrep["v_equals_d_minus_1"]


def test_alpha_section_lands_in_y(variety_f3, projection_f3):
    # the affine section of two same-vertex projected tubes lies in the
    # projected vertex space
    from ringgeom import scrolls as sc
    field = variety_f3.field
    rep, data = projection_f3
    key = variety_f3.tubes[0].vertex.rows
    vertex = variety_f3.tubes[0].vertex
    cv = [t for t in variety_f3.tubes if t.vertex.rows == key]
    c0, c1 = cv[0], cv[1]
    ftilde_rows = list(data["F"].rows)
    n = variety_f3.n
    for i in range(n):
        e = tuple(field.one if j == i else field.zero for j in range(n))
        test, _ = pj.rref(field, list(vertex.rows) + ftilde_rows + [e])
        if len(test) > vertex.vdim + len(ftilde_rows):
            ftilde_rows.append(e)
        if vertex.vdim + len(ftilde_rows) == n:
            break
    proj_v = pj.Projection(vertex, pj.span(field, ftilde_rows, n))
    ytilde = set(pj.span(field, [p for p in (proj_v.apply(r)
                                             for r in data["y"].rows)
                                 if p is not None], n).points())

    def gen_images(tube):
        # keyed by the fiber (the projection-from-Y image), which matches
        # generators of same-vertex tubes through collinearity
        out = {}
        for g in tube.generators:
            img = {proj_v.apply(field.unpack(x)) for x in g}
            assert len(img) == 1
            fiber = {data["images"][variety_f3.point_index[x]] for x in g}
            assert len(fiber) == 1
            out[fiber.pop()] = img.pop()
        return out

    g0, g1 = gen_images(c0), gen_images(c1)
    assert set(g0) == set(g1)
    shared_keys = [k for k in g0 if g0[k] == g1[k]]
    assert len(shared_keys) == 1          # the common generator
    pairing = [(g0[k], g1[k]) for k in sorted(g0) if g0[k] != g1[k]]
    al, images, inf_space = sc.alpha_section(field, pairing, n)
    assert {field.pack(p) for p in images} <= ytilde
    assert set(inf_space.points()) <= ytilde


def test_counterexample_pg13(counterexample, counterexample_h2):
    ce = counterexample
    assert len(ce.points) == 1080
    assert len(ce.tubes) == 1170
    rows, _ = pj.rref(ce.field, ce.points)
    assert len(rows) == 14               # X spans PG(13, 3)
    assert vr.check_tubes(ce, d_base=1, v=1)["ok"]
    assert vr.check_h1(ce)["ok"]
    assert counterexample_h2["ok"]
    rep = vr.check_h2star(ce)
    assert rep["violation_count"] == 426465
    assert rep["violations"][0] == (0, 153, "disjoint")
    assert not (ce.tubes[0].xi_pts & ce.tubes[153].xi_pts)


def test_check_h2_rejects_a_y_part_that_is_not_a_subspace(counterexample):
    # tubes 0 and 1 share their vertex line, a 4-point Y part of the meet;
    # without one of its points, the Y part spans more than it holds
    ce = counterexample
    t0, t1 = ce.tubes[0], ce.tubes[1]
    ypart = sorted((t0.xi_pts & t1.xi_pts) - ce.point_set)
    assert len(ypart) == 4
    p = ypart[0]
    tubes = [dataclasses.replace(t0, xi_pts=t0.xi_pts - {p},
                                 vertex_pts=t0.vertex_pts - {p})]
    rep = vr.check_h2(dataclasses.replace(ce, tubes=tubes + ce.tubes[1:]))
    assert not rep["ok"]
    assert rep["violations"][0] == (0, 1, "Y part not a subspace")
    assert {w[2] for w in rep["violations"]} == {"Y part not a subspace"}


def test_counterexample_h3(counterexample_h3):
    rep = counterexample_h3
    assert rep["ok"] and rep["tangent_dims"] == {6: 1080}


def test_counterexample_field_guard(f2_field):
    with pytest.raises(pj.GeometryError):
        vr.build_h2_counterexample(f2_field)


def test_equivalence_rejects_distinct_structures(f2_field):
    from ringgeom import f2geom as f2
    ex = f2.d1_q2_examples()
    a, b = ex["frame5"], ex["frame4_plus_point"]
    t = projective_equivalence(f2_field, a.points, a.blocks(),
                               b.points, b.blocks())
    assert t is None


def test_check_tubes_rejects_wrong_dimensions(variety_f2):
    assert vr.check_tubes(variety_f2, d_base=1, v=0)["ok"]
    rep = vr.check_tubes(variety_f2, d_base=1, v=1)
    assert not rep["ok"]
    assert {w[1] for w in rep["violations"]} == {"vertex_dim"}
    rep = vr.check_tubes(variety_f2, d_base=2, v=0)
    assert not rep["ok"]
    assert {w[1] for w in rep["violations"]} == {"base_dim"}


def test_check_h1_rejects_a_dropped_tube(variety_f3):
    V = variety_f3
    assert vr.check_h1(V)["ok"]
    dropped = V.tubes[0]
    rep = vr.check_h1(dataclasses.replace(V, tubes=V.tubes[1:]))
    assert not rep["ok"] and rep["violations"]
    assert all(i in dropped.x_idx and j in dropped.x_idx
               for i, j in rep["violations"])


def test_check_h2star_rejects_an_empty_tubic_space(variety_f3):
    V = variety_f3
    assert vr.check_h2star(V)["ok"]
    tubes = list(V.tubes)
    tubes[0] = dataclasses.replace(tubes[0], xi_pts=frozenset())
    rep = vr.check_h2star(dataclasses.replace(V, tubes=tubes))
    assert not rep["ok"]
    assert (0, 1, "disjoint") in rep["violations"]
    assert {w[2] for w in rep["violations"]} == {"disjoint"}


def test_check_property_v_rejects_a_joined_vertex(variety_f3):
    V = variety_f3
    assert vr.check_property_v(V)["ok"]
    t0 = V.tubes[0]
    other = next(t.vertex for t in V.tubes if t.vertex != t0.vertex)
    join = pj.span(V.field, list(t0.vertex.rows) + list(other.rows), V.n)
    tubes = [dataclasses.replace(t0, vertex=join)] + list(V.tubes[1:])
    rep = vr.check_property_v(dataclasses.replace(V, tubes=tubes))
    assert not rep["ok"]
    pairs = {frozenset(w) for w in rep["violations"]}
    assert frozenset((join.rows, other.rows)) in pairs
    assert frozenset((join.rows, t0.vertex.rows)) in pairs


def test_check_h2_rejects_a_point_outside_the_cone(variety_f3):
    V = variety_f3
    assert vr.check_h2(V)["ok"]
    t0, t1 = V.tubes[0], V.tubes[1]
    stray = min(t1.xi_pts - ref.cone_points(V, t0))
    tubes = [dataclasses.replace(t0, xi_pts=t0.xi_pts | {stray})]
    rep = vr.check_h2(dataclasses.replace(V, tubes=tubes + V.tubes[1:]))
    assert not rep["ok"]
    assert (0, 1, "outside cones") in rep["violations"]


def test_check_h2_rejects_a_y_part_of_wrong_codimension(variety_f3):
    # tube 0 meets tube t in one point of X; a vertex point of t added to
    # xi_0 and its vertex makes a 2-point meet whose Y part is one point
    V = variety_f3
    t0 = V.tubes[0]
    t = next(t for t in V.tubes[1:] if len(t0.xi_pts & t.xi_pts) == 1
             and t0.xi_pts & t.xi_pts <= V.point_set)
    p = min(t.vertex_pts)
    tubes = [dataclasses.replace(t0, xi_pts=t0.xi_pts | {p},
                                 vertex_pts=t0.vertex_pts | {p})]
    rep = vr.check_h2(dataclasses.replace(V, tubes=tubes + V.tubes[1:]))
    assert not rep["ok"]
    assert rep["violations"][0] == (0, t.index, "Y part wrong codimension")
    assert {w[2] for w in rep["violations"]} == {"Y part wrong codimension"}


def test_check_h3_rejects_a_degenerate_tube_form(variety_f3):
    # with the zero form, the tangent space of tube 0 at each of its
    # points is all of xi, so T_x grows past the bound 4 there
    V = variety_f3
    assert vr.check_h3(V, 4)["tangent_dims"] == {4: len(V.points)}
    t0 = V.tubes[0]
    zero = quadratic_form(V.field, t0.xi.vdim, {})
    tubes = [dataclasses.replace(t0, form=zero)] + V.tubes[1:]
    rep = vr.check_h3(dataclasses.replace(V, tubes=tubes), 4)
    assert not rep["ok"]
    assert rep["tangent_dims"] == {4: len(V.points) - len(t0.x_idx),
                                   5: len(t0.x_idx)}
    assert (min(t0.x_idx), 5) in rep["violations"]
    assert all(pi in t0.x_idx and dim == 5 for pi, dim in rep["violations"])


def test_check_mm2star_rejects_a_second_common_point():
    V = f2.d1_q2_examples()["frame5"]
    assert vr.check_mm2star(V)["ok"]
    t0, t1 = V.tubes[0], V.tubes[1]
    assert len(t0.xi_pts & t1.xi_pts) == 1
    # a point of xi_1 off X, so no other pair of spaces changes
    extra = min(t1.xi_pts - t0.xi_pts - V.point_set)
    tubes = [dataclasses.replace(t0, xi_pts=t0.xi_pts | {extra})]
    rep = vr.check_mm2star(dataclasses.replace(V, tubes=tubes + V.tubes[1:]))
    assert not rep["ok"]
    assert rep["violations"] == [(0, 1, 2)]


def _variety_inputs(V, data):
    """The arguments of check_hjelmslev for a variety and its projection."""
    return (len(V.points), [list(b) for b in V.blocks()],
            [data["images"][i] for i in range(len(V.points))],
            [t.vertex.rows for t in V.tubes], V.plane.base.size())


def test_variety_checker_rejects_broken_structures(variety_f2,
                                                   projection_f2):
    from ringgeom import hjplane as hp
    npts, blocks, pkeys, bkeys, order = _variety_inputs(variety_f2,
                                                        projection_f2[1])
    assert hp.check_hjelmslev(npts, blocks, pkeys, bkeys, order)["ok"]
    moved = [list(b) for b in blocks]
    p = next(p for p in moved[0] if p not in moved[1])
    moved[0].remove(p)
    moved[1].append(p)
    rep = hp.check_hjelmslev(npts, moved, pkeys, bkeys, order)
    assert {v[0] for v in rep["violations"]} & {"Hj1", "Hj2"}
    k1, k2 = sorted(set(pkeys))[:2]
    merged = [k1 if k == k2 else k for k in pkeys]
    rep = hp.check_hjelmslev(npts, blocks, merged, bkeys, order)
    assert not rep["hj3"] and ("Hj3", k1) in rep["violations"]


@pytest.mark.parametrize("which", ["f2", "f3"])
def test_plane_and_variety_hjelmslev_agree(which, request):
    # the same incidence and the same neighbour classes reach the checker
    # along both paths: tubes are the line images, point for point
    from ringgeom import hjplane as hp
    V = request.getfixturevalue("variety_" + which)
    data = request.getfixturevalue("projection_" + which)[1]
    plane = V.plane
    A, B = plane.algebra, plane.base

    def partition(keys):
        classes = {}
        for i, k in enumerate(keys):
            classes.setdefault(k, set()).add(i)
        return {frozenset(c) for c in classes.values()}

    npts, blocks, pkeys, bkeys, _ = _variety_inputs(V, data)
    assert [set(b) for b in blocks] == [set(ps) for ps in plane.points_on]
    assert partition(pkeys) == partition(
        [hp.tilde_triple(A, B, p) for p in plane.points])
    assert partition(bkeys) == partition(
        [hp.tilde_triple(A, B, l) for l in plane.lines])
    on_plane = hp.verify_hjelmslev_level2(plane)
    on_variety = vr.variety_hjelmslev(V, data)
    for k in ("order", "hj1", "hj2", "hj3", "hj4", "ok"):
        assert on_plane[k] == on_variety[k], k
    assert on_plane["ok"]


# --------------------------------------------------------------------------
# the pair checks against the all-pairs loops they replace

def _h1_all_pairs(variety):
    npts = len(variety.points)
    covered = set()
    for t in variety.tubes:
        for a, b in itertools.combinations(t.x_idx, 2):
            covered.add((a, b))
    missing = [(i, j) for i, j in itertools.combinations(range(npts), 2)
               if (i, j) not in covered]
    return {"name": "H1", "ok": not missing, "pairs": npts * (npts - 1) // 2,
            "violation_count": len(missing), "violations": missing[:10]}


def _pair_meets(variety):
    """Each pair of tubes, the meet of their tubic spaces, and whether the
    meet lies in both cones."""
    tubes = [(t, ref.cone_points(variety, t)) for t in variety.tubes]
    for (t1, c1), (t2, c2) in itertools.combinations(tubes, 2):
        inter = t1.xi_pts & t2.xi_pts
        yield t1, t2, inter, inter <= c1 and inter <= c2


def _h2star_all_pairs(variety):
    tubes = variety.tubes
    xset = variety.point_set
    bad = []
    for t1, t2, inter, in_cones in _pair_meets(variety):
        if not inter:
            bad.append((t1.index, t2.index, "disjoint"))
        elif not in_cones:
            bad.append((t1.index, t2.index, "outside cones"))
        elif not inter & xset:
            bad.append((t1.index, t2.index, "no X point"))
    return {"name": "H2*", "ok": not bad,
            "pairs": len(tubes) * (len(tubes) - 1) // 2,
            "violation_count": len(bad), "violations": bad[:10]}


def _h2_all_pairs(variety):
    field = variety.field
    xset = variety.point_set
    bad = []
    for t1, t2, inter, in_cones in _pair_meets(variety):
        if not inter:
            continue
        if not in_cones:
            bad.append((t1.index, t2.index, "outside cones"))
            continue
        ypart = inter - xset
        if not ypart:
            continue
        whole = pj.span(field, _vectors(variety, inter), variety.n)
        ysub = pj.span(field, _vectors(variety, ypart), variety.n)
        if len(ypart) != (field.q ** ysub.vdim - 1) // (field.q - 1):
            bad.append((t1.index, t2.index, "Y part not a subspace"))
        elif ysub.pdim != whole.pdim - 1:
            bad.append((t1.index, t2.index, "Y part wrong codimension"))
    ntubes = len(variety.tubes)
    return {"name": "H2", "ok": not bad, "pairs": ntubes * (ntubes - 1) // 2,
            "violation_count": len(bad), "violations": bad[:10]}


def _mm2star_all_pairs(variety):
    tubes = variety.tubes
    bad = []
    for t1, t2 in itertools.combinations(tubes, 2):
        inter = t1.xi_pts & t2.xi_pts
        if len(inter) != 1 or not inter <= variety.point_set:
            bad.append((t1.index, t2.index, len(inter)))
    return {"name": "MM2*", "ok": not bad,
            "pairs": len(tubes) * (len(tubes) - 1) // 2,
            "violation_count": len(bad), "violations": bad[:10]}


def _mutated(V, tube0, **changes):
    return dataclasses.replace(
        V, tubes=[dataclasses.replace(tube0, **changes)] + V.tubes[1:])


def _pair_check_cases(request):
    """The varieties and the mutations of the tests above, by name."""
    f3 = request.getfixturevalue("variety_f3")
    t0, t1 = f3.tubes[0], f3.tubes[1]
    other = next(t.vertex for t in f3.tubes if t.vertex != t0.vertex)
    frame5 = f2.d1_q2_examples()["frame5"]
    f0, f1 = frame5.tubes[0], frame5.tubes[1]
    cases = {
        "f2": request.getfixturevalue("variety_f2"),
        "f3": f3,
        "f3_dropped_tube": dataclasses.replace(f3, tubes=f3.tubes[1:]),
        "f3_empty_xi": _mutated(f3, t0, xi_pts=frozenset()),
        "f3_joined_vertex": _mutated(f3, t0, vertex=pj.span(
            f3.field, list(t0.vertex.rows) + list(other.rows), f3.n)),
        "f3_outside_cone": _mutated(
            f3, t0, xi_pts=t0.xi_pts | {
                min(t1.xi_pts - ref.cone_points(f3, t0))}),
        "f3_vertex_point_dropped": _mutated(
            f3, t0, vertex_pts=t0.vertex_pts - t1.vertex_pts),
        "f3_zero_form": _mutated(
            f3, t0, form=quadratic_form(f3.field, t0.xi.vdim, {})),
        "frame5_second_point": _mutated(
            frame5, f0,
            xi_pts=f0.xi_pts | {min(f1.xi_pts - f0.xi_pts
                                    - frame5.point_set)}),
    }
    for name, v in f2.d1_q2_examples().items():
        cases["d1_" + name] = v
    for name in ("cd_f4", "cd_f5", "f4big"):
        cases[name] = request.getfixturevalue("variety_" + name)
    return cases


PAIR_CASES = ["f2", "f3", "f3_dropped_tube", "f3_empty_xi",
              "f3_joined_vertex", "f3_outside_cone", "f3_vertex_point_dropped",
              "f3_zero_form", "frame5_second_point", "d1_frame5",
              "d1_frame4_plus_point", "d1_basis6", "cd_f4", "cd_f5", "f4big"]


@pytest.mark.parametrize("case", PAIR_CASES)
def test_pair_checks_match_all_pairs_loops(case, request):
    V = _pair_check_cases(request)[case]
    assert vr.check_h1(V) == _h1_all_pairs(V)
    assert vr.check_h2star(V) == _h2star_all_pairs(V)
    assert vr.check_h2(V) == _h2_all_pairs(V)
    assert vr.check_mm2star(V) == _mm2star_all_pairs(V)


def test_vertex_point_dropped_is_outside_cones_from_the_cone_side(request):
    # tubes 0 and 1 share their vertex point; dropped from tube 0's
    # vertex, it leaves tube 0's cone while the meet stays in tube 1's
    V = _pair_check_cases(request)["f3_vertex_point_dropped"]
    t0, t1 = V.tubes[0], V.tubes[1]
    assert not t0.vertex_pts and len(t1.vertex_pts) == 1
    assert t0.xi_pts & t1.xi_pts <= ref.cone_points(V, t1)
    rep = vr.check_h2star(V)
    assert not rep["ok"]
    assert (t0.index, t1.index, "outside cones") in rep["violations"]
    assert {w[2] for w in rep["violations"]} == {"outside cones"}


def test_pair_axioms_pass_without_the_pair_walk(variety_f3):
    # every pair axiom reads pair_masks; the walk that listed each pair's
    # shared elements is gone
    assert not hasattr(hp, "pair_meets")
    assert not hasattr(hp, "pair_violations")
    assert vr.check_h2(variety_f3) == _h2_all_pairs(variety_f3)
    h2star = vr.check_h2star(variety_f3)
    assert h2star["ok"] and h2star == _h2star_all_pairs(variety_f3)
    assert vr.check_mm2star(variety_f3) == _mm2star_all_pairs(variety_f3)
    assert hp.verify_hjelmslev_level2(variety_f3.plane)["ok"]
