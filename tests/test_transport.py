"""Tubes carried along certified lifts against tubes extracted directly.

`build_variety` extracts one tube per line orbit of its certified
generators and transports the rest.  The reference here extracts every
tube of the same variety directly, and the two must agree field by
field.  A wrong lift must be refused by the certificate, which the
motion checks then report as failed, and a wrong lift that slips past
the certificate must be caught by the per-tube recheck of X(xi)."""

import collections
import dataclasses

import pytest

from ringgeom import algebras as alg
from ringgeom import cli
from ringgeom import motions as mo
from ringgeom import projective as pj
from ringgeom import veronese as vr
from ringgeom.projective import GeometryError

from projective_reference import vec_add


def _extracted(V, li):
    """The tube of line li by direct extraction from X."""
    member = [V.points[pi] for pi in V.plane.points_on[li]]
    return vr.extract_tube(V.field, pj.span(V.field, member, V.n),
                           V.point_set, V.point_index, li)


def _mismatches(V):
    """(line, field) for every compared tube field that differs from
    extraction; a transported tube's form is built here, on first read."""
    names = [f.name for f in dataclasses.fields(vr.Tube) if f.compare]
    out = []
    for li, tube in enumerate(V.tubes):
        ref = _extracted(V, li)
        out.extend((li, name) for name in names
                   if getattr(tube, name) != getattr(ref, name))
    return out


@pytest.fixture(scope="module")
def variety_f9():
    # CD(F3,-1) = F9 is a division algebra: tubes without a vertex
    return vr.build_variety(alg.parse_algebra("CD(F3,-1)"))


# CD(F2,0), CD(F3,0), CD(F4,0), CDu(F2,1,0), CD(F5,0) and CD(F3,-1)
@pytest.mark.parametrize("name", ["variety_f2", "variety_f3",
                                  "variety_cd_f4", "variety_f4big",
                                  "variety_cd_f5", "variety_f9"])
def test_transported_tubes_equal_extracted_tubes(name, request):
    V = request.getfixturevalue(name)
    assert V.stats["tubes_extracted"] == 1
    assert V.stats["tubes_transported"] == len(V.tubes) - 1
    assert V.stats["generators_refused"] == []
    assert _mismatches(V) == []


def _transport_edges(V):
    """(line, parent line, generator) for every transported tube, walked
    as `build_variety` walks the line orbits."""
    moves = [g for g in V.certificate if g.certified]
    seen = set()
    for start in range(len(V.plane.lines)):
        if start in seen:
            continue
        walk = mo.orbit(start, moves, lambda li, g: g.perms[1][li])
        seen.update(walk)
        for li, edge in walk.items():
            if edge is not None:
                yield (li,) + tuple(edge)


@pytest.mark.parametrize("name", ["variety_f3", "variety_cd_f4"])
def test_one_elimination_back_map_matches_the_inverse(name, request):
    # xi' and D^-1 from one elimination of [images | I] against span,
    # intrinsic_coords of each image and mat_inverse
    V = request.getfixturevalue(name)
    count = 0
    for li, parent, g in _transport_edges(V):
        rows = V.tubes[parent].xi.rows
        images = [pj.vec_mat(V.field, r, g.lift) for r in rows]
        xi = pj.span(V.field, images, V.n)
        back = pj.mat_inverse(V.field, [pj.intrinsic_coords(xi, r)
                                        for r in images])
        assert vr._carried_basis(V.field, rows, g.lift) == (xi, back)
        assert V.tubes[li].xi == xi
        count += 1
    assert count == V.stats["tubes_transported"]


def test_a_transported_form_is_built_once_and_frees_its_source(
        variety_cd_f4):
    # a tube transported afresh holds its source and D^-1 until its form
    # is read; the first read builds the form and drops them, and a
    # second read gives the same form, the one the variety's tube has
    V = variety_cd_f4
    packed = [V.field.pack(x) for x in V.points]
    li, parent, g = next(_transport_edges(V))
    tube = vr.transport_tube(V.field, V.tubes[parent], g.lift, g.perms[0],
                             packed, V.point_set, V.point_index, li)
    assert tube.carried[0] is V.tubes[parent]
    form = tube.form
    assert tube.carried is None
    assert tube.form == form == V.tubes[li].form


def test_carried_basis_refuses_a_singular_lift(variety_f3):
    # a lift whose first row is zero kills e_0, a point of xi of tube 0
    V = variety_f3
    rows = V.tubes[0].xi.rows
    units = pj.unit_vectors(V.field, V.n)
    lift = [(0,) * V.n] + units[1:]
    assert V.tubes[0].xi.contains(units[0])
    with pytest.raises(GeometryError, match="singular"):
        vr._carried_basis(V.field, rows, lift)


def test_generators_match_the_motion_checks(variety_f2, variety_cd_f4):
    # tau and phi13, phi23 at each element p^j e_i of the F_p-basis
    assert variety_f2.stats["generators_certified"] == 1 + 2 * 2
    assert variety_cd_f4.stats["generators_certified"] == 1 + 2 * 2 * 2


def _corrupt_lift(monkeypatch, field, kind, at, row):
    """linear_lift with row `row` of the lift of kind `kind` at X = `at`
    replaced by the sum of it and the next row, as in the motion checks'
    mutation."""
    real = mo.linear_lift

    def lift(A, kind_, X=None, Y=None):
        M = real(A, kind_, X=X, Y=Y)
        if (kind_, X, Y) == (kind, at, None):
            M = list(M)
            M[row] = vec_add(field, M[row], M[(row + 1) % len(M)])
        return M

    monkeypatch.setattr(mo, "linear_lift", lift)


# lines extracted with tau refused: the line orbits of the elations
ELATION_LINE_ORBITS = {"algebra_cd_f2": 10, "algebra_cd_f3": 21}


@pytest.mark.parametrize("row", [0, 4, 8])
@pytest.mark.parametrize("kind", ["tau", "phi"])
@pytest.mark.parametrize("fixture", ["algebra_cd_f2", "algebra_cd_f3"])
def test_lift_with_one_wrong_row_is_refused(fixture, kind, row, request,
                                            monkeypatch):
    A = request.getfixturevalue(fixture)
    X = A.basis(0) if kind == "phi" else None
    _corrupt_lift(monkeypatch, A.field, kind, X, row)
    V = vr.build_variety(A)
    name = "tau" if kind == "tau" else "phi13(%s)" % A.label(X)
    assert V.stats["generators_refused"] == [name]
    assert V.stats["generators_certified"] == 4
    if kind == "tau":
        assert V.stats["tubes_extracted"] == ELATION_LINE_ORBITS[fixture]
    assert _mismatches(V) == []
    # the motion checks report the certificate the build refused it by
    checks = cli.motion_checks(V, ("triality", "elations", "equivariance"))
    failed = [(c.name, c.witnesses) for c in checks if c.status == "fail"]
    assert failed == ([("lift.tau", [])] if kind == "tau" else
                      [("lift.phi_equivariant", [("phi13", X)])])


def test_recheck_catches_a_wrong_lift_the_certificate_missed(
        algebra_cd_f3, monkeypatch):
    # tau's lift is wrong and used uncertified: the transported xi then
    # carries points of X off the line image
    A = algebra_cd_f3
    _corrupt_lift(monkeypatch, A.field, "tau", None, 0)
    certificate = mo.generator_certificate

    def uncertified(A_, plane, points):
        tau, *elations = certificate(A_, plane, points)
        assert not tau.certified
        return [dataclasses.replace(tau, equivariant=True)] + elations

    monkeypatch.setattr(mo, "generator_certificate", uncertified)
    with pytest.raises(GeometryError, match="not the line image"):
        vr.build_variety(A)


def test_each_generator_is_materialized_and_lifted_once(monkeypatch):
    # the motion checks read tau and the basis elations from the build's
    # certificate; only the other elations are materialized again
    calls = collections.Counter()
    materialize, linear_lift = mo.materialize, mo.linear_lift

    def counted_materialize(g, plane):
        calls[g.name] += 1
        return materialize(g, plane)

    def counted_lift(A, kind, X=None, Y=None):
        calls[kind, X, Y] += 1
        return linear_lift(A, kind, X=X, Y=Y)

    monkeypatch.setattr(mo, "materialize", counted_materialize)
    monkeypatch.setattr(mo, "linear_lift", counted_lift)
    stages = cli.Stages()
    cli.run_verify_all(cli.RunConfig("verify-all", algebra="CD(F4,0)"),
                       stages)
    A = alg.parse_algebra("CD(F4,0)")
    F = A.field
    basis = [A.scale(F.p ** j, A.basis(i)) for i in range(A.dim)
             for j in range(F.k)]
    names = ["tau"] + ["%s(%s)" % (k, A.label(e)) for k in ("phi23", "phi13")
                       for e in basis]
    lifts = ([("tau", None, None)] + [("phi", None, e) for e in basis]
             + [("phi", e, None) for e in basis])
    assert len(names) == len(set(names)) == 9
    assert [calls[n] for n in names] == [1] * 9
    assert [calls[k] for k in lifts] == [1] * 9
    # 9 generators and the 2 * 12 other elations
    assert sum(calls[g] for g in calls if isinstance(g, str)) == 33
    # the report counts them, and the 16 * 16 lift pairs
    assert {k: stages.stats[k] for k in (
        "algebra_elements", "elations_materialized",
        "lift_pairs_checked")} == {"algebra_elements": 16,
                                   "elations_materialized": 33,
                                   "lift_pairs_checked": 256}


def test_a_generator_off_the_plane_is_refused_and_raised(
        algebra_cd_f2, monkeypatch, capsys):
    # phi23(1) sends every point off the plane: the build refuses it, and
    # the motion checks raise its MotionError where they reach it
    A = algebra_cd_f2
    real = mo.elation

    def elation(A_, kind, param):
        g = real(A_, kind, param)
        if kind == "phi23" and param == A.one():
            return mo.PlaneMap(g.name, lambda p: ("P", 3) + p[2:],
                               g.apply_line)
        return g

    monkeypatch.setattr(mo, "elation", elation)
    V = vr.build_variety(A)
    assert V.stats["generators_refused"] == ["phi23(%s)" % A.label(A.one())]
    assert _mismatches(V) == []
    assert [c.status for c in cli.motion_checks(V, ("triality",))] == [
        "pass", "pass"]
    with pytest.raises(mo.MotionError, match="is not a plane point"):
        cli.motion_checks(V, ("elations",))
    assert cli.main(["motions", "--algebra", "CD(F2,0)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ringgeom: MotionError: image ")
    assert err.count("\n") == 1
    # the first point (0, 0, 1), moved to tag 3, in coordinates
    assert "image ('P', 3, (0, 0), (0, 0), (1, 0)) is not" in err
