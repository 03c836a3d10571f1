"""Tubes carried along certified lifts against tubes extracted directly.

`build_variety` extracts one tube per line orbit of its certified
generators and transports the rest.  The reference here extracts every
tube of the same variety directly, and the two must agree field by
field.  A wrong lift must be refused by the certificate, and a wrong
lift that slips past the certificate must be caught by the per-tube
recheck of X(xi)."""

import dataclasses

import pytest

from ringgeom import algebras as alg
from ringgeom import motions as mo
from ringgeom import projective as pj
from ringgeom import veronese as vr
from ringgeom.projective import GeometryError


def _extracted(V, li):
    """The tube of line li by direct extraction from X."""
    member = [V.points[pi] for pi in V.plane.points_on[li]]
    return vr.extract_tube(V.field, pj.span(V.field, member, V.n),
                           V.point_set, V.point_index, li)


def _mismatches(V):
    """(line, field) for every tube field that differs from extraction."""
    out = []
    for li, tube in enumerate(V.tubes):
        ref = _extracted(V, li)
        out.extend((li, f.name) for f in dataclasses.fields(vr.Tube)
                   if getattr(tube, f.name) != getattr(ref, f.name))
    return out


@pytest.fixture(scope="module")
def variety_cd_f5(f5_field):
    return vr.build_variety(alg.cd_chain(f5_field, [f5_field.zero],
                                         name="F5"))


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
            M[row] = pj.vec_add(field, M[row], M[(row + 1) % len(M)])
        return M

    monkeypatch.setattr(mo, "linear_lift", lift)


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
    assert _mismatches(V) == []


def test_recheck_catches_a_wrong_lift_the_certificate_missed(
        algebra_cd_f3, monkeypatch):
    # tau's lift is wrong and used uncertified: the transported xi then
    # carries points of X off the line image
    A = algebra_cd_f3
    _corrupt_lift(monkeypatch, A.field, "tau", None, 0)
    certified = vr.certified_lifts

    def uncertified(A_, plane, points):
        lifts, _ = certified(A_, plane, points)
        pperm, lperm = mo.materialize(mo.triality(A_), plane)
        return lifts + [(pperm, lperm, mo.linear_lift(A_, "tau"))], []

    monkeypatch.setattr(vr, "certified_lifts", uncertified)
    with pytest.raises(GeometryError, match="not the line image"):
        vr.build_variety(A)
