import itertools

import pytest

from ringgeom import algebras as alg
from ringgeom import cli
from ringgeom import hjplane as hp
from ringgeom import motions as mo
from ringgeom import veronese as vr

from motion_reference import lift_stabilizes_points, linear_lift_by_images
from projective_reference import vec_add
from plane_reference import encode, point_neighbouring
from projective_reference import subspace_vectors


@pytest.fixture(scope="module")
def plane_f2(algebra_cd_f2):
    return hp.build_plane(algebra_cd_f2)


@pytest.fixture(scope="module")
def plane_f3(algebra_cd_f3):
    return hp.build_plane(algebra_cd_f3)


def test_phi23_zero_is_identity(algebra_cd_f2, plane_f2):
    em = mo.elation(algebra_cd_f2, "phi23", algebra_cd_f2.zero())
    pp, lp = mo.materialize(em, plane_f2)
    assert pp == tuple(range(len(plane_f2.points)))
    assert lp == tuple(range(len(plane_f2.lines)))


def test_phi23_fixes_axis_and_center_pencil(algebra_cd_f2, plane_f2):
    A = algebra_cd_f2
    axis = encode(A, ("L", 2, A.zero(), A.zero(), A.one()))    # [0, 0, 1]
    center = encode(A, ("P", 2, A.zero(), A.one(), A.zero()))  # (0, 1, 0)
    zero = encode(A, A.zero())
    axis_pts = [p for p in plane_f2.points
                if hp.incidence_value(A, p, axis) == zero]
    for Y in A.elements():
        em = mo.elation(A, "phi23", Y)
        for p in axis_pts:
            assert em.apply_point(p) == p
        for l in plane_f2.lines:
            if hp.incidence_value(A, center, l) == zero:
                assert em.apply_line(l) == l


def test_elation_additivity_f3_exhaustive(algebra_cd_f3, plane_f3):
    A = algebra_cd_f3
    mats = {x: mo.materialize(mo.elation(A, "phi13", x), plane_f3)[0]
            for x in A.elements()}
    for x1 in A.elements():
        for x2 in A.elements():
            assert mo.perm_mul(mats[x1], mats[x2]) == mats[A.add(x1, x2)]


def test_elations_preserve_incidence_and_neighbouring(algebra_cd_f2,
                                                      plane_f2):
    A = algebra_cd_f2
    for kind in ("phi23", "phi13"):
        for Y in A.elements():
            em = mo.elation(A, kind, Y)
            pp, lp = mo.materialize(em, plane_f2)
            ok, wit = mo.perms_preserve_incidence(pp, lp, plane_f2)
            assert ok, (kind, Y, wit)
            ok, wit = mo.perm_preserves_neighbouring(pp, plane_f2)
            assert ok, (kind, Y, wit)


@pytest.mark.parametrize("fixture", ["algebra_cd_f2", "algebra_cd_f3"])
def test_triality_order_three(fixture, request):
    A = request.getfixturevalue(fixture)
    plane = hp.build_plane(A)
    tau = mo.triality(A)
    pp, lp = mo.materialize(tau, plane)
    ident = tuple(range(len(pp)))
    assert mo.perm_mul(pp, mo.perm_mul(pp, pp)) == ident
    assert mo.perm_mul(lp, mo.perm_mul(lp, lp)) == tuple(range(len(lp)))
    ok, wit = mo.perms_preserve_incidence(pp, lp, plane)
    assert ok, wit


def test_triality_deep_point_case(algebra_cd_f2):
    A = algebra_cd_f2
    tau = mo.triality(A)
    x1 = (A.field.one,)
    z1 = (A.field.one,)
    p = encode(A, ("P", 2, A.t_times(x1), A.one(), A.t_times(z1)))
    assert tau.apply_point(p) == encode(
        A, ("P", 0, A.t_times(z1), A.t_times(x1), A.one()))


def test_conjugation_by_triality_gives_other_elations(algebra_cd_f2,
                                                      plane_f2):
    # tau phi23(Y) tau^-1 is again a collineation fixing a flag pencil
    A = algebra_cd_f2
    tau = mo.triality(A)
    tau2 = mo.compose(tau, tau)
    for Y in A.elements():
        g = mo.compose(tau, mo.compose(mo.elation(A, "phi23", Y), tau2))
        ok, _ = mo.perms_preserve_incidence(*mo.materialize(g, plane_f2),
                                            plane_f2)
        assert ok


def test_tau_lift_is_coordinate_shuffle(algebra_cd_f2):
    A = algebra_cd_f2
    M = mo.linear_lift(A, "tau")
    n = 3 * A.dim + 3
    v = tuple(range(1, n + 1))
    F = A.field
    img = mo.pj.vec_mat(F, tuple(x % 2 for x in v), M)
    # (x,y,z;xi,ups,zeta) -> (z,x,y;zeta,xi,ups)
    x, y, z = 1 % 2, 2 % 2, 3 % 2
    m = A.dim
    xi = tuple((4 + i) % 2 for i in range(m))
    ups = tuple((4 + m + i) % 2 for i in range(m))
    zeta = tuple((4 + 2 * m + i) % 2 for i in range(m))
    assert img == (z, x, y) + zeta + xi + ups


def test_phi_lift_identity(algebra_cd_f3):
    A = algebra_cd_f3
    M = mo.linear_lift(A, "phi", X=A.zero(), Y=A.zero())
    n = 3 * A.dim + 3
    F = A.field
    ident = [tuple(F.one if j == i else F.zero for j in range(n))
             for i in range(n)]
    assert M == ident


def test_equivariance_exhaustive_f2(algebra_cd_f2, variety_f2):
    from ringgeom import veronese as vr
    A = algebra_cd_f2
    y, _, _ = vr.vertex_space_y(variety_f2)
    ypts = subspace_vectors(y)
    for X in A.elements():
        for Y in A.elements():
            M = mo.linear_lift(A, "phi", X=X, Y=Y)
            g = mo.compose(mo.elation(A, "phi13", X),
                           mo.elation(A, "phi23", Y))
            ok, wit = mo.verify_equivariance(
                A.field, M, mo.materialize(g, variety_f2.plane)[0],
                variety_f2.points)
            assert ok, (X, Y, wit)
            assert lift_stabilizes_points(M, A.field, variety_f2.points)
            assert lift_stabilizes_points(M, A.field, ypts)
    tauM = mo.linear_lift(A, "tau")
    assert lift_stabilizes_points(tauM, A.field, ypts)


def test_transitivity_on_pairs_f2(algebra_cd_f2, plane_f2):
    A = algebra_cd_f2
    gens = [mo.materialize(mo.triality(A), plane_f2)[0]]
    for Y in A.elements():
        gens.append(mo.materialize(mo.elation(A, "phi23", Y), plane_f2)[0])
        gens.append(mo.materialize(mo.elation(A, "phi13", Y), plane_f2)[0])
    pts = plane_f2.points
    nb, far = [], []
    for i, j in itertools.combinations(range(len(pts)), 2):
        (nb if point_neighbouring(plane_f2, pts[i], pts[j])
         else far).append((i, j))
    assert len(mo.pair_orbit(gens, nb[0])) == len(nb)
    assert len(mo.pair_orbit(gens, far[0])) == len(far)
    assert len(mo.point_orbit(gens, 0)) == len(pts)


def _pairwise_neighbouring(pperm, plane):
    """Reference: neighbour status of every point pair before and after."""
    pts = plane.points
    for i, j in itertools.combinations(range(len(pts)), 2):
        if (point_neighbouring(plane, pts[i], pts[j])
                != point_neighbouring(plane, pts[pperm[i]], pts[pperm[j]])):
            return False, (i, j)
    return True, None


def _genuine(pair, pperm, plane):
    """Whether the neighbour status of the pair differs under the map."""
    i, j = pair
    pts = plane.points
    return i < j and (point_neighbouring(plane, pts[i], pts[j])
                      != point_neighbouring(plane, pts[pperm[i]],
                                            pts[pperm[j]]))


def _swap_with_non_neighbour(plane):
    """Identity with the last points of two neighbour classes swapped."""
    last = {}
    for i, key in enumerate(plane.point_keys):
        last[key] = i
    a, b = sorted(last.values())[:2]
    perm = list(range(len(plane.points)))
    perm[a], perm[b] = b, a
    return tuple(perm)


@pytest.mark.parametrize("fixture", ["plane_f2", "plane_f3"])
def test_key_neighbouring_matches_pair_loop(fixture, request):
    plane = request.getfixturevalue(fixture)
    A = plane.algebra
    maps = [mo.triality(A)] + [mo.elation(A, kind, Y)
                               for kind in ("phi23", "phi13")
                               for Y in A.elements()]
    swap = _swap_with_non_neighbour(plane)
    for g in maps:
        pp = mo.materialize(g, plane)[0]
        assert mo.perm_preserves_neighbouring(pp, plane) == (True, None)
        assert _pairwise_neighbouring(pp, plane) == (True, None)
        broken = mo.perm_mul(pp, swap)
        ok, pair = mo.perm_preserves_neighbouring(broken, plane)
        assert not ok and _genuine(pair, broken, plane)
        assert not _pairwise_neighbouring(broken, plane)[0]


def test_neighbouring_rejects_swap_with_non_neighbour(plane_f2):
    swap = _swap_with_non_neighbour(plane_f2)
    keys = plane_f2.point_keys
    a, b = [i for i, j in enumerate(swap) if i != j]
    assert keys[a] != keys[b]
    ok, pair = mo.perm_preserves_neighbouring(swap, plane_f2)
    assert not ok and _genuine(pair, swap, plane_f2)


def test_neighbouring_rejects_joined_classes(plane_f2):
    # every point sent to point 0: each class goes to one class, but
    # distinct classes go to the same one
    collapse = (0,) * len(plane_f2.points)
    ok, pair = mo.perm_preserves_neighbouring(collapse, plane_f2)
    assert not ok and _genuine(pair, collapse, plane_f2)


@pytest.mark.parametrize("row", range(9))
def test_equivariance_rejects_one_wrong_row(row, algebra_cd_f2,
                                            variety_f2):
    A = algebra_cd_f2
    X = Y = A.one()
    M = mo.linear_lift(A, "phi", X=X, Y=Y)
    g = mo.compose(mo.elation(A, "phi13", X), mo.elation(A, "phi23", Y))
    pperm = mo.materialize(g, variety_f2.plane)[0]
    pts = variety_f2.points
    assert mo.verify_equivariance(A.field, M, pperm, pts) == (True, None)
    bad = list(M)
    bad[row] = vec_add(A.field, M[row], M[(row + 1) % len(M)])
    ok, i = mo.verify_equivariance(A.field, bad, pperm, pts)
    assert not ok
    assert mo.pj.apply_matrix(A.field, bad, pts[i]) != pts[pperm[i]]


MOTION_CHECKS = ("triality", "elations", "equivariance")
PAIR_CHECKS = ("elations.incidence", "elations.neighbouring",
               "elations.additive", "lift.phi_equivariant")


def _all_pairs_verdicts(V):
    """Reference: every elation, every pair of parameters and every lift
    pair checked directly, with no use of generators."""
    A, plane = V.algebra, V.plane
    elems = A.elements()
    inc = nb = add = lift = True
    for kind in ("phi23", "phi13"):
        perms = {a: mo.materialize(mo.elation(A, kind, a), plane)
                 for a in elems}
        for pp, lp in perms.values():
            inc = inc and mo.perms_preserve_incidence(pp, lp, plane)[0]
            nb = nb and mo.perm_preserves_neighbouring(pp, plane)[0]
        for a in elems:
            for b in elems:
                add = add and (mo.perm_mul(perms[a][0], perms[b][0])
                               == perms[A.add(a, b)][0])
    for X in elems:
        for Y in elems:
            g = mo.compose(mo.elation(A, "phi13", X),
                           mo.elation(A, "phi23", Y))
            M = mo.linear_lift(A, "phi", X=X, Y=Y)
            lift = lift and mo.verify_equivariance(
                V.field, M, mo.materialize(g, plane)[0], V.points)[0]
    return dict(zip(PAIR_CHECKS, (inc, nb, add, lift)))


def _verdicts(V):
    return {c.name: c.status == "pass"
            for c in cli.motion_checks(V, MOTION_CHECKS)
            if c.name in PAIR_CHECKS}


@pytest.mark.parametrize("fixture", ["variety_f2", "variety_f3",
                                     "variety_cd_f4"])
def test_generator_checks_match_all_pairs(fixture, request):
    V = request.getfixturevalue(fixture)
    statuses = [c.status for c in cli.motion_checks(V, MOTION_CHECKS)]
    assert statuses == ["pass"] * 7
    assert _verdicts(V) == _all_pairs_verdicts(V)


def test_transitivity_from_generator_elations(variety_f2):
    checks = cli.motion_checks(variety_f2, ("transitivity",))
    assert [(c.name, c.status) for c in checks] == [
        ("transitive.neighbouring_pairs", "pass"),
        ("transitive.far_pairs", "pass")]


def _substitute_phi23(monkeypatch, at, by):
    real = mo.elation
    monkeypatch.setattr(mo, "elation", lambda A, kind, param: real(
        A, kind, by if kind == "phi23" and param == at else param))


def test_generator_checks_match_all_pairs_on_a_broken_family(
        algebra_cd_f2, monkeypatch):
    # the basis elation phi23(1) is replaced before the build, which
    # certifies the generators the checks report
    A = algebra_cd_f2
    _substitute_phi23(monkeypatch, A.one(), A.zero())
    V = vr.build_variety(A)
    verdicts = _verdicts(V)
    assert verdicts == _all_pairs_verdicts(V)
    assert not verdicts["elations.additive"]


@pytest.mark.parametrize("fixture", ["variety_f2", "variety_f3"])
def test_non_additive_elation_family_fails(fixture, request, monkeypatch):
    V = request.getfixturevalue(fixture)
    A = V.algebra
    off_basis = A.add(A.basis(0), A.basis(1))          # (1, 1)
    _substitute_phi23(monkeypatch, off_basis, A.basis(0))
    checks = {c.name: c for c in cli.motion_checks(V, MOTION_CHECKS)}
    # phi23(1, 0) is a collineation, so only the identities can see this
    assert checks["elations.incidence"].status == "pass"
    assert checks["elations.neighbouring"].status == "pass"
    for name in ("elations.additive", "lift.phi_equivariant"):
        assert checks[name].status == "fail"
        assert off_basis in checks[name].witnesses[0]


@pytest.mark.parametrize("row", [0, 4, 8])
@pytest.mark.parametrize("fixture", ["variety_f2", "variety_f3"])
def test_lift_with_one_wrong_row_off_the_basis_fails(fixture, row, request,
                                                     monkeypatch):
    V = request.getfixturevalue(fixture)
    A = V.algebra
    off_basis = A.add(A.basis(0), A.basis(1))          # (1, 1)
    real = mo.linear_lift

    def lift(A_, kind, X=None, Y=None):
        M = real(A_, kind, X=X, Y=Y)
        if kind == "phi" and X == off_basis and Y is None:
            M = list(M)
            M[row] = vec_add(A.field, M[row], M[(row + 1) % len(M)])
        return M

    monkeypatch.setattr(mo, "linear_lift", lift)
    checks = {c.name: c for c in cli.motion_checks(V, MOTION_CHECKS)}
    assert checks["elations.additive"].status == "pass"
    bad = checks["lift.phi_equivariant"]
    assert bad.status == "fail"
    assert off_basis in bad.witnesses[0]


@pytest.mark.parametrize("expr", ["CD(F2,0)", "CD(F3,0)", "CDu(F2,1,0)",
                                  "CD(F4,0)"])
def test_block_lift_matches_the_unit_vector_images(expr):
    A = alg.parse_algebra(expr)
    assert mo.linear_lift(A, "tau") == linear_lift_by_images(A, "tau")
    params = [None] + A.elements()
    for X, Y in itertools.product(params, params):
        assert mo.linear_lift(A, "phi", X=X, Y=Y) == linear_lift_by_images(
            A, "phi", X=X, Y=Y), (X, Y)


@pytest.mark.parametrize("fixture", ["variety_f2", "variety_f3"])
def test_a_wrong_block_entry_fails_as_in_the_reference(fixture, request,
                                                       monkeypatch):
    # T(X e_0) is off by one for X = (1, 1): in the lift of phi(X, Y) that
    # is the x entry of the row of ups = e_0, for every Y
    V = request.getfixturevalue(fixture)
    A, F = V.algebra, V.field
    off_basis = A.add(A.basis(0), A.basis(1))
    real = mo.lift_blocks

    def wrong_block(A_, a):
        b = real(A_, a)
        if A_.tables.elems[a] == off_basis:
            b = b._replace(tr=(F.add(b.tr[0], F.one),) + b.tr[1:])
        return b

    def wrong_reference(A_, kind, X=None, Y=None):
        M = linear_lift_by_images(A_, kind, X=X, Y=Y)
        if kind == "phi" and X == off_basis:
            row = 3 + A.dim
            M[row] = (F.add(M[row][0], F.one),) + M[row][1:]
        return M

    runs = []
    for name, wrong in (("lift_blocks", wrong_block),
                        ("linear_lift", wrong_reference)):
        with monkeypatch.context() as m:
            m.setattr(mo, name, wrong)
            runs.append([(c.name, c.status, c.witnesses)
                         for c in cli.motion_checks(V, MOTION_CHECKS)])
    blocks, reference = runs
    bad = [c for c in blocks if c[1] == "fail"]
    assert [c[0] for c in bad] == ["lift.phi_equivariant"]
    assert off_basis in bad[0][2][0]
    assert blocks == reference
