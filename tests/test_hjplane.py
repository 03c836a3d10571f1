import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ringgeom.fields import GF
from ringgeom import algebras as alg
from ringgeom import hjplane as hp


@pytest.fixture(scope="module")
def plane_f2(algebra_cd_f2):
    return hp.build_plane(algebra_cd_f2)


def test_point_count_formula(plane_f2, algebra_cd_f2):
    # |P| = |A|^2 + |A||B| + |B|^2 = 16 + 8 + 4
    assert len(plane_f2.points) == 28
    assert hp.expected_point_count(algebra_cd_f2, plane_f2.base) == 28


def test_counts_self_dual(plane_f2):
    assert len(plane_f2.points) == len(plane_f2.lines)


def test_g2_f2_is_fano():
    plane = hp.build_plane(alg.ground_algebra(GF(2), "F2"))
    assert len(plane.points) == 7 and len(plane.lines) == 7
    for on in plane.points_on:
        assert len(on) == 3
    rep = hp.verify_hjelmslev_level2(plane)
    assert rep["ok"]


def test_incidence_example(plane_f2, algebra_cd_f2):
    A = algebra_cd_f2
    p = ("P", 2, A.zero(), A.one(), A.zero())        # (0, 1, 0)
    l = ("L", 1, A.one(), A.zero(), A.zero())        # [1, 0, 0]
    assert plane_f2.incident(p, l)


def test_constructive_lists_match_brute_force(plane_f2):
    for li, l in enumerate(plane_f2.lines):
        brute = {i for i, p in enumerate(plane_f2.points)
                 if plane_f2.incident(p, l)}
        assert brute == set(plane_f2.points_on[li])


def test_line_100_has_a_plus_b_points(plane_f2, algebra_cd_f2):
    A = algebra_cd_f2
    l = ("L", 1, A.one(), A.zero(), A.zero())
    li = plane_f2.line_index[l]
    assert len(plane_f2.points_on[li]) == A.size() + plane_f2.base.size()


def test_epimorphism_fibers(plane_f2):
    pm, lm, residue = hp.epimorphism_to_residue(plane_f2)
    assert len(residue.points) == 7
    sizes = {}
    for v in pm.values():
        sizes[v] = sizes.get(v, 0) + 1
    assert set(sizes.values()) == {4}        # |B|^2 = 4
    # incidence is preserved
    for li, l in enumerate(plane_f2.lines):
        for pi in plane_f2.points_on[li]:
            p = plane_f2.points[pi]
            assert residue.incident(pm[p], lm[l])


def test_neighbouring_tilde_collapse(plane_f2, algebra_cd_f2):
    A = algebra_cd_f2
    p1 = ("P", 0, A.one(), A.t_times((A.field.one,)), A.one())   # (1, t, 1)
    p2 = ("P", 0, A.one(), A.zero(), A.one())                    # (1, 0, 1)
    assert plane_f2.point_neighbouring(p1, p2)


def test_residue_of_cd_f3_is_pg23(algebra_cd_f3):
    plane = hp.build_plane(algebra_cd_f3)
    pm, lm, residue = hp.epimorphism_to_residue(plane)
    assert len(residue.points) == 13


def test_hjelmslev_axioms_cd_f2(plane_f2):
    rep = hp.verify_hjelmslev_level2(plane_f2)
    assert rep["ok"] and rep["order"] == 2


def test_hjelmslev_axioms_g2_f4():
    plane = hp.build_plane(alg.quadratic_field_algebra(GF(2)))
    rep = hp.verify_hjelmslev_level2(plane)
    assert rep["ok"]      # neighbouring degenerates to equality


def test_hjelmslev_axioms_cd_f4(algebra_cd_f4_over_f2):
    # classes are affine planes of order 4
    plane = hp.build_plane(algebra_cd_f4_over_f2)
    assert len(plane.points) == 336
    rep = hp.verify_hjelmslev_level2(plane)
    assert rep["ok"] and rep["order"] == 4


def test_hjelmslev_axioms_cd_f3(algebra_cd_f3):
    plane = hp.build_plane(algebra_cd_f3)
    rep = hp.verify_hjelmslev_level2(plane)
    assert rep["ok"] and rep["order"] == 3


def test_point_line_neighbour_consistency(plane_f2):
    ok, wit = hp.nonneighbouring_point_line_consistency(plane_f2)
    assert ok, wit


def test_point_line_consistency_rejects_moved_key(plane_f2):
    # one point moved to another neighbour class by its key alone
    keys = list(plane_f2.point_keys)
    keys[0] = next(k for k in keys if k != keys[0])
    broken = dataclasses.replace(plane_f2, point_keys=keys)
    ok, (p, l) = hp.nonneighbouring_point_line_consistency(broken)
    assert not ok
    on = {keys[i] for i in plane_f2.points_on[plane_f2.line_index[l]]}
    near = plane_f2.point_line_neighbouring(p, l)
    assert near == (keys[plane_f2.point_index[p]] not in on)


def test_point_keys_are_tilde_triples(plane_f2):
    A, B = plane_f2.algebra, plane_f2.base
    assert plane_f2.point_keys == [hp.tilde_triple(A, B, p)
                                   for p in plane_f2.points]


def _pairwise_mismatch(a, b):
    """Reference for partition_mismatch: every index pair."""
    return [(j, i) for j, i in itertools.combinations(range(len(a)), 2)
            if (a[i] == a[j]) != (b[i] == b[j])]


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                max_size=12))
@settings(max_examples=500)
def test_partition_mismatch_matches_pair_loop(labels):
    a = [x for x, _ in labels]
    b = [y for _, y in labels]
    pairs = _pairwise_mismatch(a, b)
    for x, y in ((a, b), (b, a)):
        pair = hp.partition_mismatch(x, y)
        assert (pair is None) == (not pairs)
        if pair is not None:
            assert pair in pairs


def test_partition_mismatch_both_directions():
    # one class split in two (not well defined), two classes joined (not
    # injective)
    assert hp.partition_mismatch([0, 0, 1], [5, 6, 7]) == (0, 1)
    assert hp.partition_mismatch([0, 1, 2], [5, 6, 5]) == (0, 2)
    assert hp.partition_mismatch([0, 1, 0, 1], [7, 5, 7, 5]) is None


def test_rejects_wrong_shape():
    # CD(F2, 1) has t^2 = 1 != 0 and is not division
    A = alg.cd_chain(GF(2), [1], name="F2")
    with pytest.raises(hp.PlaneError):
        hp.build_plane(A)


def test_affine_plane_checker():
    # AG(2, 2): 4 points, 6 lines of 2
    pts = list(range(4))
    lines = [frozenset(c) for c in itertools.combinations(pts, 2)]
    assert hp.is_affine_plane(pts, lines, 2)
    assert not hp.is_affine_plane(pts, lines[:-1], 2)


def _plane_inputs(plane):
    """The arguments of check_hjelmslev for a ring plane."""
    A, B = plane.algebra, plane.base
    return (len(plane.points), [list(ps) for ps in plane.points_on],
            [hp.tilde_triple(A, B, p) for p in plane.points],
            [hp.tilde_triple(A, B, l) for l in plane.lines], B.size())


def test_checker_rejects_moved_point(plane_f2):
    npts, blocks, pkeys, bkeys, order = _plane_inputs(plane_f2)
    assert hp.check_hjelmslev(npts, blocks, pkeys, bkeys, order)["ok"]
    p = next(p for p in blocks[0] if p not in blocks[1])
    blocks[0].remove(p)
    blocks[1].append(p)
    rep = hp.check_hjelmslev(npts, blocks, pkeys, bkeys, order)
    assert not rep["ok"]
    assert {v[0] for v in rep["violations"]} & {"Hj1", "Hj2"}


def test_checker_rejects_merged_classes(plane_f2):
    npts, blocks, pkeys, bkeys, order = _plane_inputs(plane_f2)
    k1, k2 = sorted(set(pkeys))[:2]
    merged = [k1 if k == k2 else k for k in pkeys]
    rep = hp.check_hjelmslev(npts, blocks, merged, bkeys, order)
    assert not rep["hj3"] and ("Hj3", k1) in rep["violations"]
    k1, k2 = sorted(set(bkeys))[:2]
    merged = [k1 if k == k2 else k for k in bkeys]
    rep = hp.check_hjelmslev(npts, blocks, pkeys, merged, order)
    assert not rep["hj4"] and ("Hj4", k1) in rep["violations"]
