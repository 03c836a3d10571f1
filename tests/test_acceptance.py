"""Acceptance suite: every criterion at its stated tolerance, one
printed pass/fail line each.  Desk scale: exhaustive over F2..F5.  Over Q
the associative, alternative and quadratic laws are decided exactly from
basis elements; seeded sampling remains only for division when the norm
is not diagonal positive definite."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ringgeom.fields import GF, QQ
from ringgeom import algebras as alg
from ringgeom import projective as pj
from ringgeom import hjplane as hp
from ringgeom import veronese as vr
from ringgeom import motions as mo
from ringgeom import f2geom as f2
from ringgeom import scrolls as sc


def report(num, desc, ok, elapsed=None):
    stamp = "" if elapsed is None else " (%.1fs)" % elapsed
    print("ACCEPTANCE %02d [%s] %s%s" % (num, "PASS" if ok else "FAIL",
                                         desc, stamp))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_algebra_taxonomy():
    t0 = time.time()
    bases = [
        (alg.ground_algebra(GF(2), "F2"), True),
        (alg.ground_algebra(GF(3), "F3"), True),
        (alg.ground_algebra(GF(5), "F5"), True),
        (alg.quadratic_field_algebra(GF(2)), False),   # F4, Frobenius
    ]
    ok = True
    for B, trivial_inv in bases:
        A = alg.cd_double(B, B.field.zero)
        rep = alg.classify(A)
        ok = ok and rep.quadratic and rep.associative
        ok = ok and (rep.commutative == trivial_inv)
        want_radical = [A.basis(A.base_dim + i)
                        for i in range(A.base_dim)]
        got, _ = pj.rref(A.field, rep.radical)
        want, _ = pj.rref(A.field, want_radical)
        ok = ok and list(got) == list(want)
    finite_elapsed = time.time() - t0
    t1 = time.time()
    H = alg.cd_chain(QQ(), [Fraction(-1), Fraction(-1)], name="Q")
    repH = alg.classify(H, samples=200)
    ok = ok and repH.quadratic and repH.associative and repH.division \
        and not repH.commutative
    O = alg.cd_chain(QQ(), [Fraction(-1)] * 3, name="Q")
    repO = alg.classify(O, samples=1000)
    ok = ok and repO.alternative and not repO.associative
    rational_elapsed = time.time() - t1
    ok = ok and finite_elapsed < 1.0 and rational_elapsed < 5.0
    report(1, "CD(B,0) taxonomy for B in {F2,F3,F4,F5}; quaternions and "
           "octonions over Q", ok, finite_elapsed + rational_elapsed)


def test_criterion_02_truncated_series():
    bases = [alg.ground_algebra(GF(2), "F2"),
             alg.ground_algebra(GF(3), "F3"),
             alg.ground_algebra(GF(4), "F4"),
             alg.quadratic_field_algebra(GF(2))]
    ok = True
    for B in bases:
        S = alg.truncated_series(B, 2)
        D = alg.cd_double(B, B.field.zero)
        ok = ok and alg.find_isomorphism_to_cd(S, D) is not None
    report(2, "B[t]/(t^2) = CD(B,0) by explicit structure-constant "
           "isomorphism, B in {F2,F3,F4}", ok)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_criterion_03_tube_axioms(q, variety_f2, variety_f3):
    t0 = time.time()
    if q == 2:
        V = variety_f2
    elif q == 3:
        V = variety_f3
    else:
        K = GF(q)
        V = vr.build_variety(alg.cd_chain(K, [K.zero], name="F%d" % q))
    d_a = V.algebra.dim
    ok = vr.check_h1(V)["ok"]
    ok = ok and vr.check_h2star(V)["ok"]
    ok = ok and vr.check_tubes(V, d_base=d_a // 2, v=d_a // 2 - 1)["ok"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(3, "V2(F%d, CD(F%d,0)): (H1), (H2*), unique tube fits with "
           "vertex dim %d and Witt-1 ovoid bases" % (q, q, d_a // 2 - 1),
           ok, elapsed)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_criterion_04_main_result_2(q):
    K = GF(q)
    ok = True
    for A in (alg.ground_algebra(K, "F%d" % q),
              alg.quadratic_field_algebra(K)):
        V = vr.build_variety(A)
        ok = ok and vr.check_mm1(V)["ok"] and vr.check_mm2star(V)["ok"]
        ok = ok and V.ambient_pdim == 3 * A.dim + 2
    report(4, "V2(F%d,F%d) and V2(F%d,F%d): (MM1),(MM2*) with N = 3d+2"
           % (q, q, q, q * q), ok)


def _cor_suite(V, data, crep, base_algebra):
    field = V.field
    v = V.tubes[0].v
    y = data["y"]
    ok = y.pdim == 3 * v + 2
    verts = {t.vertex.rows: t.vertex for t in V.tubes}
    for v1, v2 in itertools.combinations(verts.values(), 2):
        ok = ok and not pj.meet(v1, v2).rows
    yrep = vr.vertex_space_y(V)[2]
    ok = ok and yrep["regular_spread"]
    # certificate: F ^ X is projectively equivalent to V2(K, B)
    F = data["F"]
    xp = data["xprime"]
    pts1 = [pj.intrinsic_coords(F, p) for p in xp]
    idx1 = {p: i for i, p in enumerate(xp)}
    blocks1 = [tuple(sorted(idx1[p] for p in data["quadrics"][k]))
               for k in sorted(data["quadrics"])]
    direct = vr.build_variety(base_algebra)
    cert = vr.projective_equivalence(field, pts1, blocks1, direct.points,
                                     direct.blocks())
    ok = ok and cert is not None
    ok = ok and crep["bijective"] and crep["incidence_reversing"]
    ok = ok and crep["cross_ratio"] in (True, "vacuous")
    ok = ok and crep["x_is_union"]
    return ok


def test_criterion_05_vertex_space_suite(variety_f2, projection_f2,
                                      variety_f3, projection_f3,
                                      variety_f4big, projection_f4big,
                                      f2_field, f3_field):
    t0 = time.time()
    cases = [
        (variety_f2, projection_f2, alg.ground_algebra(f2_field, "F2")),
        (variety_f3, projection_f3, alg.ground_algebra(f3_field, "F3")),
        (variety_f4big, projection_f4big,
         alg.quadratic_field_algebra(f2_field)),
    ]
    ok = True
    for V, (prep, data), B in cases:
        chi, crep = vr.connection_chi(V, data)
        ok = ok and prep["f_cap_x_equals_projection"]
        ok = ok and prep["mm1"] and prep["mm2star"]
        ok = ok and _cor_suite(V, data, crep, B)
    report(5, "vertex-space suite at (2,F2), (3,F3), (2,F4): dim Y = 3v+2, "
           "regular vertex spread, F-section certificate, chi duality, "
           "X as a union of affine pieces", ok, time.time() - t0)


def test_criterion_06_hjelmslev(variety_f2, projection_f2, variety_f3,
                                projection_f3, variety_f4big,
                                projection_f4big):
    t0 = time.time()
    ok = True
    for V, (prep, data) in ((variety_f2, projection_f2),
                            (variety_f3, projection_f3),
                            (variety_f4big, projection_f4big)):
        hj = vr.variety_hjelmslev(V, data)
        ok = ok and hj["ok"]
    report(6, "(Hj1)-(Hj4) with affine neighbour classes of order |B| "
           "for the three varieties", ok, time.time() - t0)


def test_criterion_07_structure_at_vertices(variety_f3, projection_f3):
    t0 = time.time()
    rep, data = projection_f3
    verts = {t.vertex.rows: t.vertex for t in variety_f3.tubes}
    ok = len(verts) == 13
    for v in verts.values():
        lrep = vr.local_structure_at_vertex(variety_f3, v, data)
        ok = ok and lrep["dual_affine"] and lrep["spread_regular"]
        ok = ok and lrep["chi_v_projectivity"] is True
        ok = ok and lrep["scroll_quadrics_match"]
        ok = ok and lrep["dim_span_cv"] == 3 * 0 + 1 + 4
        ok = ok and lrep["v_equals_d_minus_1"]
    report(7, "dual affine plane, regular R_V, chi_V projectivity, scroll "
           "quadrics and dim<C_V> = 3v+d+4 at all 13 vertices of "
           "V2(F3,CD(F3,0))", ok, time.time() - t0)


def test_criterion_08_motions(algebra_cd_f2, variety_f2, algebra_cd_f3,
                              variety_f3):
    t0 = time.time()
    ok = True
    A = algebra_cd_f2
    plane = hp.build_plane(A)
    tau = mo.triality(A)
    pp, lp = mo.materialize(tau, plane)
    ident = tuple(range(len(plane.points)))
    ok = ok and mo.perm_mul(pp, mo.perm_mul(pp, pp)) == ident
    ok = ok and mo.preserves_incidence(tau, plane)[0]
    ok = ok and mo.preserves_neighbouring(tau, plane)[0]
    mats = {}
    for kind in ("phi23", "phi13"):
        for Y in A.elements():
            em = mo.elation(A, kind, Y)
            ok = ok and mo.preserves_incidence(em, plane)[0]
            ok = ok and mo.preserves_neighbouring(em, plane)[0]
            mats[(kind, Y)] = mo.materialize(em, plane)[0]
        for y1 in A.elements():
            for y2 in A.elements():
                prod = mo.perm_mul(mats[(kind, y1)], mats[(kind, y2)])
                ok = ok and prod == mats[(kind, A.add(y1, y2))]
    for X in A.elements():
        for Y in A.elements():
            M = mo.linear_lift(A, "phi", X=X, Y=Y)
            g = mo.compose(mo.elation(A, "phi13", X),
                           mo.elation(A, "phi23", Y))
            ok = ok and mo.verify_equivariance(M, g, variety_f2)[0]
            ok = ok and mo.lift_stabilizes_points(M, variety_f2.field,
                                                  variety_f2.points)
    # CD(F3,0): sampled
    A3 = algebra_cd_f3
    rng = random.Random(0)
    elems = A3.elements()
    for _ in range(20):
        X = elems[rng.randrange(len(elems))]
        Y = elems[rng.randrange(len(elems))]
        M = mo.linear_lift(A3, "phi", X=X, Y=Y)
        g = mo.compose(mo.elation(A3, "phi13", X),
                       mo.elation(A3, "phi23", Y))
        ok = ok and mo.verify_equivariance(M, g, variety_f3)[0]
    report(8, "tau^3 = id, elation additivity, incidence/neighbouring "
           "preservation, rho-equivariant lifts (exhaustive at F2, 20 "
           "sampled pairs at F3)", ok, time.time() - t0)


def test_criterion_09_census(m10, m10_census):
    t0 = time.time()
    cen = m10_census
    ok = (cen["x"], cen["elliptic"], cen["triangle_centers"],
          cen["quadrangle_centers"], cen["admissible"]) == \
        (21, 210, 1120, 630, 66)
    ok = ok and cen["partition_sum"] == 2047 and cen["partition_disjoint"]
    ok = ok and cen["m_labels"] == ["124689", "135678", "234579"]
    ok = ok and cen["admissible_lines"] == 64
    ok = ok and cen["tangent_dims"] == [6]
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    report(9, "M10 census 21/210/1120/630/66, partition 2047, M = "
           "{124689,135678,234579}, 64 admissible lines, dim T_x = 6",
           ok, elapsed)


def test_criterion_10_projections(m10, m10_census, f2_field):
    t0 = time.time()
    m = m10_census["m"]
    projM, repM = f2.project_m10(m10, m)
    ok = repM["ok"] and repM["dim"] == 8
    pts1 = [f2.int_to_tuple(v, 9) for v in projM.points]
    idx1 = {v: i for i, v in enumerate(projM.points)}
    blocks1 = [tuple(sorted(idx1[v] for v in b)) for b in projM.blocks]
    direct = vr.build_variety(alg.quadratic_field_algebra(f2_field))
    cert = vr.projective_equivalence(f2_field, pts1, blocks1,
                                     direct.points, direct.blocks())
    ok = ok and cert is not None
    _, rep_on = f2.project_m10(m10, [m[0]])
    ok = ok and sorted(set(rep_on["tangent_profile"])) == [5]
    off = [p for p in m10_census["admissible_points"] if p not in m][0]
    _, rep_off = f2.project_m10(m10, [off])
    ok = ok and rep_off["tangent_profile"].count(5) == 1
    # every admissible projection keeps (MM1), (MM2*)
    for p in m10_census["admissible_points"]:
        ok = ok and f2.project_m10(m10, [p])[1]["ok"]
    adm_set = set(m10_census["admissible_points"])
    lines = {frozenset((a, b, a ^ b))
             for a, b in itertools.combinations(sorted(adm_set), 2)
             if a ^ b in adm_set}
    for line in sorted(lines, key=sorted):
        ok = ok and f2.project_m10(m10, sorted(line))[1]["ok"]
    report(10, "projections of M10: certificate to V2(F2,F4) from M, the "
           "two N=9 cases separated by tangent profiles, all admissible "
           "projections keep (MM1),(MM2*)", ok, time.time() - t0)


def test_criterion_11_stabilizer(m10, m10_census):
    t0 = time.time()
    rep = f2.stabilizer_report(m10, m10_census)
    ok = rep["order"] == 120960
    ok = ok and rep["point_transitive"]
    ok = ok and rep["admissible_orbit_sizes"] == [3, 63]
    ok = ok and rep["m_is_orbit"]
    report(11, "stabilizer of M10 has order 120960 with admissible-point "
           "orbits of sizes 3 and 63", ok, time.time() - t0)


def test_criterion_12_witt_design(m10):
    t0 = time.time()
    w = f2.witt_lift(m10)
    import math
    ok = len(w["points"]) == 24
    ok = ok and w["octad_count"] == 759 == math.comb(24, 5) // math.comb(8, 5)
    ok = ok and w["design_ok"]
    ok = ok and w["converse"]["ok"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(12, "Witt lift: 24 points, 759 octads, every 5-subset once, "
           "converse projection recovers M10 + 3-point line", ok, elapsed)


def test_criterion_13_d1_examples(f2_field):
    t0 = time.time()
    ex = f2.d1_q2_examples()
    ok = True
    for name, v in ex.items():
        ok = ok and vr.check_mm1(v)["ok"] and vr.check_mm2star(v)["ok"]
    t = vr.projective_equivalence(
        f2_field, ex["frame5"].points, ex["frame5"].blocks(),
        ex["frame4_plus_point"].points, ex["frame4_plus_point"].blocks())
    ok = ok and t is None
    report(13, "d=1, q=2: both N=5 structures and the N=6 basis pass "
           "(MM1),(MM2*); the N=5 pair is projectively inequivalent",
           ok, time.time() - t0)


def test_criterion_14_counterexample(counterexample):
    t0 = time.time()
    ce = counterexample
    ok = vr.check_tubes(ce, d_base=1, v=1)["ok"]
    ok = ok and vr.check_h1(ce)["ok"]
    ok = ok and vr.check_h2(ce)["ok"]
    ok = ok and vr.check_h3(ce, 6)["ok"]
    wit = next((v[:2] for v in vr.check_h2star(ce)["violations"]
                if v[2] == "disjoint"), None)
    ok = ok and wit is not None
    report(14, "PG(13,F3) example satisfies (H1),(H2),(H3<=6) and breaks "
           "(H2*) with disjoint pair %s" % (wit,), ok, time.time() - t0)


@pytest.mark.parametrize("d,q", [(1, 3), (1, 4), (2, 3), (2, 4)])
def test_criterion_15_scrolls(d, q):
    t0 = time.time()
    field = GF(q)
    s = sc.canonical_cubic_scroll(field) if d == 1 \
        else sc.canonical_regular_scroll(d, q)
    quads = sc.scroll_quadrics(s)
    ok = len(quads) == q ** (2 * d)
    uniq, _ = sc.verify_unique_quadrics(s, quads)
    ok = ok and uniq
    # alpha sections on quadric pairs through a common point (every pair
    # for d = 1, where each conic goes to its alpha line by a
    # projectivity; 12 pairs for d = 2)
    keys = sorted(quads)
    checked = 0
    budget = 10 ** 9 if d == 1 else 12
    for k1, k2 in itertools.combinations(keys, 2):
        shared = set(k1) & set(k2)
        if len(shared) != 1:
            continue
        c = shared.pop()
        side1 = {s.transversal_index_of(p): p for p in k1 if p != c}
        side2 = {s.transversal_index_of(p): p for p in k2 if p != c}
        order = sorted(side1)
        pairing = [(side1[i], side2[i]) for i in order]
        al, images, inf_space = sc.alpha_section(field, pairing, s.n)
        if d == 1:
            conic = [c] + [side1[i] for i in order]
            members = [pj.span(field, [p], s.n)
                       for p in [inf_space.rows[0]] + images]
            ok = ok and sc.projectivity_witness(field, conic, members) is None
        checked += 1
        if checked >= budget:
            break
    ok = ok and checked > 0
    report(15, "scroll properties at d=%d, q=%d: unique quadrics through "
           "valid pairs, single-point pairwise meets, alpha sections"
           % (d, q), ok, time.time() - t0)
