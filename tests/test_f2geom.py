import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ringgeom import algebras as alg
from ringgeom import cli
from ringgeom import f2geom as f2
from ringgeom import motions as mo
from ringgeom import veronese as vr

from plane_reference import projective_equivalence


def test_m10_counts(m10):
    assert len(m10.points) == 21
    assert len(m10.blocks) == 21
    per_point = {p: 0 for p in m10.points}
    for b in m10.blocks:
        for p in b:
            per_point[p] += 1
    assert set(per_point.values()) == {5}


def test_block_xi1_star(m10):
    # xi_1^* = {*, 1, 4, 7, 147*}
    want = frozenset(m10.labels[l] for l in ("s", "1", "4", "7", "147s"))
    assert want in set(m10.blocks)


def test_blocks_sum_to_zero(m10):
    for b in m10.blocks:
        acc = 0
        for v in b:
            acc ^= v
        assert acc == 0
        assert f2.bits_rank(list(b)) == 4


def test_bad_seed_rejected():
    seed = f2.standard_seed()
    seed["2"] = seed["1"]
    with pytest.raises(f2.F2Error):
        f2.build_m10(seed)


def _moved_point(m10):
    """m10 with one point of its first block moved to its second."""
    a, b = m10.blocks[:2]
    p = min(a - b)
    return dataclasses.replace(m10, blocks=[a - {p}, b | {p}]
                               + m10.blocks[2:])


def test_m10_with_a_moved_point_is_rejected(m10, monkeypatch):
    points24 = f2.witt_lift(m10)["points"]
    with pytest.raises(f2.F2Error, match="5-set"):
        f2._validate_m10(_moved_point(m10))
    # the same move in every structure the module assembles
    real = f2.M10Structure
    monkeypatch.setattr(f2, "M10Structure",
                        lambda *args: _moved_point(real(*args)))
    with pytest.raises(f2.F2Error, match="5-set"):
        f2.build_m10()
    conv = f2.converse_projection(points24)
    assert conv["ok"] is False and "5-set" in conv["why"]


def test_m10_frames_that_are_no_plane_are_rejected(m10):
    # the second block replaced by the first: every block is still a
    # frame, but two blocks share five points
    blocks = m10.blocks[:1] * 2 + m10.blocks[2:]
    with pytest.raises(f2.F2Error, match="projective plane of order 4"):
        f2._validate_m10(dataclasses.replace(m10, blocks=blocks))


def test_census_counts(m10_census):
    cen = m10_census
    assert cen["x"] == 21
    assert cen["elliptic"] == 210
    assert cen["triangle_centers"] == 1120
    assert cen["quadrangle_centers"] == 630
    assert cen["admissible"] == 66
    assert cen["partition_sum"] == 2047 and cen["partition_disjoint"]
    assert cen["one_triangle_per_center"]
    assert cen["four_quadrangles_per_center"]


def test_line_m(m10, m10_census):
    assert m10_census["m_labels"] == ["124689", "135678", "234579"]
    m = f2.line_m(m10)
    assert sorted(m10_census["m"]) == m
    # every tangent space contains M and has projective dimension 6
    for x in m10.points:
        t = f2.span_set(f2.tangent_space(m10, x))
        assert set(m) <= t
        assert f2.bits_rank(f2.tangent_space(m10, x)) == 7


def test_admissible_lines_and_planes(m10_census):
    assert m10_census["admissible_lines"] == 64
    assert m10_census["admissible_planes"] == 0
    assert m10_census["admissible_in_m_planes"]


def test_zero_sum_subsets(m10):
    ok, count = f2.zero_sum_subsets(m10)
    assert ok and count == 231


def test_project_from_m(m10, m10_census):
    proj, rep = f2.project_m10(m10, m10_census["m"])
    assert rep["ok"] and rep["dim"] == 8
    assert sorted(set(rep["tangent_profile"])) == [4]


def test_project_point_cases(m10, m10_census):
    m = m10_census["m"]
    _, rep_on = f2.project_m10(m10, [m[0]])
    assert rep_on["ok"] and rep_on["dim"] == 9
    assert sorted(set(rep_on["tangent_profile"])) == [5]
    off = [p for p in m10_census["admissible_points"] if p not in m][0]
    _, rep_off = f2.project_m10(m10, [off])
    assert rep_off["ok"] and rep_off["dim"] == 9
    assert rep_off["tangent_profile"].count(5) == 1
    assert rep_off["tangent_profile"].count(6) == 20


def test_all_point_projections_keep_axioms(m10, m10_census):
    for p in m10_census["admissible_points"]:
        _, rep = f2.project_m10(m10, [p])
        assert rep["ok"], p


def test_inadmissible_projection_rejected(m10):
    with pytest.raises(f2.F2Error):
        f2.project_m10(m10, [m10.points[0] ^ m10.points[1]])


def test_m_projection_equivalent_to_veronese(m10, m10_census, f2_field):
    proj, _ = f2.project_m10(m10, m10_census["m"])
    pts1 = [f2.int_to_tuple(v, 9) for v in proj.points]
    idx1 = {v: i for i, v in enumerate(proj.points)}
    blocks1 = [tuple(sorted(idx1[v] for v in b)) for b in proj.blocks]
    A4 = alg.quadratic_field_algebra(f2_field)
    direct = vr.build_variety(A4)
    t = projective_equivalence(f2_field, pts1, blocks1, direct.points,
                               direct.blocks())
    assert t is not None


def test_witt_lift(m10):
    w = f2.witt_lift(m10)
    assert len(w["points"]) == 24
    assert w["octad_count"] == 759
    assert w["design_ok"]
    assert w["converse"]["ok"]


def test_witt_octad_oracle(m10):
    # consistency oracle: C(24,5) / C(8,5) = 759
    import math
    assert math.comb(24, 5) // math.comb(8, 5) == 759


def test_witt_lift_other_block(m10):
    w = f2.witt_lift(m10, block_index=7)
    assert w["octad_count"] == 759 and w["design_ok"]


def test_stabilizer(m10, m10_census):
    rep = f2.stabilizer_report(m10, m10_census)
    assert rep["order"] == 120960
    assert (rep["pair_orbit"], rep["pair_fixer"]) == (420, 288)
    assert rep["point_transitive"]
    assert rep["admissible_orbit_sizes"] == [3, 63]
    assert rep["m_is_orbit"]


def test_pair_fixers_form_a_subgroup(m10):
    fixers = f2.pair_fixers(m10)
    o = m10.points.index(m10.labels["o"])
    s = m10.points.index(m10.labels["s"])
    assert len(fixers) == len(set(fixers)) == 288
    assert all(g[o] == o and g[s] == s for g in fixers)
    group = set(fixers)
    assert all(mo.perm_mul(g, h) in group for g in fixers for h in fixers)


def test_seed_with_two_labels_swapped_is_no_automorphism(m10):
    seed = f2.standard_seed()
    assert f2.seed_automorphism(m10, seed) == tuple(range(21))
    seed["1"], seed["2"] = seed["2"], seed["1"]
    assert f2.seed_automorphism(m10, seed) is None


def test_d1_examples():
    ex = f2.d1_q2_examples()
    for name, v in ex.items():
        assert vr.check_mm1(v)["ok"], name
        assert vr.check_mm2star(v)["ok"], name
        assert vr.check_tubes(v, d_base=1, v=-1)["ok"], name
    assert ex["frame5"].ambient_pdim == 5
    assert ex["frame4_plus_point"].ambient_pdim == 5
    assert ex["basis6"].ambient_pdim == 6


def test_d1_any_fano_choice_works(f2_field):
    basis7 = [1 << i for i in range(7)]
    for shift in (1, 2, 3):
        v = f2.fano_relabelled(f2_field, basis7, shift)
        assert vr.check_mm1(v)["ok"] and vr.check_mm2star(v)["ok"]
    # the frame-plus-point set also tolerates any labelling
    bplus = [1 << i for i in range(5)] + [(1 << 5) - 1, 1 << 5]
    for shift in (2, 5):
        v = f2.fano_relabelled(f2_field, bplus, shift)
        assert vr.check_mm1(v)["ok"] and vr.check_mm2star(v)["ok"]


def test_frame5_is_v2_f2_f2(f2_field):
    ex = f2.d1_q2_examples()
    direct = vr.build_variety(alg.ground_algebra(f2_field, "F2"))
    t = projective_equivalence(f2_field, ex["frame5"].points,
                               ex["frame5"].blocks(), direct.points,
                               direct.blocks())
    assert t is not None


def test_check_design_rejects_one_swapped_point(m10):
    w = f2.witt_lift(m10)
    octads = list(w["octads"])
    assert f2.check_design(w["points"], octads)
    first = octads[0]
    outside = next(i for i in range(len(w["points"])) if i not in first)
    octads[0] = tuple(sorted(first[1:] + (outside,)))
    assert not f2.check_design(w["points"], octads)


def test_check_design_rejects_a_duplicated_and_a_dropped_octad(m10):
    w = f2.witt_lift(m10)
    octads = list(w["octads"])
    assert not f2.check_design(w["points"], octads + octads[-1:])
    assert not f2.check_design(w["points"], octads[1:])
    assert not f2.check_design(w["points"], octads[:1] + octads)


def test_mm_axioms_reject_one_moved_block_point(m10):
    assert f2.verify_mm_axioms(m10)["ok"]
    block = m10.blocks[0]
    outside = next(p for p in m10.points if p not in block)
    moved = frozenset(sorted(block)[1:]) | {outside}
    broken = f2.M10Structure(m10.points, m10.labels, m10.names,
                             [moved] + list(m10.blocks[1:]), m10.dim)
    rep = f2.verify_mm_axioms(broken)
    assert not rep["ok"]
    assert not (rep["mm1"] and rep["mm2star"] and rep["frames"]
                and rep["exact"])


def _mm_all_pairs(struct):
    """Reference: (MM1) and (MM2*) over all point and block pairs."""
    join = {}
    for bi, b in enumerate(struct.blocks):
        for p, q in itertools.combinations(sorted(b), 2):
            join[(p, q)] = bi
    ok_mm1 = all((p, q) in join for p, q in
                 itertools.combinations(sorted(set(struct.points)), 2))
    spans = [f2.span_set(list(b)) for b in struct.blocks]
    ok_mm2 = True
    for i, j in itertools.combinations(range(len(struct.blocks)), 2):
        inter = spans[i] & spans[j]
        common = struct.blocks[i] & struct.blocks[j]
        if len(common) != 1 or inter != common:
            ok_mm2 = False
    return ok_mm1, ok_mm2


@pytest.mark.parametrize("case", ["m10", "moved_point", "dropped_block",
                                  "projection"])
def test_mm_axioms_match_all_pairs_loops(case, m10, m10_census):
    block = m10.blocks[0]
    outside = next(p for p in m10.points if p not in block)
    moved = frozenset(sorted(block)[1:]) | {outside}
    struct = {
        "m10": m10,
        "moved_point": f2.M10Structure(m10.points, m10.labels, m10.names,
                                       [moved] + list(m10.blocks[1:]),
                                       m10.dim),
        "dropped_block": f2.M10Structure(m10.points, m10.labels, m10.names,
                                         list(m10.blocks[1:]), m10.dim),
        "projection": f2.project_m10(m10, m10_census["m"])[0],
    }[case]
    rep = f2.verify_mm_axioms(struct)
    assert (rep["mm1"], rep["mm2star"]) == _mm_all_pairs(struct)


# --------------------------------------------------------------------------
# the meet-in-the-middle searches against the direct enumerations


def _octads_by_7_subsets(points):
    """Reference: every 7-subset whose sum is a later point, kept when the
    seven have rank 7."""
    index = {v: i for i, v in enumerate(points)}
    octads = []
    for combo in itertools.combinations(range(len(points)), 7):
        acc = 0
        for i in combo:
            acc ^= points[i]
        j = index.get(acc)
        if j is not None and j > combo[-1] and \
                f2.bits_rank([points[i] for i in combo]) == 7:
            octads.append(combo + (j,))
    return octads


def _zero_sums_by_combinations(points):
    """Reference: every nonempty subset of at most 8 points with sum 0."""
    found = set()
    for k in range(1, 9):
        for sub in itertools.combinations(points, k):
            acc = 0
            for v in sub:
                acc ^= v
            if acc == 0:
                found.add(frozenset(sub))
    return found


@pytest.mark.parametrize("block_index", [0, 7])
def test_octads_match_the_7_subset_walk(m10, block_index):
    w = f2.witt_lift(m10, block_index=block_index)
    assert w["octads"] == _octads_by_7_subsets(w["points"])


_small_point_sets = st.lists(st.integers(1, 63), min_size=8, max_size=13,
                             unique=True)


@given(_small_point_sets)
@settings(max_examples=60, deadline=None)
def test_octads_match_the_7_subset_walk_hypothesis(points):
    assert f2.enumerate_octads(points) == _octads_by_7_subsets(points)


def test_zero_sum_sets_match_the_combination_loop(m10):
    assert f2._zero_sum_sets(m10.points) == \
        _zero_sums_by_combinations(m10.points)


@given(_small_point_sets)
@settings(max_examples=60, deadline=None)
def test_zero_sum_sets_match_the_combination_loop_hypothesis(points):
    assert f2._zero_sum_sets(points) == _zero_sums_by_combinations(points)


def _frames_by_5_subsets(points):
    """Reference: every 5-subset with zero sum and rank 4, in
    lexicographic order."""
    frames = []
    for combo in itertools.combinations(range(len(points)), 5):
        sub = [points[i] for i in combo]
        acc = 0
        for v in sub:
            acc ^= v
        if acc == 0 and f2.bits_rank(sub) == 4:
            frames.append(list(combo))
    return frames


def _converse_images(points24):
    """The 21 images of the converse projection's X, as it computes them."""
    ech = f2.echelon([points24[0] ^ points24[1] ^ points24[2]])
    image = f2._projection_from(ech, max(v.bit_length() for v in points24))
    return sorted({image(p) for p in points24[3:]})


@pytest.mark.parametrize("block_index", [0, 7])
def test_converse_frames_match_the_5_subset_loop(m10, block_index):
    x_imgs = _converse_images(f2.witt_lift(m10, block_index)["points"])
    frames = f2._frames(x_imgs)
    assert len(frames) == 21
    assert frames == _frames_by_5_subsets(x_imgs)
    # a zero-sum 5-set through the zero vector has rank 3: no frame
    assert f2._frames([0, 1, 2, 4, 7]) == _frames_by_5_subsets(
        [0, 1, 2, 4, 7]) == []
    assert f2._frames([1, 2, 4, 8, 15]) == [[0, 1, 2, 3, 4]]


@given(_small_point_sets)
@settings(max_examples=60, deadline=None)
def test_frames_match_the_5_subset_loop_hypothesis(points):
    assert f2._frames(points) == _frames_by_5_subsets(points)


@given(st.lists(st.integers(0, 4095), max_size=14))
@settings(max_examples=100, deadline=None)
def test_bits_rank_is_the_echelon_length_hypothesis(vectors):
    assert f2.bits_rank(vectors) == len(f2.echelon(vectors))


def _centres_by_frozensets(m10):
    """Reference: the triangle and quadrangle centres over frozensets of
    the points, a 3-set in a block when it lies in a block's 3-subsets."""
    pts = m10.points
    in_block = {frozenset(c) for b in m10.blocks
                for c in itertools.combinations(sorted(b), 3)}
    triangles = {}
    for trio in itertools.combinations(pts, 3):
        if frozenset(trio) not in in_block:
            triangles.setdefault(trio[0] ^ trio[1] ^ trio[2], []).append(trio)
    quads = {}
    for quad in itertools.combinations(pts, 4):
        if not any(frozenset(t) in in_block
                   for t in itertools.combinations(quad, 3)):
            quads.setdefault(quad[0] ^ quad[1] ^ quad[2] ^ quad[3],
                             []).append(quad)
    return triangles, quads


@pytest.mark.parametrize("case", ["m10", "projection"])
def test_centres_match_the_frozenset_loop(case, m10, m10_census):
    struct = m10 if case == "m10" else \
        f2.project_m10(m10, m10_census["m"])[0]
    got = f2._centres(struct)
    want = _centres_by_frozensets(struct)
    assert got == want
    # the same centres in the same order, each with its sets in order
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    if case == "m10":
        assert (len(got[0]), len(got[1])) == (
            m10_census["triangle_centers"], m10_census["quadrangle_centers"])


def _first_meeting_pair_by_span_sets(pair_spans, ech):
    cspan = f2.span_set(ech)
    for b1, b2, pair in pair_spans:
        if cspan & pair:
            return b1, b2
    return None


@pytest.fixture(scope="module")
def pair_spans(m10):
    spans = [f2.span_set(list(b)) for b in m10.blocks]
    return [(b1, b2, f2.span_set(sorted(spans[b1] | spans[b2])))
            for b1, b2 in itertools.combinations(range(21), 2)]


def test_admissibility_by_rank_matches_span_sets(m10, m10_census,
                                                 pair_spans):
    centres = [m10_census["m"]] + [[c] for c in range(1, 1 << m10.dim)]
    admissible = []
    for centre in centres:
        ech = f2.echelon(centre)
        want = _first_meeting_pair_by_span_sets(pair_spans, ech)
        assert f2._inadmissible_pair(m10, ech) == want, centre
        if want is None and len(centre) == 1:
            admissible.append(centre[0])
    assert admissible == m10_census["admissible_points"]


def test_inadmissible_centre_names_the_span_set_pair(m10, pair_spans):
    p = m10.points
    for centre in ([p[0]], [p[0] ^ p[1]], [p[2], 1 << 10]):
        want = _first_meeting_pair_by_span_sets(pair_spans,
                                                f2.echelon(centre))
        assert want is not None
        with pytest.raises(f2.F2Error,
                           match=r"meets blocks %d, %d\)" % want):
            f2.project_m10(m10, centre)


# --------------------------------------------------------------------------
# the octads span the extended binary Golay code


def _gf2_rows(words):
    """Echelon rows of the span of packed-int words, by leading bit."""
    rows = {}
    for w in words:
        while w:
            top = w.bit_length() - 1
            if top not in rows:
                rows[top] = w
                break
            w ^= rows[top]
    return list(rows.values())


def test_octads_span_the_golay_code(m10):
    w = f2.witt_lift(m10)
    words = [sum(1 << i for i in octad) for octad in w["octads"]]
    rows = _gf2_rows(words)
    assert len(rows) == 12
    enumerator = {}
    word = 0
    for k in range(1 << len(rows)):
        if k:
            word ^= rows[(k & -k).bit_length() - 1]     # Gray code step
        weight = bin(word).count("1")
        enumerator[weight] = enumerator.get(weight, 0) + 1
    assert enumerator == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def _inadmissible_pair_recounting(m10, ech):
    """Reference: `_inadmissible_pair` with every pair rank computed again
    on every call."""
    for b1, b2 in itertools.combinations(range(len(m10.blocks)), 2):
        pair = list(m10.blocks[b1] | m10.blocks[b2])
        if f2.bits_rank(ech + pair) != len(ech) + f2.bits_rank(pair):
            return b1, b2
    return None


def test_pair_ranks_are_computed_once_per_structure(monkeypatch):
    # m10 --projections projects three times from one M10: its 210 pair
    # ranks are computed once, not on each of the three calls, and the
    # three projection reports are those of the recounting rule
    real = f2.bits_rank

    def run(inadmissible):
        calls = []

        def counted(vectors):
            calls.append(len(vectors))
            return real(vectors)

        monkeypatch.setattr(f2, "bits_rank", counted)
        monkeypatch.setattr(f2, "_inadmissible_pair", inadmissible)
        report, status = cli.run(cli.RunConfig("m10",
                                               checks=("projections",)))
        report.pop("timings")
        return len(calls), report, status

    new_calls, new_report, new_status = run(f2._inadmissible_pair)
    old_calls, old_report, old_status = run(_inadmissible_pair_recounting)
    assert old_calls - new_calls == 420
    assert (new_report, new_status) == (old_report, old_status)
    assert [c["name"] for c in new_report["checks"]] == [
        "project.from_M", "project.point_on_M", "project.point_off_M"]
    assert new_status == 0
