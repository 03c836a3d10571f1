import collections
import itertools

import pytest

from ringgeom.fields import GF
from ringgeom import projective as pj
from ringgeom import scrolls as sc
from ringgeom import veronese as vr

import quadric_reference as ref
from projective_reference import subspace_vectors


def test_normal_rational_curve_conic():
    F3 = GF(3)
    pts = sc.normal_rational_curve(F3, 2)
    assert len(pts) == 4
    for trio in itertools.combinations(pts, 3):
        rows, _ = pj.rref(F3, list(trio))
        assert len(rows) == 3        # no three collinear


def test_normal_rational_curve_line():
    F3 = GF(3)
    pts = sc.normal_rational_curve(F3, 1)
    assert sorted(pts) == sorted(pj.pg_parameters(F3, 2))


def test_normal_rational_curve_m3_q5():
    pts = sc.normal_rational_curve(GF(5), 3)
    assert len(pts) == 6
    rows, _ = pj.rref(GF(5), pts)
    assert len(rows) == 4


@pytest.mark.parametrize("q", [2, 3, 4])
def test_field_reduction_spread_regular(q):
    sp = sc.regular_spread(2, q)
    assert len(sp.members) == q * q + 1
    assert sc.is_regular_spread(sp)


def test_pg32_spread_has_5_lines():
    sp = sc.regular_spread(2, 2)
    assert len(sp.members) == 5


def test_regulus_q3_has_4_lines():
    # the spread members meeting each frame transversal of three members
    # in one point: the regulus, which holds the three
    sp = sc.regular_spread(2, 3)
    lines = sc.frame_transversals(*sp.members[:3])
    assert len(lines) == 3
    reg = [m for m in sp.members
           if all(pj.meet(t, m).vdim == 1 for t in lines)]
    assert len(reg) == 4 and reg[:3] == list(sp.members[:3])


def test_regulus_requires_disjoint_inputs():
    sp = sc.regular_spread(2, 3)
    line = sp.members[0]
    assert sc.frame_transversals(line, line, sp.members[1]) is None
    assert sc.member_parameters(
        sp.field, [line, line, sp.members[1]]) == [None] * 3


@pytest.mark.parametrize("i,j", [(0, 1), (1, 2)])
def test_frame_transversals_reject_meeting_members(i, j):
    # member j replaced by a line through the point x0 - x1 of member i,
    # off the frame: the frame transversals are still lines, but they
    # span too little
    sp = sc.regular_spread(2, 3)
    trio = list(sp.members[:3])
    x0, x1 = trio[i].rows
    F = sp.field
    trio[j] = pj.span(F, [pj.vec_mat(F, (F.one, F.neg(F.one)), (x0, x1)),
                          sp.members[3].rows[0]])
    assert sc.frame_transversals(*trio) is None


def test_member_off_the_regulus_gets_no_coordinate():
    # a line meeting the first frame transversal, where the regulus does,
    # but neither of the other two
    sp = sc.regular_spread(2, 3)
    lines = sc.frame_transversals(*sp.members[:3])
    reg = [m for m in sp.members
           if all(pj.meet(t, m).vdim == 1 for t in lines)]
    y = pj.meet(lines[0], reg[3]).rows[0]
    joins = (pj.span(sp.field, [y, z]) for m in sp.members if m not in reg
             for z in subspace_vectors(m))
    bad = next(j for j in joins
               if not any(pj.meet(t, j).rows for t in lines[1:]))
    coords = sc.member_parameters(sp.field, reg[:3] + [bad, reg[3]])
    assert None not in coords[:3] and coords[3] is None
    assert coords[4] is not None


def test_line_spread_of_pg52_from_field_reduction():
    sp = sc.regular_spread(2, 2, m=3)
    assert len(sp.members) == 21
    assert sc.is_regular_spread(sp)


def test_plane_spread_of_pg52_is_regular():
    sp = sc.regular_spread(3, 2)
    assert len(sp.members) == 9
    assert sc.is_regular_spread(sp)


def _with_members(spread, members):
    return sc.Spread(spread.field, spread.n, tuple(members))


@pytest.mark.parametrize("q", [3, 4])
def test_spread_missing_a_member_is_not_regular(q):
    sp = sc.regular_spread(2, q)
    assert not sc.is_regular_spread(_with_members(sp, sp.members[1:]))


@pytest.mark.parametrize("q", [3, 4])
def test_spread_with_a_meeting_member_is_not_regular(q):
    # members[1] replaced by a line through a point of members[0]
    sp = sc.regular_spread(2, q)
    m0, m1 = sp.members[:2]
    bent = pj.span(sp.field, [m0.rows[0], m1.rows[0]])
    assert not sc.is_regular_spread(
        _with_members(sp, (m0, bent) + sp.members[2:]))


@pytest.mark.parametrize("q,expected", [(3, 9), (4, 16)])
def test_cubic_scroll_conics(q, expected):
    F = GF(q)
    s = sc.canonical_cubic_scroll(F)
    quads = sc.scroll_quadrics(s)
    assert len(quads) == expected
    ok, info = sc.verify_unique_quadrics(s, quads)
    assert ok, info


def test_cubic_scroll_tangent_planes_at_base_point():
    # all tangent lines at a fixed conic point c to the scroll conics lie
    # in the plane spanned by phi(c) and the tangent line of C at c
    F = GF(3)
    s = sc.canonical_cubic_scroll(F)
    quads = sc.scroll_quadrics(s)
    c = s.quadric_pts[0]
    phi_c = s.members[0].rows[0]
    conic_plane = pj.span(F, list(s.quadric_pts), s.n)
    base_forms = ref.exact_zero_set_forms(
        F, [pj.intrinsic_coords(conic_plane, p) for p in s.quadric_pts], 3)
    ci = pj.intrinsic_coords(conic_plane, c)
    row = tuple(ref.bilinear(base_forms[0], ci, tuple(
        F.one if j == i else F.zero for j in range(3))) for i in range(3))
    tang = pj.span(F, [pj.from_intrinsic(conic_plane, r)
                       for r in pj.nullspace(F, [row], 3)], s.n)
    target = pj.span(F, [phi_c] + list(tang.rows), s.n)
    for pts in quads:
        if c not in pts:
            continue
        u = pj.span(F, list(pts), s.n)
        qf, = ref.exact_zero_set_forms(
            F, [pj.intrinsic_coords(u, p) for p in pts], u.vdim, witt=1)
        ciq = pj.intrinsic_coords(u, c)
        row = tuple(ref.bilinear(qf, ciq, tuple(
            F.one if j == i else F.zero for j in range(u.vdim)))
            for i in range(u.vdim))
        tline = pj.span(F, [pj.from_intrinsic(u, r)
                            for r in pj.nullspace(F, [row], u.vdim)], s.n)
        assert tline <= target


@pytest.mark.parametrize("q", [3, 4])
def test_regular_2_scroll(q):
    s = sc.canonical_regular_scroll(2, q)
    quads = sc.scroll_quadrics(s)
    assert len(quads) == q ** 4
    ok, info = sc.verify_unique_quadrics(s, quads)
    assert ok, info


@pytest.mark.parametrize("d,q", [(1, 3), (1, 4), (1, 5), (2, 3)])
def test_canonical_pairings_are_projectivities(d, q):
    s = sc.canonical_cubic_scroll(GF(q)) if d == 1 \
        else sc.canonical_regular_scroll(d, q)
    assert sc.pairing_witness(s) is None


def _swap_members(scroll, p, r):
    pair = dict(zip(scroll.quadric_pts, scroll.members))
    pair[p], pair[r] = pair[r], pair[p]
    return sc.build_scroll(scroll.field, list(pair), list(pair.values()))


def _conics(scroll):
    F = scroll.field
    return pj.conic_sections(F, scroll.quadric_pts,
                             pj.span(F, list(scroll.quadric_pts), scroll.n))


def _late_pair(scroll):
    # the two quadric points whose members the pairing tests swap: the
    # last two points of a conic, or the two points of the q = 3
    # elliptic quadric on none of its first three conics
    if scroll.members[0].vdim == 1:
        return sorted(scroll.quadric_pts)[-2:]
    early = set().union(*_conics(scroll)[:3])
    return [x for x in scroll.quadric_pts if x not in early]


def test_pairing_swap_on_late_conic_points_is_rejected():
    # q >= 4: PGL(2, 3) is all of S_4 on a 4-point conic, so a swap at
    # q = 3 would still be a projectivity there
    s = sc.canonical_cubic_scroll(GF(5))
    p, r = _late_pair(s)
    bad = _swap_members(s, p, r)
    assert sc.pairing_witness(bad)["point"] in (p, r)


def test_pairing_off_regulus_on_late_conic_is_rejected():
    # swapping the spread members of the two points on none of the first
    # three conics breaks the regulus of a later conic through one of them
    s = sc.canonical_regular_scroll(2, 3)
    p, r = _late_pair(s)
    witness = sc.pairing_witness(_swap_members(s, p, r))
    assert witness["point"] in (p, r)
    assert witness["conic"] in _conics(s)[3:]


def test_pairing_with_meeting_members_on_first_conic_is_rejected():
    # the member of the second point of the first conic replaced by a line
    # meeting the member of its first point: no regulus, and a witness
    # on that conic, not an error
    s = sc.canonical_regular_scroll(2, 3)
    conic = _conics(s)[0]
    pair = dict(zip(s.quadric_pts, s.members))
    m0, m1 = pair[conic[0]], pair[conic[1]]
    pair[conic[1]] = pj.span(s.field, [m0.rows[0], m1.rows[0]])
    bad = sc.build_scroll(s.field, list(pair), list(pair.values()))
    assert sc.pairing_witness(bad)["conic"] == conic


def test_pairing_witness_is_the_earliest_failing_conic_point():
    # q = 4, on the first conic: point 3 takes the regulus member of
    # point 4, which breaks the cross-ratio there, and point 4 takes a
    # line off the regulus; the witness is point 3, the first to fail
    s = sc.canonical_regular_scroll(2, 4)
    conic = _conics(s)[0]
    pair = dict(zip(s.quadric_pts, s.members))
    m0, m1, m4 = (pair[conic[i]] for i in (0, 1, 4))
    pair[conic[3]] = m4
    pair[conic[4]] = pj.span(s.field, [m0.rows[0], m1.rows[0]])
    bad = sc.build_scroll(s.field, list(pair), list(pair.values()))
    assert sc.pairing_witness(bad) == {"conic": conic, "point": conic[3]}


def test_regular_1_scroll_agrees_with_cubic_scroll():
    # d = 1 regular scrolls are normal rational cubic scrolls: same
    # transversal count, same quadric family size, same uniqueness and
    # pairwise behavior
    q = 3
    cubic = sc.canonical_cubic_scroll(GF(q))
    reg1 = sc.canonical_regular_scroll(1, q)
    assert len(_transversals(cubic)) == len(_transversals(reg1)) == q + 1
    qc = sc.scroll_quadrics(cubic)
    qr = sc.scroll_quadrics(reg1)
    assert len(qc) == len(qr) == q * q
    assert sc.verify_unique_quadrics(cubic, qc)[0]
    assert sc.verify_unique_quadrics(reg1, qr)[0]


def test_alpha_section_cubic_scroll():
    # two scroll conics through a common point: the transversal lines have
    # an affine line section, and the induced map preserves cross-ratio
    F = GF(3)
    s = sc.canonical_cubic_scroll(F)
    quads = sc.scroll_quadrics(s)
    keys = sorted(quads)
    pairs_checked = 0
    for k1, k2 in itertools.combinations(keys, 2):
        shared = set(k1) & set(k2)
        if len(shared) != 1:
            continue
        c = shared.pop()
        side1 = {s.transversal_index_of(p): p for p in k1 if p != c}
        side2 = {s.transversal_index_of(p): p for p in k2 if p != c}
        pairing = [(side1[i], side2[i]) for i in sorted(side1)]
        al, images, inf_space = sc.alpha_section(F, pairing, s.n)
        assert len(images) == F.q
        coords = dict(zip(k1, pj.conic_parameters(F, k1)))
        for quad in itertools.permutations(sorted(k1)):
            val = pj.cross_ratio(F, *[coords[p] for p in quad])
            imgs = []
            for p in quad:
                if p == c:
                    imgs.append(inf_space.rows[0])
                else:
                    imgs.append(images[sorted(side1).index(
                        s.transversal_index_of(p))])
            assert pj.cross_ratio(F, *imgs) == val
        pairs_checked += 1
        if pairs_checked >= 6:
            break
    assert pairs_checked


def test_alpha_section_regular_2_scroll_q3():
    F = GF(3)
    s = sc.canonical_regular_scroll(2, 3)
    quads = sc.scroll_quadrics(s)
    keys = sorted(quads)
    done = 0
    for k1, k2 in itertools.combinations(keys, 2):
        shared = set(k1) & set(k2)
        if len(shared) != 1:
            continue
        c = shared.pop()
        side1 = {s.transversal_index_of(p): p for p in k1 if p != c}
        side2 = {s.transversal_index_of(p): p for p in k2 if p != c}
        order = sorted(side1)
        pairing = [(side1[i], side2[i]) for i in order]
        al, images, inf_space = sc.alpha_section(F, pairing, s.n)
        assert len(images) == 9 and inf_space.pdim == 1
        done += 1
        if done >= 3:
            break
    assert done == 3


def _point_vectors(scroll):
    """The point set of each transversal, as vectors."""
    return [frozenset(scroll.field.unpack(c) for c in ps)
            for ps in scroll.point_sets]


def _transversals(scroll):
    """The transversals <p, phi(p)>, spanned from the aligned pairs."""
    return [pj.span(scroll.field, [p] + list(m.rows), scroll.n)
            for p, m in zip(scroll.quadric_pts, scroll.members)]


def _scroll_quadrics_by_meet(scroll):
    """Reference: the seed search completed by one Zassenhaus meet of the
    seed span with each later transversal."""
    field, n = scroll.field, scroll.n
    transversals = _transversals(scroll)
    d = transversals[0].vdim - 1
    spread_pts = frozenset(subspace_vectors(scroll.spread_side))
    off = [sorted(ps - spread_pts) for ps in _point_vectors(scroll)]
    found = set()
    for seed in itertools.product(*off[:d + 2]):
        u = pj.span(field, seed, n)
        if u.vdim != d + 2:
            continue
        tail = []
        for t in transversals[d + 2:]:
            mm = pj.meet(u, t)
            if mm.vdim != 1:
                break
            p = pj.normalize_point(field, mm.rows[0])
            if p in spread_pts:
                break
            tail.append(p)
        else:
            pts = tuple(sorted(set(seed) | set(tail)))
            if len(pts) != len(transversals) or pts in found:
                continue
            if ref.exact_zero_set_forms(
                    field, [pj.intrinsic_coords(u, x) for x in pts], u.vdim,
                    witt=1):
                found.add(pts)
    return found


def _scroll(kind, d, q):
    s = sc.canonical_cubic_scroll(GF(q)) if kind.endswith("cubic") \
        else sc.canonical_regular_scroll(d, q)
    if kind.startswith("swapped"):
        return _swap_members(s, *_late_pair(s))
    return s


@pytest.mark.parametrize("kind,d,q", [
    ("cubic", 1, 2), ("cubic", 1, 3), ("cubic", 1, 4), ("regular", 1, 3),
    ("regular", 2, 2), ("regular", 2, 3), ("swapped-cubic", 1, 5),
    ("swapped-regular", 2, 3)])
def test_scroll_quadrics_match_meet_completion(kind, d, q):
    s = _scroll(kind, d, q)
    assert sc.scroll_quadrics(s) == sorted(_scroll_quadrics_by_meet(s))


def test_vertex_local_scroll_quadrics_match_meet_completion(
        variety_f3, projection_f3, monkeypatch):
    # the scroll that local_structure_at_vertex builds at one vertex
    scrolls = []
    family = sc.scroll_quadrics
    monkeypatch.setattr(sc, "scroll_quadrics",
                        lambda s: scrolls.append(s) or family(s))
    vertex = variety_f3.tubes[0].vertex
    vr.local_structure_at_vertex(variety_f3, vertex, projection_f3[1])
    s, = scrolls
    assert len(_transversals(s)) == 4
    assert family(s) == sorted(_scroll_quadrics_by_meet(s))


@pytest.fixture(scope="module")
def regular_2_scroll_q3():
    s = sc.canonical_regular_scroll(2, 3)
    return s, sc.scroll_quadrics(s)


def _quadric_mutations(scroll, quads):
    """(dropped, bent, old, new): the sorted family without quads[5], and
    with the point old of quads[5] moved to new, another point off the
    spread on its transversal."""
    spread_pts = frozenset(subspace_vectors(scroll.spread_side))
    victim = quads[5]
    old = victim[3]
    ti = scroll.transversal_index_of(old)
    new = sorted(_point_vectors(scroll)[ti] - spread_pts - {old})[0]
    moved = tuple(sorted(set(victim) - {old} | {new}))
    return ([k for k in quads if k != victim],
            [moved if k == victim else k for k in quads], old, new)


def test_unique_quadrics_reject_a_dropped_quadric(regular_2_scroll_q3):
    s, quads = regular_2_scroll_q3
    dropped = sorted(quads)[5]
    rest = _quadric_mutations(s, sorted(quads))[0]
    ok, info = sc.verify_unique_quadrics(s, rest)
    assert not ok
    kind, a, b, count = info
    assert kind == "pair" and count == 0
    assert a in dropped and b in dropped


def test_unique_quadrics_reject_a_moved_point(regular_2_scroll_q3):
    s, quads = regular_2_scroll_q3
    _, bent, old, new = _quadric_mutations(s, sorted(quads))
    ok, info = sc.verify_unique_quadrics(s, bent)
    assert not ok
    kind, a, b, count = info
    assert kind == "pair" and count in (0, 2)
    assert {a, b} & {old, new}


def test_unique_quadrics_reject_a_point_missing_other_quadrics(
        regular_2_scroll_q3):
    # one point of a quadric as an extra "quadric": no pair is counted
    # twice, but it misses most quadrics
    s, quads = regular_2_scroll_q3
    extra = (sorted(quads)[5][0],)
    ok, info = sc.verify_unique_quadrics(s, list(quads) + [extra])
    assert not ok
    kind, first, second, count = info
    assert kind == "intersection" and count == 0 and extra in (first, second)


def _unique_quadrics_by_all_pairs(scroll, quadrics):
    """Reference: verify_unique_quadrics with its intersections taken
    over all quadric pairs in `combinations` order, and the points of
    each transversal in sorted order."""
    spread_pts = frozenset(subspace_vectors(scroll.spread_side))
    point_sets = _point_vectors(scroll)
    pair_count = collections.Counter(
        frozenset(ab) for pts in quadrics
        for ab in itertools.combinations(pts, 2))
    valid_pairs = 0
    for i, j in itertools.combinations(range(len(point_sets)), 2):
        for a in sorted(point_sets[i] - spread_pts):
            for b in sorted(point_sets[j] - spread_pts):
                count = pair_count[frozenset((a, b))]
                if count != 1:
                    return False, ("pair", a, b, count)
                valid_pairs += 1
    for s1, s2 in itertools.combinations(quadrics, 2):
        inter = set(s1) & set(s2)
        if len(inter) != 1 or next(iter(inter)) in spread_pts:
            return False, ("intersection", s1, s2, len(inter))
    return True, valid_pairs


@pytest.mark.parametrize("mutation", [
    "none", "point_in_front", "spread_point_twice_in_front",
    "spread_point_on_two_quadrics", "point_and_spread_point_last",
    "dropped_quadric", "moved_point"])
def test_unique_quadrics_match_all_pairs(regular_2_scroll_q3, mutation):
    s, quads = regular_2_scroll_q3
    quads = sorted(quads)
    spread_pt = min(subspace_vectors(s.spread_side))
    x = quads[5][0]
    dropped, bent = _quadric_mutations(s, quads)[:2]
    family = {
        "none": quads,
        "point_in_front": [(x,)] + quads,
        "spread_point_twice_in_front": [(spread_pt,), (spread_pt,)] + quads,
        "spread_point_on_two_quadrics": [
            tuple(sorted(k + (spread_pt,))) if i in (3, 7) else k
            for i, k in enumerate(quads)],
        "point_and_spread_point_last": quads + [(x, spread_pt)],
        "dropped_quadric": dropped,
        "moved_point": bent,
    }[mutation]
    got = sc.verify_unique_quadrics(s, family)
    assert got == _unique_quadrics_by_all_pairs(s, family)
    assert got[0] == (mutation == "none")
    if mutation != "none":
        kind = "pair" if mutation in ("dropped_quadric", "moved_point") \
            else "intersection"
        assert got[1][0] == kind
