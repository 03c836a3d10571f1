"""The binary specials: the 21-point structure M10 in PG(10, 2) with its
order-4 plane of frame blocks, the admissible-point census, projections
to dimensions 9 and 8, the Steiner system S(5, 8, 24) obtained by
lifting, and the small d = 1 structures.

GF(2) vectors are plain ints (bit i = coordinate i); labels 1..9, o, *,
Sigma are carried through all derived points so reports can be audited
symbol by symbol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import RinggeomError
from .fields import GF
from . import hjplane as hp
from . import veronese as vr
from . import projective as pj
from .motions import orbit, perm_mul, point_orbit


class F2Error(RinggeomError):
    pass


T_O = ("123", "456", "789")
T_S = ("147", "258", "369")
T_SIG = ("159", "267", "348")
T_PAIRS = ("168", "249", "357")


def bits_rank(vectors):
    return len(echelon(vectors))


def echelon(vectors):
    """Reduced row echelon basis of the span, rows in decreasing order.
    Each new vector is reduced by the rows so far, and its leading bit
    then cleared from them, so the rows stay reduced."""
    rows = []
    for v in vectors:
        v = reduce_vec(v, rows)
        if v:
            top = 1 << (v.bit_length() - 1)
            rows = [r ^ v if r & top else r for r in rows]
            rows.append(v)
            rows.sort(reverse=True)
    return rows


def span_set(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    out.discard(0)
    return out


def reduce_vec(v, ech):
    for r in ech:
        if v ^ r < v:
            v ^= r
    return v


def int_to_tuple(v, n):
    return tuple((v >> i) & 1 for i in range(n))


@dataclass
class M10Structure:
    points: list          # 21 ints
    labels: dict          # label -> int
    names: dict           # int -> label
    blocks: list          # 21 frozensets of ints
    dim: int              # ambient vector dimension (11 for the full M10)


def standard_seed():
    """Labels 1..9 on e_0..e_8, o on e_9, * on e_10."""
    seed = {str(i): 1 << (i - 1) for i in range(1, 10)}
    seed["o"] = 1 << 9
    seed["s"] = 1 << 10
    return seed


def _block_labels():
    """The labels of the 21 blocks, in the order of `M10Structure.blocks`."""
    blocks = [("o", *abc, "o" + abc) for abc in T_O]
    blocks += [("s", *abc, abc + "s") for abc in T_S]
    blocks.append(("o", "147s", "258s", "369s", "Sig"))
    blocks.append(("s", "o123", "o456", "o789", "Sig"))
    blocks += [("Sig", *abc, "c" + abc) for abc in T_SIG]
    blocks.append(("o", "s", "c159", "c267", "c348"))
    for grp in T_PAIRS:
        for a, b in itertools.combinations(grp, 2):
            members = [a, b]
            for tset, prefix in ((T_S, "{}s"), (T_O, "o{}"), (T_SIG, "c{}")):
                (abc,) = [abc for abc in tset if a not in abc and b not in abc]
                members.append(prefix.format(abc))
            blocks.append(tuple(members))
    return blocks


BLOCK_LABELS = _block_labels()


def build_m10(seed=None):
    """Derive the 21 points and 21 blocks from the 11 seed points and
    check that they form M10."""
    m10 = _derive_m10(standard_seed() if seed is None else seed, 11)
    if len(m10.points) != 21 or 0 in m10.points:
        raise F2Error("seed does not produce 21 distinct nonzero points")
    _validate_m10(m10)
    return m10


def _derive_m10(seed, dim):
    """The points and blocks that the seed forces, unchecked: the five
    points of every block sum to zero, so the six sum points, Sigma and
    the Sigma-triples are forced."""
    pts = dict(seed)
    pts["Sig"] = _xor_all(seed.values())
    for abc in T_O:
        pts["o" + abc] = pts["o"] ^ pts[abc[0]] ^ pts[abc[1]] ^ pts[abc[2]]
    for abc in T_S:
        pts[abc + "s"] = pts["s"] ^ pts[abc[0]] ^ pts[abc[1]] ^ pts[abc[2]]
    for abc in T_SIG:
        pts["c" + abc] = pts["Sig"] ^ pts[abc[0]] ^ pts[abc[1]] ^ pts[abc[2]]
    blocks = [frozenset(pts[l] for l in labels) for labels in BLOCK_LABELS]
    names = {}
    for l, v in pts.items():
        names.setdefault(v, l)
    return M10Structure(sorted(set(pts.values())), pts, names, blocks, dim)


def _validate_m10(m10):
    """21 blocks, each a frame of a 3-space (5 points of zero sum and rank
    4), forming a projective plane of order 4 on the 21 points: the
    projective case of `hjplane.check_hjelmslev`, where every point and
    every block is its own neighbour class."""
    for b in m10.blocks:
        if len(b) != 5:
            raise F2Error("block is not a 5-set")
        if _xor_all(b) != 0 or bits_rank(list(b)) != 4:
            raise F2Error("block is not a frame of a 3-space")
    index = {p: i for i, p in enumerate(m10.points)}
    keys = range(21)
    if not hp.check_hjelmslev(21, [[index[p] for p in b] for b in m10.blocks],
                              keys, keys, 4)["ok"]:
        raise F2Error("blocks do not form a projective plane of order 4")


# --------------------------------------------------------------------------
# tangent spaces and the line M

def tangent_space(m10, x):
    """T_x = span of the tangent planes at x of the five blocks through x;
    the tangent plane of a frame block {x, a, b, c, d} is <x, a+b, a+c>."""
    rows = [x]
    for b in m10.blocks:
        if x not in b:
            continue
        others = sorted(b - {x})
        rows.append(others[0] ^ others[1])
        rows.append(others[0] ^ others[2])
    return echelon(rows)


def line_m(m10):
    """M as the intersection of three tangent spaces at points not in a
    common block (checked independent of the choice)."""
    triples = []
    for trio in itertools.combinations(m10.points, 3):
        if not any(set(trio) <= b for b in m10.blocks):
            triples.append(trio)
            if len(triples) == 4:
                break
    outs = set()
    for trio in triples:
        spaces = [span_set(tangent_space(m10, x)) for x in trio]
        inter = spaces[0] & spaces[1] & spaces[2]
        outs.add(frozenset(inter))
    if len(outs) != 1:
        raise F2Error("M depends on the chosen triple")
    m = sorted(outs.pop())
    if len(m) != 3:
        raise F2Error("M is not a line")
    return m


# --------------------------------------------------------------------------
# census of PG(10, 2)

def census(m10):
    n = m10.dim
    all_points = set(range(1, 1 << n))
    xset = set(m10.points)
    block_spans = [span_set(list(b)) for b in m10.blocks]
    elliptic = set()
    for s in block_spans:
        elliptic |= s
    elliptic -= xset

    triangle_centers = {}
    pts = m10.points
    blocks = m10.blocks
    in_block = {frozenset(c) for b in blocks
                for c in itertools.combinations(sorted(b), 3)}
    for trio in itertools.combinations(pts, 3):
        if frozenset(trio) in in_block:
            continue
        c = trio[0] ^ trio[1] ^ trio[2]
        triangle_centers.setdefault(c, []).append(trio)
    quad_centers = {}
    for quad in itertools.combinations(pts, 4):
        if any(frozenset(t) in in_block
               for t in itertools.combinations(quad, 3)):
            continue
        c = quad[0] ^ quad[1] ^ quad[2] ^ quad[3]
        quad_centers.setdefault(c, []).append(quad)

    pair_span_union = set()
    for b1, b2 in itertools.combinations(range(21), 2):
        pair_span_union |= span_set(sorted(block_spans[b1]
                                           | block_spans[b2]))
    admissible = sorted(all_points - pair_span_union)

    m = line_m(m10)
    adm_lines = set()
    adm_set = set(admissible)
    for a, b in itertools.combinations(admissible, 2):
        if a ^ b in adm_set:
            adm_lines.add(frozenset((a, b, a ^ b)))
    adm_planes = []
    for l1, l2 in itertools.combinations(sorted(adm_lines, key=sorted), 2):
        if l1 & l2:
            plane = span_set(sorted(l1 | l2))
            if plane <= adm_set:
                adm_planes.append(plane)

    report = {
        "x": len(xset),
        "elliptic": len(elliptic),
        "triangle_centers": len(triangle_centers),
        "quadrangle_centers": len(quad_centers),
        "admissible": len(admissible),
        "partition_sum": len(xset) + len(elliptic) + len(triangle_centers)
        + len(quad_centers) + len(admissible),
        "partition_disjoint": _disjoint(xset, elliptic,
                                        set(triangle_centers),
                                        set(quad_centers), set(admissible)),
        "triangles": sum(len(v) for v in triangle_centers.values()),
        "one_triangle_per_center": all(len(v) == 1 for v in
                                       triangle_centers.values()),
        "four_quadrangles_per_center": all(len(v) == 4 for v in
                                           quad_centers.values()),
        "m": m,
        "m_labels": sorted(_sum_label(m10, v) for v in m),
        "admissible_points": admissible,
        "admissible_lines": len(adm_lines),
        "admissible_planes": len(adm_planes),
        "tangent_dims": sorted({len(tangent_space(m10, x)) - 1
                                for x in m10.points}),
        "admissible_in_m_planes": _admissible_in_m_planes(m10, m, adm_set),
    }
    return report


def _disjoint(*sets):
    seen = set()
    for s in sets:
        if s & seen:
            return False
        seen |= s
    return True


def _sum_label(m10, v):
    """Express v as the sum of seed basis labels (auditable digit strings)."""
    digits = []
    order = [str(i) for i in range(1, 10)] + ["o", "s"]
    for l in order:
        if v & m10.labels[l] and m10.labels[l].bit_count() == 1:
            digits.append(l)
    acc = 0
    for l in digits:
        acc ^= m10.labels[l]
    return "".join(digits) if acc == v else hex(v)


def _admissible_in_m_planes(m10, m, adm_set):
    union = set()
    for x in m10.points:
        plane = span_set(m + [x])
        union |= plane - {x}
    return adm_set <= union


def zero_sum_subsets(m10):
    """Every subset of X of size <= 8 summing to zero is a block or the
    symmetric difference of two distinct blocks."""
    targets = {frozenset(b) for b in m10.blocks}
    for b1, b2 in itertools.combinations(m10.blocks, 2):
        targets.add(frozenset(b1 ^ b2))
    found = _zero_sum_sets(m10.points)
    return found == targets, len(found)


def _zero_sum_sets(points):
    """The nonempty subsets of at most 8 of the points with zero sum, met
    in the middle: a k-set splits into its lowest min(k, 4) points A and
    the rest B, with equal sums and max A < min B (B empty for k <= 4)."""
    buckets = _sum_buckets(points, range(5))
    masks = [m for m in buckets.get(0, ()) if m]
    for bucket in buckets.values():
        fours = [m for m in bucket if m.bit_count() == 4]
        for b in bucket:
            low = b & -b
            masks.extend(a | b for a in fours if a < low)
    return {frozenset(points[i] for i in _indices(m)) for m in masks}


def _sum_buckets(points, sizes):
    """sum -> bitmasks (bit i for points[i]) of the subsets of the given
    sizes with that sum."""
    buckets = {}
    for k in sizes:
        for combo in itertools.combinations(range(len(points)), k):
            acc = mask = 0
            for i in combo:
                acc ^= points[i]
                mask |= 1 << i
            buckets.setdefault(acc, []).append(mask)
    return buckets


def _indices(mask):
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# --------------------------------------------------------------------------
# projections

def project_m10(m10, centre):
    """Project from the span of `centre` (a list of points); requires
    admissibility and returns the projected structure with its report."""
    ech = echelon(list(centre))
    bad = _inadmissible_pair(m10, ech)
    if bad is not None:
        raise F2Error("centre is not admissible (meets blocks %d, %d)" % bad)
    image = _projection_from(ech, m10.dim)
    imgs = {p: image(p) for p in m10.points}
    if len(set(imgs.values())) != 21:
        raise F2Error("projection identifies points of X")
    points = [imgs[p] for p in m10.points]
    blocks = [frozenset(imgs[p] for p in b) for b in m10.blocks]
    proj = M10Structure(sorted(points), {}, {}, blocks, m10.dim - len(ech))
    report = verify_mm_axioms(proj)
    report["dim"] = proj.dim - 1
    report["tangent_profile"] = sorted(
        len(tangent_space(proj, x)) - 1 for x in proj.points)
    return proj, report


def _inadmissible_pair(m10, ech):
    """The first pair of blocks (b1, b2) whose span meets the span of the
    independent rows `ech`, or None: <C> and <B1 u B2> meet only in 0
    iff their ranks add."""
    for b1, b2 in itertools.combinations(range(len(m10.blocks)), 2):
        pair = list(m10.blocks[b1] | m10.blocks[b2])
        if bits_rank(ech + pair) != len(ech) + bits_rank(pair):
            return b1, b2
    return None


def _projection_from(ech, dim):
    """The projection of F_2^dim from the span of the echelon rows `ech`,
    onto the coordinates that are not pivots of `ech`."""
    pivots = [r.bit_length() - 1 for r in ech]
    keep = [i for i in range(dim) if i not in pivots]

    def image(v):
        v = reduce_vec(v, ech)
        out = 0
        for j, i in enumerate(keep):
            if v & (1 << i):
                out |= 1 << j
        return out
    return image


def verify_mm_axioms(struct):
    """(MM1) and (MM2*) for a point-block structure whose blocks span
    3-spaces: blocks are frames, carry no extra X-points, and pairwise
    meets of their spans are single common points of X."""
    xset = set(struct.points)
    spans = [span_set(list(b)) for b in struct.blocks]
    ok_frames = all(len(b) == 5 and bits_rank(list(b)) == 4 and
                    _xor_all(b) == 0 for b in struct.blocks)
    ok_exact = all(spans[i] & xset == struct.blocks[i]
                   for i in range(len(struct.blocks)))
    covered = {pq for b in struct.blocks
               for pq in itertools.combinations(sorted(b), 2)}
    ok_mm1 = all(pq in covered
                 for pq in itertools.combinations(sorted(xset), 2))
    ok_mm2 = True
    for i, j in itertools.combinations(range(len(struct.blocks)), 2):
        inter = spans[i] & spans[j]
        common = struct.blocks[i] & struct.blocks[j]
        if len(common) != 1 or inter != common:
            ok_mm2 = False
    return {"mm1": ok_mm1, "mm2star": ok_mm2, "frames": ok_frames,
            "exact": ok_exact,
            "ok": ok_mm1 and ok_mm2 and ok_frames and ok_exact}


def _xor_all(vals):
    acc = 0
    for v in vals:
        acc ^= v
    return acc


# --------------------------------------------------------------------------
# the Witt design S(5, 8, 24)

def witt_lift(m10, block_index=0):
    """Embed M10 in a hyperplane of PG(11, 2), lift B union M through an
    external point p, and enumerate the octads (8-subsets that are frames
    of 6-spaces) of the resulting 24-set."""
    b = sorted(m10.blocks[block_index])
    m = line_m(m10)
    p = 1 << m10.dim
    lifted = [v ^ p for v in b + m]
    rest = [v for v in m10.points if v not in set(b)]
    points24 = sorted(rest + lifted)
    if len(points24) != 24:
        raise F2Error("lift did not produce 24 points")
    octads = enumerate_octads(points24)
    design = check_design(points24, octads)
    conv = converse_projection(points24)
    return {"points": points24, "octads": octads,
            "octad_count": len(octads), "design_ok": design,
            "converse": conv}


def enumerate_octads(points):
    """Octads = 8-subsets with zero sum and rank 7 (frames of 6-spaces),
    as sorted index tuples in lexicographic order.  A zero-sum 8-set is
    its lowest four points and its highest four, with equal sums: joined
    here from the 4-subsets bucketed by sum (meet in the middle)."""
    octads = []
    for bucket in _sum_buckets(points, (4,)).values():
        for b in bucket:
            low = b & -b
            for a in bucket:
                if a < low:
                    combo = tuple(_indices(a | b))
                    if bits_rank([points[i] for i in combo[:7]]) == 7:
                        octads.append(combo)
    return sorted(octads)


def check_design(points, octads):
    """Every 5-subset of the 24 points lies in exactly one octad."""
    counts = {}
    for o in octads:
        for five in itertools.combinations(o, 5):
            counts[five] = counts.get(five, 0) + 1
            if counts[five] > 1:
                return False
    return len(counts) == math.comb(len(points), 5)


def converse_projection(points24):
    """Project the 24 points from p1 + p2 + p3; the other 21 images form
    an M10-like structure (21 zero-sum 5-subsets building a plane of
    order 4) and the images of p1, p2, p3 form its line M."""
    p1, p2, p3 = points24[:3]
    centre = p1 ^ p2 ^ p3
    ech = echelon([centre])
    dim = max(v.bit_length() for v in points24)
    image = _projection_from(ech, dim)
    m_imgs = sorted({image(p) for p in (p1, p2, p3)})
    x_imgs = sorted({image(p) for p in points24[3:]})
    if len(x_imgs) != 21 or len(m_imgs) != 3:
        return {"ok": False, "why": "projection identified points"}
    if _xor_all(m_imgs) != 0:
        return {"ok": False, "why": "images of p1,p2,p3 not collinear"}
    blocks = []
    for sub in itertools.combinations(x_imgs, 5):
        if _xor_all(sub) == 0 and bits_rank(list(sub)) == 4:
            blocks.append(frozenset(sub))
    if len(blocks) != 21:
        return {"ok": False, "why": "found %d candidate blocks" % len(blocks)}
    rec = M10Structure(x_imgs, {}, {}, blocks, dim - 1)
    try:
        _validate_m10(rec)
    except F2Error as e:
        return {"ok": False, "why": str(e)}
    # the recovered M must be the image of {p1, p2, p3}
    spaces = None
    for trio in itertools.combinations(x_imgs, 3):
        if not any(set(trio) <= b for b in blocks):
            spaces = [span_set(tangent_space(rec, x)) for x in trio]
            break
    m_rec = sorted(spaces[0] & spaces[1] & spaces[2])
    return {"ok": m_rec == m_imgs, "m_recovered": m_rec, "m_images": m_imgs,
            "span_dim": bits_rank(x_imgs)}


# --------------------------------------------------------------------------
# stabilizer of M10 by orbit and stabilizer of the seed pair (o, *)

def seeds_at(m10, o, s):
    """Every seed with o at the point o and * at the point s: three
    ordered blocks through s and three through o, none through both; label
    3(j-1)+i goes to the meet of the i-th s-block and the j-th o-block.  A
    seed is kept when its diagonal 1, 5, 9 lies on a block."""
    through_s = [b for b in m10.blocks if s in b and o not in b]
    through_o = [b for b in m10.blocks if o in b and s not in b]
    for sb in itertools.permutations(through_s, 3):
        for ob in itertools.permutations(through_o, 3):
            grid = [[next(iter(bs & bo)) for bo in ob] for bs in sb]
            diag = {grid[0][0], grid[1][1], grid[2][2]}
            if not any(diag <= b for b in m10.blocks):
                continue
            seed = {"o": o, "s": s}
            for i in range(3):
                for j in range(3):
                    seed[str(3 * j + i + 1)] = grid[i][j]
            yield seed


def seed_automorphism(m10, seed):
    """The permutation of the points that sends every label of M10 to the
    point of that label in the structure `seed` forces, if that structure
    has the points and blocks of M10; else None.  It is the linear map
    sending M10's seed basis to `seed`."""
    rebuilt = _derive_m10(seed, m10.dim)
    if (set(rebuilt.points) != set(m10.points)
            or set(rebuilt.blocks) != set(m10.blocks)):
        return None
    index = {p: i for i, p in enumerate(m10.points)}
    return tuple(index[rebuilt.labels[m10.names[p]]] for p in m10.points)


def pair_fixers(m10):
    """The automorphisms of M10 that fix o and *: an automorphism is
    fixed by its image of the seed, which is a seed at (o, *), so these
    are exactly the seeds at (o, *) that rebuild M10."""
    o, s = m10.labels["o"], m10.labels["s"]
    found = (seed_automorphism(m10, seed) for seed in seeds_at(m10, o, s))
    return [g for g in found if g is not None]


def stabilizer_report(m10, cen):
    """The order of the automorphism group of M10 (as linear maps of
    F_2^dim), its orbits on the admissible points, and whether it is
    transitive on X; `cen` is `census(m10)`.

    Exact, by orbit and stabilizer of the ordered pair (o, *): the
    stabilizer is `pair_fixers`.  The orbit is closed under the
    automorphisms found; each ordered pair it has not reached is scanned
    until one seed there rebuilds M10, and a pair where none does is
    outside the orbit.  The automorphisms found generate the whole group:
    their subgroup contains the whole stabilizer of (o, *) and has the
    same orbit, so it has the same order."""
    pts = m10.points
    index = {p: i for i, p in enumerate(pts)}
    fixers = pair_fixers(m10)
    gens = _generating_subset(fixers)

    def act(pair, g):
        return g[pair[0]], g[pair[1]]

    start = (index[m10.labels["o"]], index[m10.labels["s"]])
    reached = orbit(start, gens, act)
    for a, b in itertools.permutations(range(len(pts)), 2):
        if (a, b) in reached:
            continue
        for seed in seeds_at(m10, pts[a], pts[b]):
            g = seed_automorphism(m10, seed)
            if g is not None:
                gens.append(g)
                reached = orbit(start, gens, act)
                break
    mats = [linear_extension(m10, g) for g in gens]
    adm = set(cen["admissible_points"])
    adm_orbits = []
    while adm:
        o = orbit(min(adm), mats, _apply_linear)
        adm_orbits.append(o)
        adm -= o.keys()
    pt_orbit = point_orbit(gens, 0)
    return {"order": len(reached) * len(fixers),
            "pair_orbit": len(reached), "pair_fixer": len(fixers),
            "generators": len(gens),
            "point_transitive": len(pt_orbit) == 21,
            "admissible_orbit_sizes": sorted(len(o) for o in adm_orbits),
            "m_is_orbit": any(sorted(o) == cen["m"] for o in adm_orbits)}


def _generating_subset(group):
    """Elements of `group`, a permutation group listed in full, that
    generate it: each element outside the subgroup generated so far."""
    identity = tuple(range(len(group[0])))
    gens, sub = [], {identity}
    for g in group:
        if g not in sub:
            gens.append(g)
            sub = orbit(identity, gens, perm_mul)
    return gens


def linear_extension(m10, perm):
    """The linear map of F_2^dim defined by the permutation on the 21
    points (which contain the seed basis), as the images of the basis."""
    pts = m10.points
    img = {pts[i]: pts[perm[i]] for i in range(21)}
    basis = []
    for i in range(m10.dim):
        e = 1 << i
        if e not in img:
            raise F2Error("basis vector missing from X")
        basis.append(img[e])
    for p in pts:
        if _apply_linear(p, basis) != img[p]:
            raise F2Error("permutation does not extend linearly")
    return basis


def _apply_linear(v, basis):
    """Image of v under the linear map with basis images `basis`."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= basis[i]
        v >>= 1
        i += 1
    return out


# --------------------------------------------------------------------------
# d = 1 examples over F_2

FANO_TRIPLES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                (2, 3, 6), (2, 4, 5))


def d1_q2_examples():
    """The three small structures: the 7-point frame of PG(5, 2), the
    6-frame-plus-point in PG(5, 2), and a basis of PG(6, 2), each with
    Fano-structured elliptic planes."""
    F2 = GF(2)
    out = {}
    frame6 = [1 << i for i in range(6)] + [(1 << 6) - 1]
    out["frame5"] = _fano_structure(F2, frame6)
    bplus = [1 << i for i in range(5)] + [(1 << 5) - 1, 1 << 5]
    out["frame4_plus_point"] = _fano_structure(F2, bplus)
    basis7 = [1 << i for i in range(7)]
    out["basis6"] = _fano_structure(F2, basis7)
    return out


def _fano_structure(field, ints, triples=FANO_TRIPLES):
    dim = max(v.bit_length() for v in ints)
    pts = [int_to_tuple(v, dim) for v in ints]
    xis = [pj.span(field, [pts[i] for i in trio], dim) for trio in triples]
    return vr.build_synthetic_variety(field, dim, pts, xis)


def fano_relabelled(field, ints, shift):
    """The same point set with the Fano structure transported through a
    cyclic relabelling (for the any-choice-works spot checks)."""
    n = len(ints)
    perm = [(i + shift) % n for i in range(n)]
    return _fano_structure(field, ints, [tuple(sorted(perm[i] for i in trio))
                                         for trio in FANO_TRIPLES])
