"""The binary specials: the 21-point structure M10 in PG(10, 2) with its
order-4 plane of frame blocks, the admissible-point census, projections
to dimensions 9 and 8, the Steiner system S(5, 8, 24) obtained by
lifting, and the small d = 1 structures.

GF(2) vectors are plain ints (bit i = coordinate i); labels 1..9, o, *,
Sigma are carried through all derived points so reports can be audited
symbol by symbol.
"""

from __future__ import annotations

import functools
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
    """The rank of the vectors over GF(2): each is reduced by the pivots
    kept so far, keyed by leading bit, until it is zero or has a new
    leading bit, and then kept as that bit's pivot."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


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

    @functools.cached_property
    def pair_ranks(self):
        """(b1, b2, the points of both blocks, their rank) per block pair,
        in `combinations` order; computed once per structure."""
        out = []
        for b1, b2 in itertools.combinations(range(len(self.blocks)), 2):
            pair = list(self.blocks[b1] | self.blocks[b2])
            out.append((b1, b2, pair, bits_rank(pair)))
        return out


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
    """The partition of PG(10, 2) by M10: X, the elliptic points (in a
    block's span, off X), the triangle and quadrangle centres
    (`_centres`) and the admissible points, those off every span of two
    blocks; each such span is spanned by the nine points of the two
    blocks.  Also M (`line_m`), the admissible lines and planes and the
    tangent dimensions."""
    n = m10.dim
    all_points = set(range(1, 1 << n))
    xset = set(m10.points)
    elliptic = set()
    for b in m10.blocks:
        elliptic |= span_set(list(b))
    elliptic -= xset
    triangle_centers, quad_centers = _centres(m10)

    pair_span_union = set()
    for b1, b2 in itertools.combinations(m10.blocks, 2):
        pair_span_union |= span_set(echelon(list(b1 | b2)))
    admissible = sorted(all_points - pair_span_union)

    m = line_m(m10)
    adm_lines = set()
    adm_set = set(admissible)
    for a, b in itertools.combinations(admissible, 2):
        if a ^ b in adm_set:
            adm_lines.add(frozenset((a, b, a ^ b)))
    # two admissible lines through a point span a plane whose other two
    # points are the sums of a point of each line off the other
    adm_planes = sum(1 for l1, l2 in itertools.combinations(adm_lines, 2)
                     if l1 & l2 and all(x ^ y in adm_set for x in l1 - l2
                                        for y in l2 - l1))

    parts = [xset, elliptic, set(triangle_centers), set(quad_centers),
             set(admissible)]
    total = sum(map(len, parts))
    report = {
        "x": len(xset),
        "elliptic": len(elliptic),
        "triangle_centers": len(triangle_centers),
        "quadrangle_centers": len(quad_centers),
        "admissible": len(admissible),
        "partition_sum": total,
        "partition_disjoint": len(set().union(*parts)) == total,
        "triangles": sum(len(v) for v in triangle_centers.values()),
        "one_triangle_per_center": all(len(v) == 1 for v in
                                       triangle_centers.values()),
        "four_quadrangles_per_center": all(len(v) == 4 for v in
                                           quad_centers.values()),
        "m": m,
        "m_labels": sorted(_sum_label(m10, v) for v in m),
        "admissible_points": admissible,
        "admissible_lines": len(adm_lines),
        "admissible_planes": adm_planes,
        "tangent_dims": sorted({len(tangent_space(m10, x)) - 1
                                for x in m10.points}),
        "admissible_in_m_planes": _admissible_in_m_planes(m10, m, adm_set),
    }
    return report


def _centres(m10):
    """sum -> the 3-subsets, and sum -> the 4-subsets, of X with that sum
    and no three points in a block, as point tuples in lexicographic
    order.  Three points lie in a block iff the third is in the index
    mask of the block through the other two (the blocks form a plane)."""
    pts = m10.points
    index = {p: i for i, p in enumerate(pts)}
    join = {}
    for b in m10.blocks:
        mask = sum(1 << index[p] for p in b)
        for i, j in itertools.permutations(_indices(mask), 2):
            join[i, j] = mask
    triangles, quads = {}, {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        for k in range(j + 1, len(pts)):
            if join[i, j] >> k & 1:
                continue
            trio = pts[i], pts[j], pts[k]
            c = pts[i] ^ pts[j] ^ pts[k]
            triangles.setdefault(c, []).append(trio)
            off = join[i, j] | join[i, k] | join[j, k]
            for l in range(k + 1, len(pts)):
                if not off >> l & 1:
                    quads.setdefault(c ^ pts[l], []).append(trio + (pts[l],))
    return triangles, quads


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
    masks = [m for k in range(1, 5) for m in buckets[k].get(0, ())]
    for k in range(1, 5):
        masks.extend(_joins(buckets[4], buckets[k]))
    return {frozenset(points[i] for i in _indices(m)) for m in masks}


def _sum_buckets(points, sizes):
    """k -> (sum -> bitmasks, bit i for points[i], of the k-subsets with
    that sum, in lexicographic order) for each of the given sizes k: the
    k-subsets are the (k-1)-subsets, each extended by a point after its
    last."""
    out = {}
    units = [(p, 1 << i) for i, p in enumerate(points)]
    level = [(0, 0)]                # (sum, mask) of the k-subsets
    for k in range(max(sizes) + 1):
        if k:
            level = [(acc ^ p, mask | bit) for acc, mask in level
                     for p, bit in units[mask.bit_length():]]
        if k in sizes:
            buckets = out[k] = {}
            for acc, mask in level:
                buckets.setdefault(acc, []).append(mask)
    return out


def _joins(lows, highs):
    """The masks A | B of the zero-sum sets met in the middle: A and B
    from the buckets of one sum in `lows` and in `highs`, with every
    point of A before every point of B (A < lowest bit of B)."""
    for acc, above in highs.items():
        below = lows.get(acc)
        if below:
            for b in above:
                low = b & -b
                for a in below:
                    if a < low:
                        yield a | b


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
    iff their ranks add (the pair ranks are the structure's own)."""
    for b1, b2, pair, rank in m10.pair_ranks:
        if bits_rank(ech + pair) != len(ech) + rank:
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
    fours = _sum_buckets(points, (4,))[4]
    for mask in _joins(fours, fours):
        combo = tuple(_indices(mask))
        if bits_rank([points[i] for i in combo[:7]]) == 7:
            octads.append(combo)
    return sorted(octads)


def check_design(points, octads):
    """Every 5-subset of the points lies in exactly one octad.  Each
    5-subset is kept as a bitmask of point indices, its octad's mask XOR
    the mask of the three octad points it leaves out; False at the first
    octad holding a 5-subset already met, and otherwise True iff the
    5-subsets met number C(len(points), 5)."""
    seen = set()
    for o in octads:
        bits = [1 << i for i in o]
        mask = sum(bits)
        fives = [mask ^ (a | b | c)
                 for a, b, c in itertools.combinations(bits, 3)]
        before = len(seen)
        seen.update(fives)
        if len(seen) != before + len(fives):
            return False
    return len(seen) == math.comb(len(points), 5)


def _frames(points):
    """The 5-subsets of the points with zero sum and rank 4 (frames of
    3-spaces), as index lists in lexicographic order.  A zero-sum 5-set
    is its lowest two points and its highest three, with equal sums:
    joined here from the 2- and 3-subsets bucketed by sum."""
    buckets = _sum_buckets(points, (2, 3))
    return [c for c in sorted(map(_indices, _joins(buckets[2], buckets[3])))
            if bits_rank([points[i] for i in c]) == 4]


def converse_projection(points24):
    """Project the 24 points from p1 + p2 + p3; the other 21 images form
    an M10-like structure (21 zero-sum 5-subsets building a plane of
    order 4) and the images of p1, p2, p3 form its line M.  The blocks
    are the frames among the images (`_frames`)."""
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
    blocks = [frozenset(x_imgs[i] for i in c) for c in _frames(x_imgs)]
    if len(blocks) != 21:
        return {"ok": False, "why": "found %d candidate blocks" % len(blocks)}
    rec = M10Structure(x_imgs, {}, {}, blocks, dim - 1)
    try:
        _validate_m10(rec)
        m_rec = line_m(rec)     # must be the image of {p1, p2, p3}
    except F2Error as e:
        return {"ok": False, "why": str(e)}
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
