"""Reference plane isomorphisms by search, and the encoding of points
and lines spelled with coordinates, for the tests.

The package decides P*_Y against the residue plane by checking the tilde
map (`veronese._tilde_on_pstar`).  The references here search instead:
`abstract_plane_isos` backtracks over point bijections between two
linear spaces, and `projective_equivalence` matches those bijections
with frame-determined linear maps, for the criteria that compare two
point sets with no bijection given (05, 10 and 13).

The package holds a point or line as the ranks of its entries in the
element tables (`hjplane.build_plane`); `encode` turns one spelled with
coordinate tuples, or a single element, into that form."""

import itertools

from ringgeom import hjplane as hp
from ringgeom import projective as pj
from ringgeom.projective import GeometryError, rref

from projective_reference import extend_basis, vec_scale


def encode(A, obj):
    """A point or line ("P" or "L", tag, u, v, w), or an element of A,
    spelled with coordinate tuples, as the package holds it: by the
    ranks of its elements in A's element tables."""
    index = A.tables.index
    if obj[0] in ("P", "L"):
        return obj[:2] + tuple(index[u] for u in obj[2:])
    return index[obj]


def incident(plane, p, l):
    """Incidence read off `incidence_value`: p on l iff the value is 0."""
    return hp.incidence_value(plane.algebra, p, l) == 0


def point_neighbouring(plane, p, q):
    """Neighbouring read off `tilde_triple`: p and q are neighbours iff
    their residue points agree."""
    return hp.tilde_triple(plane.algebra, plane.base, p) == \
        hp.tilde_triple(plane.algebra, plane.base, q)


def pstar_is_residue_plane_by_search(variety, data, chi):
    """Whether some incidence-preserving bijection carries P*_Y (points
    chi(x'), lines the vertices, V on chi(x') iff V <= chi(x')) onto the
    residue plane G(2, B)."""
    pstar_points = sorted({s.rows for s in chi.values()})
    pstar_index = {r: i for i, r in enumerate(pstar_points)}
    pstar_lines = []
    for v in data["vertices"].values():
        pstar_lines.append(frozenset(pstar_index[s.rows]
                                     for s in chi.values() if v <= s))
    residue = hp.build_plane(variety.plane.base)
    res_blocks = [frozenset(ps) for ps in residue.points_on]
    iso = next(abstract_plane_isos(len(pstar_points), pstar_lines,
                                   len(residue.points), res_blocks), None)
    return iso is not None


def abstract_plane_isos(n1, blocks1, n2, blocks2):
    """Generator of incidence-preserving point bijections between two
    finite linear spaces given as index blocks (backtracking)."""
    if n1 != n2 or len(blocks1) != len(blocks2):
        return
    deg1, deg2 = ([sum(p in b for b in blocks) for p in range(n1)]
                  for blocks in (blocks1, blocks2))
    blocks2_set = set(blocks2)
    join1, join2 = ({pq: bi for bi, b in enumerate(blocks)
                     for pq in itertools.combinations(sorted(b), 2)}
                    for blocks in (blocks1, blocks2))

    order = sorted(range(n1), key=lambda p: -deg1[p])
    mapping = {}
    bmap = {}
    used = set()

    def backtrack(k):
        if k == n1:
            img_blocks = {frozenset(mapping[p] for p in b) for b in blocks1}
            if img_blocks == blocks2_set:
                yield dict(mapping)
            return
        p = order[k]
        for q in range(n2):
            if q in used or deg2[q] != deg1[p]:
                continue
            new_b = []
            ok = True
            for r in mapping:
                key1 = (p, r) if p < r else (r, p)
                b1 = join1.get(key1)
                qq = mapping[r]
                key2 = (q, qq) if q < qq else (qq, q)
                b2 = join2.get(key2)
                if (b1 is None) != (b2 is None):
                    ok = False
                    break
                if b1 is not None:
                    if b1 in bmap:
                        if bmap[b1] != b2:
                            ok = False
                            break
                    elif b2 in bmap.values():
                        ok = False
                        break
                    else:
                        new_b.append((b1, b2))
                        bmap[b1] = b2
            if ok:
                mapping[p] = q
                used.add(q)
                yield from backtrack(k + 1)
                del mapping[p]
                used.discard(q)
            for b1, _ in new_b:
                del bmap[b1]
    yield from backtrack(0)


def _frame_in(field, pts, n):
    """n independent points plus one with all coordinates nonzero in that
    basis, taken from pts; None if there is none."""
    for start in range(min(len(pts), n + 2)):
        basis = extend_basis(field, [], pts[start:] + pts[:start], n)
        if len(basis) != n:
            return None
        binv = pj.mat_inverse(field, basis)
        for p in pts:
            coords = pj.vec_mat(field, p, binv)
            if all(c != field.zero for c in coords):
                return basis, p, coords
    return None


def projectivity_from_frames(field, src, dst):
    """The unique projectivity mapping the ordered source frame (n
    independent points plus unit) to the destination frame; as a matrix
    acting on row vectors."""
    b1, _, c1 = src
    b2, _, c2 = dst
    rows1 = [vec_scale(field, c, b) for c, b in zip(c1, b1)]
    rows2 = [vec_scale(field, c, b) for c, b in zip(c2, b2)]
    # row-vector action: x -> x . (M1^{-1} M2)
    return pj.mat_mul(field, pj.mat_inverse(field, rows1), rows2)


def projective_equivalence(field, pts1, blocks1, pts2, blocks2):
    """A matrix carrying (pts1, blocks1) onto (pts2, blocks2), found by
    matching abstract plane isomorphisms with frame-determined linear
    maps."""
    n = len(pts1[0])
    if len(pts1) != len(pts2):
        return None
    if field.q == 2:
        # no scalar freedom: a basis determines the map
        basis = extend_basis(field, [], pts1, n)
        if len(basis) != n:
            raise GeometryError("points do not span the space")
        unit = None
        coords = None
    else:
        frame = _frame_in(field, pts1, n)
        if frame is None:
            raise GeometryError("no frame inside the point set")
        basis, unit, coords = frame
    bidx = [pts1.index(b) for b in basis]
    uidx = pts1.index(unit) if unit is not None else None
    pts2_set = set(pts2)
    for iso in abstract_plane_isos(len(pts1), [frozenset(b) for b in blocks1],
                                   len(pts2), [frozenset(b) for b in blocks2]):
        dst_basis = [pts2[iso[i]] for i in bidx]
        test, _ = rref(field, dst_basis)
        if len(test) != n:
            continue
        if unit is None:
            t = pj.mat_mul(field, pj.mat_inverse(
                field, [list(r) for r in basis]), dst_basis)
        else:
            dst_unit = pts2[iso[uidx]]
            dst_coords = pj.vec_mat(field, dst_unit,
                                    pj.mat_inverse(field, dst_basis))
            if any(c == field.zero for c in dst_coords):
                continue
            t = projectivity_from_frames(field, (basis, unit, coords),
                                         (dst_basis, dst_unit, dst_coords))
        image = [pj.apply_matrix(field, t, p) for p in pts1]
        if set(image) != pts2_set:
            continue
        img_index = {p: i for i, p in enumerate(pts2)}
        img_blocks = {frozenset(img_index[image[i]] for i in b)
                      for b in (tuple(bb) for bb in blocks1)}
        if img_blocks != {frozenset(b) for b in blocks2}:
            continue
        return t
    return None
