"""Normal rational curves, cubic scrolls, regular spreads and reguli,
and regular d-scrolls with their quadric families.

Projectivities between a quadric and a spread are stored extensionally
as pairing lists together with a cross-ratio certifier; the geometric
constructions compose them through projections where no single matrix is
canonical.  A scroll's quadric family is read off one linear system; the
affine-section search is exhaustive with rank pruning.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from .fields import GF, subfield_embedding, FieldError
from . import hjplane as hp
from . import projective as pj
from .projective import (Subspace, span, meet, rref, normalize_point,
                         GeometryError, intrinsic_coords, cross_ratio)


def normal_rational_curve(field, m):
    """{(x0^m, x0^{m-1} x1, ..., x1^m)} in K^{m+1}; q+1 points."""
    return [normalize_point(field, tuple(
        field.mul(field.pow(x0, m - i), field.pow(x1, i))
        for i in range(m + 1))) for x0, x1 in pj.pg_parameters(field, 2)]


# --------------------------------------------------------------------------
# spreads and reguli

@dataclass
class Spread:
    field: object
    n: int                # ambient vector dimension
    members: tuple        # Subspaces, pairwise disjoint, covering PG(n-1)


def vector_space_view(L, K):
    """A K-basis of L and the coordinate map L -> K^e.  L's elements are
    base-p digit vectors of polynomials in its generator w, so w is the
    integer p (read only when L is not prime); w generates L over F_p,
    hence has degree e over K, and the basis is 1, w, ..., w^(e-1)."""
    if L.p != K.p or L.k % K.k != 0:
        raise FieldError("no reduction of %r over %r" % (L, K))
    e = L.k // K.k
    emb = subfield_embedding(K, L)
    basis = [L.pow(L.p, i) for i in range(e)]
    coords = {}
    for combo in itertools.product(K.elements(), repeat=e):
        acc = L.zero
        for c, b in zip(combo, basis):
            acc = L.add(acc, L.mul(emb[c], b))
        coords[acc] = tuple(combo)
    if len(coords) != L.q:
        raise FieldError("basis construction failed")
    return emb, basis, coords


def regular_spread(d, q, m=2):
    """(d-1)-spread of PG(m*d - 1, q) by field reduction of PG(m-1, q^d)."""
    K = GF(q)
    if d == 1:
        members = tuple(Subspace(K, m, (p,))
                        for p in pj.pg_parameters(K, m))
        return Spread(K, m, members)
    L = GF(K.p ** (K.k * d))
    _, basis, coords = vector_space_view(L, K)
    members = []
    for lpoint in pj.pg_parameters(L, m):
        rows = []
        for lam in basis:
            vec = []
            for comp in lpoint:
                vec.extend(coords[L.mul(lam, comp)])
            rows.append(tuple(vec))
        members.append(span(K, rows, m * d))
    return Spread(K, m * d, tuple(members))


def transversal(p, s2, s3):
    """Meet of <s2, p> and <s3, p>: the line through the point p meeting
    s2 and s3, when it has vector dimension 2."""
    field, n = s2.field, s2.n
    return meet(span(field, list(s2.rows) + [p], n),
                span(field, list(s3.rows) + [p], n))


def frame_transversals(m0, m1, m2):
    """The lines meeting m1 and m2 through the frame of m0 (its echelon
    rows and their sum), or None unless m0, m1, m2 are pairwise disjoint
    e-spaces spanning a 2e-space.

    An e-space lies in the regulus of m0, m1, m2 iff it meets each of
    these e + 1 lines in one point.  Write the span as m0 + m1 with m2 the
    graph of an isomorphism f: m0 -> m1; the regulus is the spaces
    {s.x + t.f(x)} over (s : t) in PG(1), and the line through x is
    <x, f(x)>.  An e-space meeting the line through each row x_i in
    s_i.x_i + t_i.f(x_i) is spanned by these e independent points, and it
    holds a point s.x + t.f(x) of the line through x = sum(x_i) only if
    every (s_i : t_i) is (s : t).  The lines lie in m0 + m1 and m0 + m2,
    and a point v of m1 and m2 would make them the lines <x_i, v>, which
    span e + 1 dimensions; so they are lines spanning 2e dimensions
    exactly when the premise holds."""
    field, e = m0.field, m0.vdim
    if not e == m1.vdim == m2.vdim:
        return None
    frame = m0.rows + (pj.vec_mat(field, (field.one,) * e, m0.rows),)
    lines = [transversal(x, m1, m2) for x in frame]
    if any(t.vdim != 2 for t in lines) or span(
            field, [r for t in lines for r in t.rows], m0.n).vdim != 2 * e:
        return None
    return lines


def is_regular_spread(spread, within=None):
    """Regulus closure.  Each point is mapped to the one member holding
    it, which checks that the members are disjoint and cover PG(n-1), or
    `within` (e.g. the vertex space of a variety).  Point spreads are
    trivially regular.  Otherwise every member meeting the span u of two
    members must lie in u, and the regulus of each trio of them must lie
    in the spread.  The q + 1 points of a frame transversal of the trio
    (`frame_transversals`) lie on q + 1 distinct members, since a member
    holding two of them would hold the line, which meets two members of
    the trio; so
    the regulus, which has q + 1 members, lies in the spread iff every
    frame transversal hits the same members."""
    members = spread.members
    if not members:
        return False
    holder = {}
    for i, m in enumerate(members):
        for p in m.points():
            if holder.setdefault(p, i) != i:
                return False
    if within is None:
        within = span(spread.field, pj.unit_vectors(spread.field, spread.n))
    if set(holder) != set(within.points()):
        return False
    if members[0].vdim == 1:
        return True
    size = collections.Counter(holder.values())
    pair_spans = {}
    for a, b in itertools.combinations(members, 2):
        u = span(spread.field, a.rows + b.rows, spread.n)
        pair_spans.setdefault(u.rows, u)
    for u in pair_spans.values():
        inside = collections.Counter(holder[p] for p in u.points())
        if any(size[i] != c for i, c in inside.items()):
            return False     # a member meets u partially
        for trio in itertools.combinations(sorted(inside), 3):
            lines = frame_transversals(*(members[i] for i in trio))
            if lines is None or len({frozenset(holder[p] for p in t.points())
                                     for t in lines}) != 1:
                return False
    return True


# --------------------------------------------------------------------------
# scrolls

@dataclass
class Scroll:
    """Union of transversal subspaces <p, phi(p)> joining a Witt-index-1
    quadric to a spread (a line's points, for the cubic scroll)."""
    field: object
    n: int
    quadric_pts: tuple          # points of Q, order fixed
    members: tuple              # spread members, aligned with quadric_pts
    point_sets: tuple           # per transversal <p, phi(p)>: frozenset of
                                # the packed rows of its points
    spread_side: Subspace       # span of all members

    def transversal_index_of(self, p):
        b = self.field.pack(p)
        for i, ps in enumerate(self.point_sets):
            if b in ps:
                return i
        return None


def build_scroll(field, quadric_pts, members):
    """Scroll from an aligned pairing quadric_pts[i] <-> members[i]."""
    n = len(quadric_pts[0])
    point_sets = []
    for p, m in zip(quadric_pts, members):
        t = span(field, [p] + list(m.rows), n)
        if t.vdim != m.vdim + 1:
            raise GeometryError("quadric point lies on its spread member")
        point_sets.append(frozenset(t.points()))
    spread_side = span(field, [r for m in members for r in m.rows], n)
    return Scroll(field, n, tuple(quadric_pts), tuple(members),
                  tuple(point_sets), spread_side)


def canonical_cubic_scroll(field):
    """Normal rational cubic scroll: a conic and a line in complementary
    subspaces of PG(4, K), paired by index."""
    conic5 = [tuple(p) + (field.zero, field.zero)
              for p in normal_rational_curve(field, 2)]
    members = [Subspace(field, 5, ((field.zero,) * 3 + tuple(p),))
               for p in normal_rational_curve(field, 1)]
    return build_scroll(field, conic5, members)


def canonical_regular_scroll(d, q):
    """Regular d-scroll in PG(3d+1, q) from the norm-form quadric of
    F_{q^d} and the field-reduction spread, paired through PG(1, q^d)."""
    K = GF(q)
    L = GF(q ** d)
    emb, _, coords = vector_space_view(L, K)
    n = 3 * d + 2

    # quadric side: x0 x1 = N(b), points (1, N(b), b) and (0, 1, 0...) in
    # the first (d+2) coordinates
    def qpoint(l):
        # norm of the quadratic K-algebra L: l^2 for L = K, the field
        # norm l^(1+q) for the degree-2 extension
        if d == 1:
            acc = L.mul(l, l)
        else:
            acc = L.one
            x = l
            for _ in range(d):
                acc = L.mul(acc, x)
                xq = x
                for _ in range(K.k):
                    xq = L.frobenius(xq)
                x = xq
        norm_val = next(kk for kk, vv in emb.items() if vv == acc)
        vec = [K.one, norm_val] + list(coords[l]) + [K.zero] * (2 * d)
        return normalize_point(K, tuple(vec))

    # PG(1, L) as (1, l), then the point at infinity (0, 1): the order in
    # which regular_spread lists its members
    qpts = [qpoint(l) for l in L.elements()]
    qpts.append(normalize_point(K, tuple([K.zero, K.one] + [K.zero] * 3 * d)))
    pad = (K.zero,) * (d + 2)
    members = [Subspace(K, n, tuple(pad + r for r in m.rows))
               for m in regular_spread(d, q).members]
    return build_scroll(K, qpts, members)


def scroll_quadrics(scroll):
    """All Witt-index-1 quadrics on the scroll meeting every transversal
    exactly once off the spread side, as a sorted list of point tuples.

    Write Pi = <Q> for the quadric side and Sigma for the spread side.
    Suppose a (d+1)-space U meets each transversal <p, phi(p)> in one
    point off Sigma.  Its projection along Sigma then contains every p,
    so it is all of Pi; hence U meets Sigma in 0, and U is the graph
    {x + psi(x)} of a linear map psi: Pi -> Sigma with psi(p) in phi(p)
    for each p in Q.  Conversely such a graph meets <p, phi(p)> exactly
    in p + psi(p).  Those conditions are d linear equations per point on
    the (d+2).2d entries of psi, and the family is the q^dim(W) graphs
    over their solution space W.  A graph's points are the image of Q
    under a linear isomorphism, so they carry an exact Witt-index-1 form
    iff Q does: that form is fitted once, on Q, by class
    (`pj.cone_forms`).  A form through Q vanishes exactly on Q iff its
    vertex is empty and its class has |Q| zeros; its Witt index w is the
    number of hyperbolic planes that split off it, each around an
    isotropic vector, which a Chevalley-Warning search over three
    coordinates finds whenever one exists."""
    field = scroll.field
    pi = span(field, scroll.quadric_pts, scroll.n)
    sigma = scroll.spread_side
    if span(field, pi.rows + sigma.rows).vdim != pi.vdim + sigma.vdim:
        raise GeometryError("quadric side meets the spread side")
    coords = [intrinsic_coords(pi, p) for p in scroll.quadric_pts]
    if not any(w == 1 and not vert.rows
               for _, vert, w in pj.cone_forms(field, coords, pi.vdim)[1]):
        return []
    # psi(x) = coords(x).M in Sigma coordinates, M flattened row by row;
    # psi(p) lies in phi(p) iff coords(p).M.h = 0 for each row h of the
    # annihilator of phi(p) in Sigma coordinates
    k = sigma.vdim
    eqs = []
    for a, m in zip(coords, scroll.members):
        member = [intrinsic_coords(sigma, r) for r in m.rows]
        eqs.extend(tuple(field.mul(x, y) for x in a for y in h)
                   for h in pj.nullspace(field, member, k))
    maps = [[w[i:i + k] for i in range(0, len(w), k)]
            for w in pj.nullspace(field, eqs, pi.vdim * k)]
    # per point p: p itself, then its image under each basis map of W,
    # as a matrix applied once per member of the family
    to_ambient = pj.Matrix(field, sigma.rows)
    rows = [pj.Matrix(field, [p] + [
        pj.vec_mat(field, pj.vec_mat(field, a, mat), to_ambient)
        for mat in maps]) for p, a in zip(scroll.quadric_pts, coords)]
    family = []
    for c in itertools.product(field.elements(), repeat=len(maps)):
        c = (field.one,) + c
        family.append(tuple(sorted(pj.apply_matrix(field, r, c)
                                   for r in rows)))
    return sorted(family)


def verify_unique_quadrics(scroll, quadrics):
    """Every valid pair lies in exactly one quadric; pairwise intersections
    are single scroll points off the spread.

    A valid pair is two points off the spread on different transversals.
    Read as the sets of quadrics through them, two points lie in as many
    quadrics as their sets share, so a valid pair fails iff its bit is
    off `once` or on `twice` of `hjplane.pair_masks` over those sets.
    Points are compared by their packed rows (`field.pack`).  The first
    failure is the first in transversal-pair order, then in the sorted
    order of each transversal's points (packed rows sort as the vectors
    do).
    """
    field = scroll.field
    spread_pts = frozenset(scroll.spread_side.points())
    sides = [sorted(ps - spread_pts) for ps in scroll.point_sets]
    starts = list(itertools.accumulate(map(len, sides), initial=0))
    sets = [frozenset(map(field.pack, pts)) for pts in quadrics]
    holders = hp.holder_masks(sets)
    once, twice = hp.pair_masks([list(hp.bits(holders[p]))
                                 for p in itertools.chain(*sides)])
    fails = [~o | t for o, t in zip(once, twice)]
    for i, j in itertools.combinations(range(len(sides)), 2):
        for k, a in enumerate(sides[i], starts[i]):
            f = (fails[k] >> starts[j]) & ((1 << len(sides[j])) - 1)
            if f:
                b = sides[j][next(hp.bits(f))]
                return False, ("pair", field.unpack(a), field.unpack(b),
                               (holders[a] & holders[b]).bit_count())
    valid_pairs = sum(len(t) * len(u)
                      for t, u in itertools.combinations(sides, 2))
    # a pair fails iff it shares no point off the spread or two points
    off_meets = hp.pair_masks([q - spread_pts for q in sets])[0]
    twice = hp.pair_masks(sets)[1]
    n = len(sets)
    bad = ((~o | t) & hp.later_bits(i, n)
           for i, (o, t) in enumerate(zip(off_meets, twice)))
    first = next(hp.mask_pairs(bad), None)
    if first is not None:
        i, j = first
        return False, ("intersection", quadrics[i], quadrics[j],
                       len(sets[i] & sets[j]))
    return True, valid_pairs


def member_parameters(field, members, avoid=None):
    """PG(1, K) coordinates of the members of a pencil of points, a
    regulus, or a pencil of subspaces through `avoid`, in order.

    Members are first taken modulo `avoid`, each row projected from it
    (`Subspace.project`): their cross-ratios, and whether they form a
    pencil or a regulus, are the same on every complement of `avoid`, so
    none is built.  The family is fixed by the first image m0 and the
    next other images of its dimension: point images must lie on the
    span of m0 and the next one, and larger ones
    must meet each frame transversal of m0 and the next two once
    (`frame_transversals`).  Every common transversal of a pencil or
    regulus meets its members in the same cross-ratios, so a member's
    coordinates are those of its meet with the first of these lines.  A
    member off the family gets None, and every member does when the first
    three images span no pencil or regulus."""
    n = members[0].n
    if avoid is not None and avoid.rows:
        members = [span(field, [x for x in map(avoid.project, m.rows)
                                if x is not None], n) for m in members]
    m0 = members[0]
    rest = [m for m in members[1:]
            if m.vdim == m0.vdim and m.rows != m0.rows]
    if m0.vdim == 1 and rest:
        lines = [span(field, m0.rows + rest[0].rows, n)]
    elif m0.rows and len(rest) >= 2:
        lines = frame_transversals(m0, rest[0], rest[1])
    else:
        lines = None
    if lines is None:
        return [None] * len(members)
    out = []
    for m in members:
        meets = [meet(t, m) for t in lines] if m.vdim == m0.vdim else ()
        out.append(intrinsic_coords(lines[0], meets[0].rows[0])
                   if meets and all(mm.vdim == 1 for mm in meets) else None)
    return out


def projectivity_witness(field, conic, members, avoid=None):
    """None iff conic[i] -> members[i] (points of a line, lines of a
    regulus, or a pencil through `avoid`) is a projectivity, else the
    first conic point that fails.  Both sides are given PG(1, K)
    coordinates once (`pj.conic_parameters`, `member_parameters`).  A
    projectivity of PG(1, q) is fixed by three pairs, and cross-ratio
    against a fixed triple is a coordinate, so it is enough that the
    members get distinct coordinates and cr(a0, a1, a2, a_x) =
    cr(b0, b1, b2, b_x) for each later conic point x."""
    a = pj.conic_parameters(field, conic)
    b = member_parameters(field, members, avoid)
    seen = set()
    for i, (x, bx) in enumerate(zip(conic, b)):
        if bx is None or bx in seen:
            return x
        seen.add(bx)
        if i >= 3 and (cross_ratio(field, *a[:3], a[i])
                       != cross_ratio(field, *b[:3], bx)):
            return x
    return None


def pairing_witness(scroll):
    """None when every conic of the quadric side goes to a regulus (a
    pencil, for point members) by a projectivity; else {"conic", "point"}
    for the first conic point that fails `projectivity_witness`, where a
    member off the regulus of the first three fails too.  Needs q >= 3."""
    field = scroll.field
    pair = dict(zip(scroll.quadric_pts, scroll.members))
    qspan = span(field, list(scroll.quadric_pts), scroll.n)
    for conic in pj.conic_sections(field, scroll.quadric_pts, qspan):
        x = projectivity_witness(field, conic, [pair[p] for p in conic])
        if x is not None:
            return {"conic": conic, "point": x}
    return None


def scroll_dump(scroll, quadrics=None):
    """JSON-friendly dump of the transversal pairings and quadric lists."""
    field = scroll.field
    out = {
        "pairing": [{
            "point": pj.point_to_json(field, p),
            "member": pj.subspace_to_json(m),
        } for p, m in zip(scroll.quadric_pts, scroll.members)],
        "spread_side": pj.subspace_to_json(scroll.spread_side),
    }
    if quadrics is not None:
        out["quadrics"] = [[pj.point_to_json(field, p) for p in pts]
                           for pts in sorted(quadrics)]
    return out


# --------------------------------------------------------------------------
# affine sections of two paired quadrics sharing a point

def alpha_section(field, pairing, n):
    """Affine d-space meeting all transversals <x, phi(x)> of a pairing of
    two Witt-index-1 quadrics sharing one point.

    `pairing` is a list of (x, phi_x) with x != the shared point.  Returns
    (alpha_span, affine_points, infinity_subspace, images) where images[i]
    is the alpha-point on transversal i.
    """
    lines = [span(field, [x, y], n) for (x, y) in pairing]
    d = _alpha_dim(len(pairing), field)
    head = lines[: min(len(lines), d + 4)]
    for base in itertools.combinations(head, d + 1):
        choices = [list(map(field.unpack, l.points())) for l in base]
        for combo in itertools.product(*choices):
            al = span(field, list(combo), n)
            if al.vdim != d + 1:
                continue
            images = []
            ok = True
            for l in lines:
                mm = meet(al, l)
                if mm.vdim != 1:
                    ok = False
                    break
                images.append(normalize_point(field, mm.rows[0]))
            if not ok or len(set(images)) != len(lines):
                continue
            img_set = set(map(field.pack, images))
            infinity = [p for p in al.points() if p not in img_set]
            inf_rows, _ = rref(field, list(map(field.unpack, infinity)))
            if len(inf_rows) != d:
                continue
            inf_space = Subspace(field, n, tuple(inf_rows))
            if any(p not in set(inf_space.points()) for p in infinity):
                continue
            return al, images, inf_space
    raise GeometryError("no affine section found")


def _alpha_dim(n_transversals, field):
    # q^d transversals off the shared point
    q = field.q
    d = 0
    size = 1
    while size < n_transversals:
        size *= q
        d += 1
    if size != n_transversals:
        raise GeometryError("transversal count %d is not a power of q"
                            % n_transversals)
    return d
