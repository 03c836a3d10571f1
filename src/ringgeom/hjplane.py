"""The ring plane G(2, A) over A = B or A = CD(B, 0), with incidence,
neighbouring, the residue epimorphism and the level-2 Hjelmslev axioms.

Points and lines carry class tags instead of homogeneous normalization;
scalar multiples are not well defined in the non-associative case.  The
three point orbits are

    P0: (x, y, 1)        x, y in A
    P1: (1, y, t z1)     y in A, z1 in B
    P2: (t x1, 1, t z1)  x1, z1 in B

and dually L0: [a, 1, c], L1: [1, t b1, c], L2: [t a1, t b1, 1].
Incidence of (x, y, z) with [a, b, c] is a*x + b*y + c*z = 0, evaluated
left to right with one algebra product per summand.

A point or line is the tuple ("P" or "L", tag, u, v, w) of the ranks of
its entries in A (`algebras.ElementTables`), so the plane is built and
indexed by table lookups on small ints; `coords` turns one back into
coordinate tuples for witnesses and messages.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from . import RinggeomError
from .algebras import Algebra, is_division


class PlaneError(RinggeomError):
    pass


def extract_base(A):
    """(B, is_cd) where B is the maximal nondegenerate part of A.

    A must be a quadratic associative-enough division algebra B itself, or
    CD(B, 0) for such a B (recognized from the structure table: the
    second half is t*B with t = e_{base_dim} and t^2 = 0).
    """
    if A.involution is None:
        raise PlaneError("algebra has no involution")
    if A.field.is_finite and is_division(A):
        return A, False
    m = A.base_dim
    if not m or 2 * m != A.dim:
        raise PlaneError("algebra %s is not of the shape B or CD(B,0)" % A.tag)
    t = A.basis(m)
    if A.mul(t, t) != A.zero():
        raise PlaneError("algebra %s is not CD(B,0): t^2 != 0" % A.tag)
    # carve out B from the upper-left block of the table
    zero_tail = (A.field.zero,) * m
    table = []
    inv_rows = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = A.table[i][j]
            if prod[m:] != zero_tail:
                raise PlaneError("B-part of %s is not closed" % A.tag)
            row.append(prod[:m])
        table.append(tuple(row))
        ci = A.involution[i]
        if ci[m:] != zero_tail:
            raise PlaneError("involution does not stabilize the B-part")
        inv_rows.append(ci[:m])
    B = Algebra(A.field, m, tuple(table), tuple(inv_rows),
                tag="base(%s)" % A.tag, base_dim=m)
    if A.field.is_finite and not is_division(B):
        raise PlaneError("base of %s is not a division algebra" % A.tag)
    return B, True


@dataclass
class IncidenceStructure:
    algebra: Algebra
    base: Algebra
    is_cd: bool
    points: list
    lines: list
    points_on: list      # per line index: list of point indices
    point_index: dict
    line_index: dict
    point_keys: list     # per point index: its neighbour key, tilde_triple

    def point_line_neighbouring(self, p, l):
        """The residue of the incidence value is zero (rank 0)."""
        residue = _residue_ranks(self.algebra, self.base)
        return residue[incidence_value(self.algebra, p, l)] == 0


def coords(A, obj):
    """A point or line with its element ranks read as coordinate tuples,
    for reports and messages."""
    elems = A.tables.elems
    return obj[:2] + tuple(elems[u] for u in obj[2:])


def incidence_value(A, point, line):
    _, _, x, y, z = point
    _, _, a, b, c = line
    add, mul = A.tables.add, A.tables.mul
    return add[add[mul[a][x]][mul[b][y]]][mul[c][z]]


def _residue_ranks(A, B):
    """Element rank of A -> the rank in B of its residue: its B-part for
    CD(B, 0), and itself where A is its own base B (a division algebra),
    so that neighbouring there is equality, and a point and a line are
    neighbouring exactly when incident."""
    if not A.base_dim or A.dim == B.dim:
        return range(len(A.tables.elems))
    return A.tables.b_part


def tilde_triple(A, B, obj):
    """The neighbour key of a point or line: the residues
    (`_residue_ranks`) of its three entries."""
    _, _, u, v, w = obj
    bp = _residue_ranks(A, B)
    return (bp[u], bp[v], bp[w])


def build_plane(A):
    """Enumerate G(2, A) with constructive per-line point lists.

    Points and lines are tuples ("P" or "L", tag, u, v, w) of the element
    ranks of A (`algebras.ElementTables`).  An algebra of more than
    `algebras.TABLE_BOUND` (1024) elements is refused with an
    AlgebraError before anything is enumerated."""
    B, is_cd = extract_base(A)
    T = A.tables
    one = T.one
    a_elems = range(len(T.elems))
    # the ranks of the elements t*b, b in B, in the order of B's elements
    tb = [T.index[A.t_times(b)] for b in B.elements()] if is_cd else [0]

    points = [("P", 0, x, y, one) for x in a_elems for y in a_elems]
    points += [("P", 1, one, y, tz) for y in a_elems for tz in tb]
    points += [("P", 2, tx, one, tz) for tx in tb for tz in tb]
    lines = [("L", 0, a, one, c) for a in a_elems for c in a_elems]
    lines += [("L", 1, one, tb1, c) for tb1 in tb for c in a_elems]
    lines += [("L", 2, ta1, tb1, one) for ta1 in tb for tb1 in tb]

    point_index = {p: i for i, p in enumerate(points)}
    line_index = {l: i for i, l in enumerate(lines)}
    if len(point_index) != len(points) or len(line_index) != len(lines):
        raise PlaneError("template enumeration produced duplicates")

    points_on = [line_point_list(A, tb, l, point_index) for l in lines]
    return IncidenceStructure(A, B, is_cd, points, lines, points_on,
                              point_index, line_index,
                              [tilde_triple(A, B, p) for p in points])


def partition_mismatch(a, b):
    """None if a[i] == a[j] iff b[i] == b[j] for all index pairs, else a
    pair (j, i), j < i, for which exactly one of the two holds.

    One pass: a[i] -> b[i] is a well-defined injective map iff every index
    has the same first index in its class under a as under b."""
    first_a, first_b = {}, {}
    for i, (x, y) in enumerate(zip(a, b)):
        j, k = first_a.setdefault(x, i), first_b.setdefault(y, i)
        if j != k:      # j < k: not well defined; k < j: not injective
            return min(j, k), i
    return None


def line_point_list(A, tb, line, point_index):
    """Solve a*x + b*y + c*z = 0 template by template, by lookups in the
    element tables of A; tb lists the ranks of tB."""
    T = A.tables
    add, mul, neg, one = T.add, T.mul, T.neg, T.one
    _, tag, a, b, c = line
    elems = range(len(T.elems))
    if tag == 0:
        # [a,1,c]: affine points with free x; mid points with free z1
        ma, mc = mul[a], mul[c]
        pts = [("P", 0, x, neg[add[ma[x]][c]], one) for x in elems]
        pts += [("P", 1, one, neg[add[a][mc[tz]]], tz) for tz in tb]
    elif tag == 1:
        # [1, tb1, c]: affine points with free y; deep points with free z1
        mb, mc = mul[b], mul[c]
        pts = [("P", 0, neg[add[mb[y]][c]], y, one) for y in elems]
        pts += [("P", 2, neg[add[b][mc[tz]]], one, tz) for tz in tb]
    else:
        # [ta1, tb1, 1]: mid points with free y; deep points with free x1
        mb, nb = mul[b], neg[b]
        pts = [("P", 1, one, y, neg[add[a][mb[y]]]) for y in elems]
        pts += [("P", 2, tx, one, nb) for tx in tb]
    out = [point_index.get(p) for p in pts]
    if None in out:
        p = pts[out.index(None)]
        raise PlaneError("solution %r of line %r is not a plane point"
                         % (coords(A, p), coords(A, line)))
    return out


def expected_point_count(A, B, is_cd=True):
    na = A.size()
    nb = B.size() if is_cd else 1     # size of tB
    return na * na + na * nb + nb * nb


def epimorphism_to_residue(plane):
    """Tilde map onto G(2, B) = PG(2, B); fibers are the neighbour classes."""
    if not plane.is_cd:
        raise PlaneError("plane is already over a division algebra")
    A, B = plane.algebra, plane.base
    residue = build_plane(B)
    bp = A.tables.b_part
    one_b = B.tables.one

    def tilde_point(p):
        _, tag, x, y, _ = p
        if tag == 0:
            return ("P", 0, bp[x], bp[y], one_b)
        if tag == 1:
            return ("P", 1, one_b, bp[y], 0)
        return ("P", 2, 0, one_b, 0)

    def tilde_line(l):
        _, tag, a, _, c = l
        if tag == 0:
            return ("L", 0, bp[a], one_b, bp[c])
        if tag == 1:
            return ("L", 1, one_b, 0, bp[c])
        return ("L", 2, 0, 0, one_b)

    point_map = {p: tilde_point(p) for p in plane.points}
    line_map = {l: tilde_line(l) for l in plane.lines}
    for kind, images, index in (("point", point_map, residue.point_index),
                                ("line", line_map, residue.line_index)):
        for img in images.values():
            if img not in index:
                raise PlaneError("tilde image %r is not a residue %s"
                                 % (coords(B, img), kind))
    return point_map, line_map, residue


def shared_elements(sets):
    """The elements that at least two of the sets hold, by set operations
    alone (which reuse the hashes the sets store)."""
    seen, shared = set(), set()
    for s in sets:
        shared |= seen & s
        seen |= s
    return shared


def holder_masks(sets):
    """The dict from each element to the bitmask of the sets holding it."""
    holders = defaultdict(int)
    for i, s in enumerate(sets):
        bit = 1 << i
        for e in s:
            holders[e] |= bit
    return holders


def pair_masks(sets):
    """The lists (once, twice) of bitmasks over the indices of `sets`: bit
    j != i of once[i] (of twice[i]) is set iff sets i and j share at
    least one (at least two) elements, and bit i is clear.

    One dict from each element to the mask of the sets holding it, folded
    over each set's elements as twice |= once & m, once |= m: three
    big-int operations per incidence, with no step per pair."""
    holders = holder_masks(sets)
    once, twice = [], []
    for i, s in enumerate(sets):
        o = t = 0
        for e in s:
            m = holders[e]
            t |= o & m
            o |= m
        own = ~(1 << i)
        once.append(o & own)
        twice.append(t & own)
    return once, twice


def bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    j = 0
    while mask:
        skip = (mask & -mask).bit_length() - 1
        j += skip
        yield j
        mask >>= skip + 1
        j += 1


def mask_pairs(rows):
    """The pairs (i, j), in order, for the bits j of rows[i]."""
    return ((i, j) for i, row in enumerate(rows) for j in bits(row))


def later_bits(i, n):
    """The mask of the indices i + 1 .. n - 1."""
    return (1 << n) - (1 << i + 1)


def is_affine_plane(points, line_sets, order):
    """n^2 points, n^2 + n distinct lines of n of them, no two lines with
    two common points (n = order >= 2): every point pair is then joined
    once, a 2-(n^2, n, 1) design, which is an affine plane (Dembowski,
    Finite Geometries, 2.2); Playfair follows by counting."""
    n = order
    points = set(points)
    lines = [frozenset(l) for l in line_sets]
    if (n < 2 or len(points) != n * n or len(lines) != n * n + n
            or len(set(lines)) != len(lines)
            or any(len(l) != n or not l <= points for l in lines)):
        return False
    return not any(pair_masks(lines)[1])


def check_hjelmslev(npoints, blocks, point_keys, block_keys, order):
    """Check (Hj1)-(Hj4); returns a dict report with any violations.

    Points are 0..npoints-1 and blocks are point-index tuples.  Two points
    (blocks) are neighbours iff their keys are equal.  The neighbour
    classes must be affine planes of order `order`, with the traces of the
    blocks (of the points) as lines; a structure of order^2 + order + 1
    points is an ordinary projective plane, whose classes are single
    elements without traces.  Each block holds distinct points, so the
    index lists are read as they are; sets are built only for the
    witnesses."""
    through = [[] for _ in range(npoints)]
    for bi, b in enumerate(blocks):
        for pi in b:
            through[pi].append(bi)
    violations = []
    # (Hj1) on points and (Hj2) on blocks: two elements are joined by
    # exactly one element iff they are not neighbours, and by at least one
    for tag, joins, keys in (("Hj1", through, point_keys),
                             ("Hj2", blocks, block_keys)):
        n = len(joins)
        classes = holder_masks([key] for key in keys)  # key -> class mask
        once, twice = pair_masks(joins)
        bad = []
        for i, (o, t, key) in enumerate(zip(once, twice, keys)):
            nb = classes[key]
            bad.append((~o | (o & ~t & nb) | (t & ~nb)) & later_bits(i, n))
        violations.extend((tag, i, j, len(set(joins[i]) & set(joins[j])),
                           keys[i] == keys[j]) for i, j in mask_pairs(bad))
    # (Hj3) on point classes with block traces, (Hj4) dually; a class's
    # traces are read from the incidences of its own members
    projective = npoints == order * order + order + 1
    for tag, keys, incident in (("Hj3", point_keys, through),
                                ("Hj4", block_keys, blocks)):
        classes = {}
        for i, key in enumerate(keys):
            classes.setdefault(key, []).append(i)
        for key, cls in classes.items():
            traces = defaultdict(set)
            for i in cls:
                for d in incident[i]:
                    traces[d].add(i)
            traces = {frozenset(tr) for tr in traces.values()
                      if len(tr) >= 2}
            if projective:
                ok = len(cls) == 1 and not traces
            else:
                ok = is_affine_plane(cls, traces, order)
            if not ok:
                violations.append((tag, key))
    report = {"order": order, "violations": violations}
    for tag in ("Hj1", "Hj2", "Hj3", "Hj4"):
        report[tag.lower()] = all(v[0] != tag for v in violations)
    report["ok"] = not violations
    return report


def verify_hjelmslev_level2(plane):
    """(Hj1)-(Hj4) for the plane, with neighbour classes from the tilde map."""
    A, B = plane.algebra, plane.base
    return check_hjelmslev(len(plane.points), plane.points_on,
                           plane.point_keys,
                           [tilde_triple(A, B, l) for l in plane.lines],
                           B.size())


def nonneighbouring_point_line_consistency(plane):
    """A point P and line L are non-neighbouring iff P is non-neighbouring
    with every point on L.  Returns (ok, (p, l)) with the first failing
    point and line."""
    keys = plane.point_keys
    for li, l in enumerate(plane.lines):
        on_keys = {keys[i] for i in plane.points_on[li]}
        for p, key in zip(plane.points, keys):
            direct = not plane.point_line_neighbouring(p, l)
            if direct != (key not in on_keys):
                return False, (p, l)
    return True, None
