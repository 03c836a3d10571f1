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
    lines_through: list  # per point index
    point_index: dict
    line_index: dict
    point_keys: list     # per point index: its neighbour key, tilde_triple

    def incident(self, p, l):
        return incidence_value(self.algebra, p, l) == self.algebra.zero()

    def point_neighbouring(self, p, q):
        return tilde_triple(self.algebra, self.base, p) == \
            tilde_triple(self.algebra, self.base, q)

    def point_line_neighbouring(self, p, l):
        v = incidence_value(self.algebra, p, l)
        return all(x == self.algebra.field.zero
                   for x in self.algebra.b_part(v))


def incidence_value(A, point, line):
    _, _, x, y, z = point
    _, _, a, b, c = line
    return A.add(A.add(A.mul(a, x), A.mul(b, y)), A.mul(c, z))


def tilde_triple(A, B, obj):
    _, _, u, v, w = obj
    if not A.base_dim or A.dim == B.dim:
        return (u, v, w)
    return (A.b_part(u), A.b_part(v), A.b_part(w))


def build_plane(A):
    """Enumerate G(2, A) with constructive per-line point lists."""
    B, is_cd = extract_base(A)
    one, zero = A.one(), A.zero()
    a_elems = A.elements()
    if is_cd:
        b_elems = B.elements()
        t_of = A.t_times
    else:
        b_elems = [B.zero()]
        t_of = lambda _b: zero

    points = []
    for x in a_elems:
        for y in a_elems:
            points.append(("P", 0, x, y, one))
    for y in a_elems:
        for z1 in b_elems:
            points.append(("P", 1, one, y, t_of(z1)))
    for x1 in b_elems:
        for z1 in b_elems:
            points.append(("P", 2, t_of(x1), one, t_of(z1)))

    lines = []
    for a in a_elems:
        for c in a_elems:
            lines.append(("L", 0, a, one, c))
    for b1 in b_elems:
        for c in a_elems:
            lines.append(("L", 1, one, t_of(b1), c))
    for a1 in b_elems:
        for b1 in b_elems:
            lines.append(("L", 2, t_of(a1), t_of(b1), one))

    point_index = {p: i for i, p in enumerate(points)}
    line_index = {l: i for i, l in enumerate(lines)}
    if len(point_index) != len(points) or len(line_index) != len(lines):
        raise PlaneError("template enumeration produced duplicates")

    points_on = [line_point_list(A, B, is_cd, l, point_index)
                 for l in lines]
    lines_through = [[] for _ in points]
    for li, pts in enumerate(points_on):
        for pi in pts:
            lines_through[pi].append(li)
    return IncidenceStructure(A, B, is_cd, points, lines, points_on,
                              lines_through, point_index, line_index,
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


def line_point_list(A, B, is_cd, line, point_index):
    """Solve a*x + b*y + c*z = 0 template by template."""
    one, zero = A.one(), A.zero()
    b_elems = B.elements() if is_cd else [B.zero()]
    t_of = A.t_times if is_cd else (lambda _b: zero)
    _, tag, a, b, c = line
    out = []

    def emit(p):
        out.append(point_index[p])

    if tag == 0:
        # [a,1,c]: affine points with free x; mid points with free z1
        for x in A.elements():
            y = A.neg(A.add(A.mul(a, x), c))
            emit(("P", 0, x, y, one))
        for z1 in b_elems:
            tz = t_of(z1)
            y = A.neg(A.add(a, A.mul(c, tz)))
            emit(("P", 1, one, y, tz))
    elif tag == 1:
        # [1, tb1, c]: affine points with free y; deep points with free z1
        for y in A.elements():
            x = A.neg(A.add(A.mul(b, y), c))
            emit(("P", 0, x, y, one))
        for z1 in b_elems:
            tz = t_of(z1)
            v = A.add(b, A.mul(c, tz))
            emit(("P", 2, A.neg(v), one, tz))
    else:
        # [ta1, tb1, 1]: mid points with free y; deep points with free x1
        for y in A.elements():
            tz = A.neg(A.add(a, A.mul(b, y)))
            emit(("P", 1, one, y, tz))
        for x1 in b_elems:
            tx = t_of(x1)
            emit(("P", 2, tx, one, A.neg(b)))
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
    zero_b = B.zero()
    one_b = B.one()

    def tilde_point(p):
        _, tag, x, y, z = p
        if tag == 0:
            return ("P", 0, A.b_part(x), A.b_part(y), one_b)
        if tag == 1:
            return ("P", 1, one_b, A.b_part(y), zero_b)
        return ("P", 2, zero_b, one_b, zero_b)

    def tilde_line(l):
        _, tag, a, b, c = l
        if tag == 0:
            return ("L", 0, A.b_part(a), one_b, A.b_part(c))
        if tag == 1:
            return ("L", 1, one_b, zero_b, A.b_part(c))
        return ("L", 2, zero_b, zero_b, one_b)

    point_map = {p: tilde_point(p) for p in plane.points}
    line_map = {l: tilde_line(l) for l in plane.lines}
    for p, img in point_map.items():
        if img not in residue.point_index:
            raise PlaneError("tilde image %r is not a residue point" % (img,))
    for l, img in line_map.items():
        if img not in residue.line_index:
            raise PlaneError("tilde image %r is not a residue line" % (img,))
    return point_map, line_map, residue


def pair_meets(sets):
    """For each i in order, the dict j -> list of the elements shared by
    sets i and j, over the j > i whose set meets set i.  The walk is over
    one index from each element to the sets holding it, so the work is
    the sum of the intersection sizes, not pairs x set size."""
    holders = defaultdict(list)         # element -> holders, last first
    for i in range(len(sets) - 1, -1, -1):
        for e in sets[i]:
            holders[e].append(i)
    for s in sets:
        meets = defaultdict(list)
        for e in s:
            later = holders[e]
            later.pop()                 # set i itself, the first holder left
            for j in later:
                meets[j].append(e)
        yield meets


def pair_violations(sets, verdict, skip_disjoint=False):
    """The violations verdict(i, j, shared) returns (None for none) over
    the pairs i < j of `sets` in order; shared lists the common elements,
    () for a disjoint pair, and skip_disjoint leaves disjoint pairs out."""
    n = len(sets)
    for i, meets in enumerate(pair_meets(sets)):
        bad = [(j, v) for j, shared in meets.items()
               if (v := verdict(i, j, shared)) is not None]
        if not skip_disjoint and len(meets) < n - 1 - i:
            bad += [(j, v) for j in range(i + 1, n) if j not in meets
                    and (v := verdict(i, j, ())) is not None]
        bad.sort(key=lambda jv: jv[0])
        yield from (v for _, v in bad)


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
    return all(len(shared) == 1 for meets in pair_meets(lines)
               for shared in meets.values())


def check_hjelmslev(npoints, blocks, point_keys, block_keys, order):
    """Check (Hj1)-(Hj4); returns a dict report with any violations.

    Points are 0..npoints-1 and blocks are point-index tuples.  Two points
    (blocks) are neighbours iff their keys are equal.  The neighbour
    classes must be affine planes of order `order`, with the traces of the
    blocks (of the points) as lines; a structure of order^2 + order + 1
    points is an ordinary projective plane, whose classes are single
    elements without traces."""
    blocks = [set(b) for b in blocks]
    through = [set() for _ in range(npoints)]
    for bi, b in enumerate(blocks):
        for pi in b:
            through[pi].add(bi)
    violations = []
    # (Hj1) on points and (Hj2) on blocks: two elements are joined by
    # exactly one element iff they are not neighbours, and by at least one
    for tag, joins, keys in (("Hj1", through, point_keys),
                             ("Hj2", blocks, block_keys)):
        def verdict(i, j, common):
            nb = keys[i] == keys[j]
            if not common or (len(common) == 1) == nb:
                return tag, i, j, len(common), nb
        violations.extend(pair_violations(joins, verdict))
    # (Hj3) on point classes with block traces, (Hj4) dually
    projective = npoints == order * order + order + 1
    for tag, keys, duals in (("Hj3", point_keys, blocks),
                             ("Hj4", block_keys, through)):
        classes = {}
        for i, key in enumerate(keys):
            classes.setdefault(key, []).append(i)
        for key, cls in classes.items():
            cset = set(cls)
            traces = {frozenset(tr) for tr in (d & cset for d in duals)
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
    with every point on L."""
    keys = plane.point_keys
    for li, l in enumerate(plane.lines):
        on_keys = {keys[i] for i in plane.points_on[li]}
        for p, key in zip(plane.points, keys):
            direct = not plane.point_line_neighbouring(p, l)
            if direct != (key not in on_keys):
                return False, (p, l)
    return True, None
