"""Collineations of G(2, A): the two elation families and the triality
map, their induced linear action on the ambient projective space of the
Veronese variety, and orbits of permutation groups by closure.

The conjugates of the elations under the triality map are obtained by
map composition, never by re-derived formulas.  The generators are
certified once (`generator_certificate`): the tube transport of
`veronese.build_variety` uses that certificate, and the motion report of
`cli.motion_checks` is that certificate.

The maps act on plane points and lines as the plane holds them, by the
element ranks of A, through its element tables (`algebras.ElementTables`);
elation parameters, names and lift arguments stay coordinate tuples.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from . import RinggeomError
from . import hjplane as hp
from . import projective as pj


class MotionError(RinggeomError):
    pass


@dataclass
class PlaneMap:
    name: str
    apply_point: object       # plane point -> plane point
    apply_line: object        # line -> line


def compose(f, g):
    """f after g."""
    return PlaneMap("%s*%s" % (f.name, g.name),
                    lambda p: f.apply_point(g.apply_point(p)),
                    lambda l: f.apply_line(g.apply_line(l)))


def elation(A, kind, param):
    """phi_23(Y) (center (0,1,0), axis [0,0,1]) or phi_13(X) (center
    (1,0,0), same axis), by the explicit case formulas on element ranks
    (`algebras.ElementTables`); param is a coordinate tuple."""
    T = A.tables
    add, sub, mul, conj = T.add, T.sub, T.mul, T.conj
    t_mul, t_slot = T.t_mul, T.t_slot
    if kind == "phi23":
        Y = T.index[param]
        Yc = conj[Y]

        def pmap(p):
            _, tag, x, y, z = p
            if tag == 0:
                return ("P", 0, x, add[y][Y], z)
            if tag == 1:
                # sign differs from the printed formula: the plus is forced
                # by incidence preservation and the lift equivariance
                corr = t_mul[mul[Yc][t_slot[z]]]
                return ("P", 1, x, add[y][corr], z)
            return p

        def lmap(l):
            _, tag, a, b, c = l
            if tag == 0:
                return ("L", 0, a, b, sub[c][Y])
            if tag == 1:
                corr = t_mul[mul[Y][t_slot[b]]]
                return ("L", 1, a, b, sub[c][corr])
            return l
        return PlaneMap("phi23(%s)" % A.label(param), pmap, lmap)
    if kind == "phi13":
        X = T.index[param]
        Xc = conj[X]

        def pmap(p):
            _, tag, x, y, z = p
            if tag == 0:
                return ("P", 0, add[x][X], y, z)
            if tag == 1:
                corr = t_mul[mul[mul[Xc][conj[y]]][t_slot[z]]]
                return ("P", 1, x, sub[y][corr], z)
            corr = t_mul[mul[Xc][t_slot[z]]]
            return ("P", 2, add[x][corr], y, z)

        def lmap(l):
            _, tag, a, b, c = l
            if tag == 0:
                return ("L", 0, a, b, sub[c][mul[a][X]])
            if tag == 1:
                return ("L", 1, a, b, sub[c][X])
            return l
        return PlaneMap("phi13(%s)" % A.label(param), pmap, lmap)
    raise MotionError("unknown elation kind %r" % kind)


def triality(A):
    """The order-3 map with inverse tau^2; total case dispatch on element
    ranks."""
    T = A.tables
    one, mul, conj, inverse = T.one, T.mul, T.conj, T.inverse
    t_mul, t_slot, t_multiple = T.t_mul, T.t_slot, T.t_multiple

    def pmap(p):
        _, tag, x, y, z = p
        if tag == 0:
            if not t_multiple[y]:
                yi = inverse[y]
                return ("P", 0, yi, mul[x][yi], one)
            return ("P", 1, one, x, y)
        if tag == 1:
            if not t_multiple[y]:
                yi = inverse[y]
                return ("P", 0, t_mul[mul[yi][t_slot[z]]], yi, one)
            return ("P", 2, z, one, y)
        return ("P", 0, z, x, one)

    def lmap(l):
        _, tag, a, b, c = l
        if tag == 0:
            if not t_multiple[a]:
                ai = inverse[a]
                return ("L", 0, mul[ai][c], one, ai)
            if not t_multiple[c]:
                ci = inverse[c]
                return ("L", 1, one, t_mul[mul[conj[ci]][t_slot[a]]], ci)
            return ("L", 2, c, a, one)
        if tag == 1:
            return ("L", 0, c, one, b)
        return ("L", 1, one, a, b)
    return PlaneMap("tau", pmap, lmap)


def materialize(plane_map, plane):
    """Point and line permutations as index tuples; checks bijectivity."""
    perms = []
    for kind, objs, index, apply in (
            ("point", plane.points, plane.point_index, plane_map.apply_point),
            ("line", plane.lines, plane.line_index, plane_map.apply_line)):
        perm = [index.get(img) for img in map(apply, objs)]
        if None in perm:
            img = apply(objs[perm.index(None)])
            raise MotionError("image %r is not a plane %s"
                              % (hp.coords(plane.algebra, img), kind))
        perms.append(tuple(perm))
    if any(len(set(perm)) != len(perm) for perm in perms):
        raise MotionError("map is not bijective")
    return tuple(perms)


def perms_preserve_incidence(pperm, lperm, plane):
    """(ok, (point, line)) for materialized point and line permutations."""
    for li, on in enumerate(plane.points_on):
        img_set = set(plane.points_on[lperm[li]])
        for pi in on:
            if pperm[pi] not in img_set:
                return False, (pi, li)
    return True, None


def perm_preserves_neighbouring(pperm, plane):
    """(ok, (i, j)): i ~ j iff pperm[i] ~ pperm[j] for all point pairs,
    decided from one neighbour key per point; a witness pair i < j has
    different neighbour status before and after the map."""
    keys = plane.point_keys
    pair = hp.partition_mismatch(keys, [keys[k] for k in pperm])
    return pair is None, pair


# --------------------------------------------------------------------------
# linear lifts on PG(3d+2, K)

LiftBlocks = namedtuple("LiftBlocks", "norm coords conj tr trc mc cm")


def lift_blocks(A, a):
    """What the element of rank a puts into the lift of phi(X, Y) as X or
    as Y (`linear_lift`), by table lookups: N(a), the coordinates of a
    and of conj(a), and for each basis element e_j the scalars T(a e_j)
    (tr) and T(a conj(e_j)) (trc) and the coordinates of a conj(e_j) (mc)
    and of conj(e_j) conj(a) (cm)."""
    T = A.tables
    elems, mul, conj, trace = T.elems, T.mul, T.conj, T.trace
    row, ca = mul[a], conj[a]
    cb = [conj[e] for e in T.basis]
    return LiftBlocks(T.norm[a], elems[a], elems[ca],
                      tuple(trace[row[e]] for e in T.basis),
                      tuple(trace[row[c]] for c in cb),
                      tuple(elems[row[c]] for c in cb),
                      tuple(elems[mul[c][ca]] for c in cb))


def linear_lift(A, kind, X=None, Y=None):
    """Matrix of phi(X, Y) or of the triality shuffle, acting on row
    vectors in the (x, y, z; xi, ups, zeta) block coordinates; X and Y
    are coordinate tuples, zero if None.

    tau:  (x, y, z; xi, ups, zeta) -> (z, x, y; zeta, xi, ups).
    phi:  (x, y, z; xi, ups, zeta) ->
          (x + T(X ups) + N(X) z, y + T(Y conj(xi)) + N(Y) z, z;
           xi + z Y, ups + z conj(X),
           zeta + conj(ups) conj(Y) + X conj(xi) + z X conj(Y)).

    Both are linear, so the row of a unit vector is its image: the rows
    of z, xi = e_j and ups = e_j are read off the blocks of X and Y
    (`lift_blocks`) and the product X conj(Y); x, y and zeta are fixed."""
    field, m = A.field, A.dim
    unit = pj.unit_vectors(field, 3 * m + 3)
    if kind == "tau":
        return [unit[i] for i in [1, 2, 0] + list(range(3 + m, 3 + 3 * m))
                + list(range(3, 3 + m))]
    if kind != "phi":
        raise MotionError("unknown lift kind %r" % kind)
    T = A.tables
    x, y = (0 if a is None else T.index[a] for a in (X, Y))
    bx, by = lift_blocks(A, x), lift_blocks(A, y)
    zero = (field.zero,)
    o, eye = zero * m, pj.unit_vectors(field, m)
    return (unit[:2]
            + [(bx.norm, by.norm, field.one) + by.coords + bx.conj
               + T.elems[T.mul[x][T.conj[y]]]]
            + [zero + (by.trc[j],) + zero + eye[j] + o + bx.mc[j]
               for j in range(m)]
            + [(bx.tr[j],) + zero * 2 + o + eye[j] + by.cm[j]
               for j in range(m)]
            + unit[3 + 2 * m:])


def motion_lift(A, kind, param=None):
    """The lift of tau or of the elation phi13(param) or phi23(param)."""
    if kind == "tau":
        return linear_lift(A, "tau")
    if kind == "phi13":
        return linear_lift(A, "phi", X=param)
    return linear_lift(A, "phi", Y=param)


def verify_equivariance(field, lift_matrix, pperm, points):
    """rho(g p_i) = rho(p_i) M_g as projective points for every plane
    point p_i, applying the lift once per point; pperm is g's materialised
    point permutation (g p_i = p_pperm[i]) and points[i] = rho(p_i), the
    list X in plane point order.  M_g then maps X onto X: its image is
    {points[pperm[i]]}, all of X since g is a bijection and rho is
    injective.  Returns (ok, i): i is the first index where equivariance
    fails, else None."""
    for i, x in enumerate(points):
        if pj.apply_matrix(field, lift_matrix, x) != points[pperm[i]]:
            return False, i
    return True, None


@dataclass
class Generator:
    """A generator g with its certificate: its point and line permutations
    (None if g is not a plane bijection, with the MotionError that says
    so), its lift M_g, packed once (`pj.Matrix`), and whether g keeps
    incidence and equivariance."""
    key: tuple                # ("tau", None) or (elation kind, parameter)
    name: str
    lift: pj.Matrix
    perms: tuple = None
    error: MotionError = None
    incidence: bool = False
    equivariant: bool = False

    @property
    def certified(self):
        return self.incidence and self.equivariant


def generator_certificate(A, plane, points):
    """tau, then phi23(e), then phi13(e) for e in the F_p-basis {p^j e_i}
    of A, each with its certificate (`Generator`); points is X in plane
    point order.  A map that is not a plane bijection keeps its
    MotionError and no verdicts."""
    field = A.field
    basis = [A.scale(field.p ** j, A.basis(i))
             for i in range(A.dim) for j in range(field.k)]
    out = []
    for kind, e in [("tau", None)] + [(k, e) for k in ("phi23", "phi13")
                                      for e in basis]:
        g = triality(A) if kind == "tau" else elation(A, kind, e)
        gen = Generator((kind, e), g.name,
                        pj.Matrix(field, motion_lift(A, kind, e)))
        try:
            gen.perms = materialize(g, plane)
        except MotionError as err:
            gen.error = err
        else:
            pperm, lperm = gen.perms
            gen.incidence = perms_preserve_incidence(pperm, lperm, plane)[0]
            gen.equivariant = verify_equivariance(field, gen.lift, pperm,
                                                  points)[0]
        out.append(gen)
    return out


# --------------------------------------------------------------------------
# permutation groups

def perm_mul(p, q):
    """(p*q)(i) = p[q[i]]."""
    return tuple(map(p.__getitem__, q))


def orbit(start, gens, act):
    """Orbit of `start` under the generators, by breadth-first closure;
    act(x, g) is the image of x under g.  Returns a dict, in breadth-first
    insertion order, from each element reached to the (element,
    generator) it was first reached from, None for `start`."""
    reached = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in reached:
                    reached[y] = x, g
                    new.append(y)
        frontier = new
    return reached


def point_orbit(generators, start):
    """Orbit of a domain point under permutation generators."""
    return orbit(start, generators, lambda x, g: g[x])


def pair_orbit(generators, pair):
    """Orbit of an unordered point pair under permutation generators."""
    return orbit(tuple(sorted(pair)), generators,
                 lambda p, g: tuple(sorted((g[p[0]], g[p[1]]))))
