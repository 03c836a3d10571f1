"""Collineations of G(2, A): the two elation families and the triality
map, their induced linear action on the ambient projective space of the
Veronese variety, and orbits of permutation groups by closure.

The conjugates of the elations under the triality map are obtained by
map composition, never by re-derived formulas.  The generators are
certified once (`generator_certificate`): the tube transport of
`veronese.build_variety` uses that certificate, and the motion report of
`cli.motion_checks` is that certificate.
"""

from __future__ import annotations

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


def _is_t_multiple(A, a):
    if A.radical_t:
        return all(c == A.field.zero for c in A.b_part(a))
    return a == A.zero()


def _t_mul(A, a):
    """t * a (kills the t-part of a)."""
    return A.t_times(A.b_part(a)) if A.radical_t else A.zero()


def _t_slot(A, a):
    """b as an element of A, for a template slot holding a = t*b."""
    if not A.radical_t:
        return A.zero()
    return A.embed_b(A.t_part(a))


def elation(A, kind, param):
    """phi_23(Y) (center (0,1,0), axis [0,0,1]) or phi_13(X) (center
    (1,0,0), same axis), by the explicit case formulas."""
    if kind == "phi23":
        Y = param
        Yc = A.conj(Y)

        def pmap(p):
            _, tag, x, y, z = p
            if tag == 0:
                return ("P", 0, x, A.add(y, Y), z)
            if tag == 1:
                # sign differs from the printed formula: the plus is forced
                # by incidence preservation and the lift equivariance
                corr = _t_mul(A, A.mul(Yc, _t_slot(A, z)))
                return ("P", 1, x, A.add(y, corr), z)
            return p

        def lmap(l):
            _, tag, a, b, c = l
            if tag == 0:
                return ("L", 0, a, b, A.sub(c, Y))
            if tag == 1:
                corr = _t_mul(A, A.mul(Y, _t_slot(A, b)))
                return ("L", 1, a, b, A.sub(c, corr))
            return l
        return PlaneMap("phi23(%s)" % A.label(Y), pmap, lmap)
    if kind == "phi13":
        X = param
        Xc = A.conj(X)

        def pmap(p):
            _, tag, x, y, z = p
            if tag == 0:
                return ("P", 0, A.add(x, X), y, z)
            if tag == 1:
                corr = _t_mul(A, A.mul(A.mul(Xc, A.conj(y)), _t_slot(A, z)))
                return ("P", 1, x, A.sub(y, corr), z)
            corr = _t_mul(A, A.mul(Xc, _t_slot(A, z)))
            return ("P", 2, A.add(x, corr), y, z)

        def lmap(l):
            _, tag, a, b, c = l
            if tag == 0:
                return ("L", 0, a, b, A.sub(c, A.mul(a, X)))
            if tag == 1:
                return ("L", 1, a, b, A.sub(c, X))
            return l
        return PlaneMap("phi13(%s)" % A.label(X), pmap, lmap)
    raise MotionError("unknown elation kind %r" % kind)


def triality(A):
    """The order-3 map with inverse tau^2; total case dispatch."""
    one = A.one()

    def pmap(p):
        _, tag, x, y, z = p
        if tag == 0:
            if not _is_t_multiple(A, y):
                yi = A.inverse(y)
                return ("P", 0, yi, A.mul(x, yi), one)
            return ("P", 1, one, x, y)
        if tag == 1:
            if not _is_t_multiple(A, y):
                yi = A.inverse(y)
                return ("P", 0, _t_mul(A, A.mul(yi, _t_slot(A, z))), yi, one)
            return ("P", 2, z, one, y)
        return ("P", 0, z, x, one)

    def lmap(l):
        _, tag, a, b, c = l
        if tag == 0:
            if not _is_t_multiple(A, a):
                ai = A.inverse(a)
                return ("L", 0, A.mul(ai, c), one, ai)
            if not _is_t_multiple(A, c):
                ci = A.inverse(c)
                return ("L", 1, one,
                        _t_mul(A, A.mul(A.conj(ci), _t_slot(A, a))), ci)
            return ("L", 2, c, a, one)
        if tag == 1:
            return ("L", 0, c, one, b)
        return ("L", 1, one, a, b)
    return PlaneMap("tau", pmap, lmap)


def materialize(plane_map, plane):
    """Point and line permutations as index tuples; checks bijectivity."""
    pperm = []
    for p in plane.points:
        q = plane_map.apply_point(p)
        if q not in plane.point_index:
            raise MotionError("image %r is not a plane point" % (q,))
        pperm.append(plane.point_index[q])
    lperm = []
    for l in plane.lines:
        m = plane_map.apply_line(l)
        if m not in plane.line_index:
            raise MotionError("image %r is not a plane line" % (m,))
        lperm.append(plane.line_index[m])
    if len(set(pperm)) != len(pperm) or len(set(lperm)) != len(lperm):
        raise MotionError("map is not bijective")
    return tuple(pperm), tuple(lperm)


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

def linear_lift(A, kind, X=None, Y=None):
    """Matrix of phi(X, Y) or of the triality shuffle, acting on row
    vectors in the (x, y, z; xi, ups, zeta) block coordinates."""
    field = A.field
    m = A.dim
    n = 3 * m + 3
    zero = A.zero()
    X = X if X is not None else zero
    Y = Y if Y is not None else zero

    def unpack(v):
        return (v[0], v[1], v[2], tuple(v[3:3 + m]),
                tuple(v[3 + m:3 + 2 * m]), tuple(v[3 + 2 * m:]))

    def pack(x, y, z, xi, ups, zeta):
        return (x, y, z) + tuple(xi) + tuple(ups) + tuple(zeta)

    if kind == "tau":
        def image(v):
            x, y, z, xi, ups, zeta = unpack(v)
            return pack(z, x, y, zeta, xi, ups)
    elif kind == "phi":
        Xc, Yc = A.conj(X), A.conj(Y)
        nX, nY = A.norm(X), A.norm(Y)
        XYc = A.mul(X, Yc)

        def image(v):
            x, y, z, xi, ups, zeta = unpack(v)
            xq = field.add(x, field.add(A.trace(A.mul(X, ups)),
                                        field.mul(nX, z)))
            yq = field.add(y, field.add(A.trace(A.mul(Y, A.conj(xi))),
                                        field.mul(nY, z)))
            xi_q = A.add(xi, A.scale(z, Y))
            ups_q = A.add(ups, A.scale(z, Xc))
            zeta_q = A.add(zeta, A.add(A.mul(A.conj(ups), Yc),
                                       A.add(A.mul(X, A.conj(xi)),
                                             A.scale(z, XYc))))
            return pack(xq, yq, z, xi_q, ups_q, zeta_q)
    else:
        raise MotionError("unknown lift kind %r" % kind)
    return [tuple(image(e)) for e in pj.unit_vectors(field, n)]


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
    so), its lift M_g, and whether g keeps incidence and equivariance."""
    key: tuple                # ("tau", None) or (elation kind, parameter)
    name: str
    lift: list
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
        gen = Generator((kind, e), g.name, motion_lift(A, kind, e))
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
    return tuple(p[i] for i in q)


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
