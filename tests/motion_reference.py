"""Reference checks of lifted motions, for the tests.

The package certifies a lift M_g point by point against the plane map
(`motions.verify_equivariance`).  `lift_stabilizes_points` reads the
lift off a point set alone: whether M_g maps the set onto itself.  The
package assembles the lift of phi(X, Y) from per-element blocks of the
element tables (`motions.linear_lift`); `linear_lift_by_images` applies
the defining formula to every unit vector with the coordinate operations
of the algebra instead."""

from ringgeom import motions as mo
from ringgeom import projective as pj


def lift_stabilizes_points(lift_matrix, field, points):
    """Whether a set of points (X or the vertex space Y) is preserved."""
    pts = set(points)
    return {pj.apply_matrix(field, lift_matrix, p) for p in pts} == pts


def linear_lift_by_images(A, kind, X=None, Y=None):
    """Matrix of phi(X, Y) or of the triality shuffle, acting on row
    vectors in the (x, y, z; xi, ups, zeta) block coordinates: the image
    of each unit vector, by the coordinate operations of A."""
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
        raise mo.MotionError("unknown lift kind %r" % kind)
    return [tuple(image(e)) for e in pj.unit_vectors(field, n)]
