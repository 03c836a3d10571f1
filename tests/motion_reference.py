"""Reference checks of lifted motions by enumeration, for the tests.

The package certifies a lift M_g point by point against the plane map
(`motions.verify_equivariance`).  The reference here reads the lift off
a point set alone: whether M_g maps the set onto itself."""

from ringgeom import projective as pj


def lift_stabilizes_points(lift_matrix, field, points):
    """Whether a set of points (X or the vertex space Y) is preserved."""
    pts = set(points)
    return {pj.apply_matrix(field, lift_matrix, p) for p in pts} == pts
