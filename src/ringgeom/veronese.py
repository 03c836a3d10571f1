"""The Veronese map on G(2, A), variety assembly, tube extraction and
transport, and all axiom verifiers: (H1), (H2*), (H2), (H3), (V), (MM1),
(MM2*), the vertex space Y with its spread, the projection to the
nondegenerate part, the connection duality, the local structure at a
vertex, and the 13-space counterexample construction.

A tube is built from point-set data, never from the algebraic
parametrization, in one of two ways.  Extraction (`extract_tube`)
recomputes X(xi) = X intersect xi by membership and reconstructs the
cone by quadric fitting, so the same code verifies hand-built or
projected varieties.  A fitted form is accepted by its class (vertex,
nondegenerate dimension, Witt index) and the zero count that follows
from it, not by evaluating it on xi.  Transport (`transport_tube`)
carries a tube along a lift: a collineation g of the plane with a linear
map M_g such that rho(g p) = rho(p) M_g at every plane point, which
`mo.generator_certificate` checks point by point before `build_variety`
uses the lift; the motion report of `cli.motion_checks` is that
certificate.  Such an M_g is a linear collineation that maps X onto X
and xi(L) = <rho(L)> onto xi(gL), so it carries X(xi(L)) onto X(xi(gL))
and with it the pencil of quadrics through X(xi): each form's class,
vertex and zero set.  The cone fitted on xi(L), composed with M_g^-1, is
the cone that fitting would accept on xi(gL), with the same fit count,
base Witt index and ovoid verdict; its form is built only when read
(`Tube.form`), by (H3)'s tangent spaces and dumps.  Every transported
tube's X(xi) is still recomputed by membership and compared with the
line image.

Point sets are sets of packed rows (`fields`, `field.pack`): the points
of each tubic space, of the vertex and of each generator, and the keys
of `Variety.point_index` and `point_set`.  Packed rows sort as the
coordinate tuples do, so every sorted order, minimum and first witness
is the tuples' one; a point is unpacked (`field.unpack`) only where it
is used as a vector.  A tube keeps only what it cannot derive: X(xi) is
the index tuple `x_idx`, and the cone inside xi is X(xi) plus the
vertex.

There is one projection from a subspace K, `Subspace.project`: the
residual of a vector against K's echelon rows, normalized, which
projects along K onto the coordinates off its pivots.  The tube bases
(`_analyze_base`), the pencils of chi taken modulo a vertex
(`sc.member_parameters`) and rho_V at a vertex
(`local_structure_at_vertex`) use it, since what they decide (which
points share an image, ovoid, regularity, cross-ratio, the scroll
quadrics) is the same on every complement of K.  Only `project_from_y`
projects onto a given target F (`pj.Projection`): its claims that
F meet X is the projection of X and that X is the union of the
<x', chi(x')> minus chi(x') are about the images as points of F.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field

from . import motions as mo
from . import projective as pj
from . import scrolls as sc
from .projective import (Subspace, span, meet, normalize_point, rref,
                         GeometryError, intrinsic_coords, from_intrinsic,
                         Projection, is_ovoid)
from .hjplane import (build_plane, is_affine_plane, check_hjelmslev,
                      partition_mismatch, holder_masks,
                      shared_elements, pair_masks, bits, mask_pairs,
                      later_bits, epimorphism_to_residue, coords)


class _CarriedForm:
    """`Tube.form`, given to an extracted tube.  A transported tube builds
    it on first read from its source tube's form Q and D^-1 (`carried`):
    y in xi' is the image of y D^-1, so the form is Q(y D^-1), normalized.
    `carried` is dropped once the form is built, freeing D^-1 and the
    hold on the source tube."""

    def __get__(self, tube, _owner=None):
        if tube is not None and tube._form is None:
            source, back = tube.carried
            f = pj.form_on_basis(tube.xi.field, source.form.evaluate, back)
            tube._form = pj.QuadraticForm(f.field, f.n, normalize_point(
                f.field, f.coeffs))
            tube.carried = None
        return None if tube is None else tube._form

    def __set__(self, tube, form):
        tube._form = form


@dataclass
class Tube:
    index: int
    xi: Subspace
    xi_pts: frozenset         # packed rows of the points of xi
    x_idx: tuple              # X(xi), as indices into the variety points
    fit_count: int            # accepted cone varieties through X(xi)
    pencil_size: int          # forms of the pencil through X(xi), each
                              # classified once when fitting
    vertex: Subspace          # ambient
    vertex_pts: frozenset     # packed rows of the vertex points; the cone
                              # inside xi is X(xi) plus these
    v: int                    # vertex projective dimension (-1 if empty)
    d_base: int               # tangent-hyperplane dimension of the base
    base_witt: int
    base_ovoid: bool
    generators: tuple         # frozensets of packed rows, one per
                              # generator
    form: object = _CarriedForm()   # accepted quadratic form, xi-intrinsic
    carried: tuple = dc_field(default=None, compare=False, repr=False)


@dataclass
class Variety:
    field: object
    n: int                    # ambient vector dimension
    points: list              # X, as vectors; in plane point order when built
    point_index: dict         # packed row -> index into points
    point_set: frozenset      # packed rows of X
    tubes: list
    tubes_through: list
    algebra: object = None
    plane: object = None
    certificate: list = None  # mo.Generator per generator of the motions
    stats: dict = dc_field(default_factory=dict)    # deterministic sizes
    timings: dict = dc_field(default_factory=dict)  # seconds per stage

    @property
    def ambient_pdim(self):
        return self.n - 1

    def blocks(self):
        return [t.x_idx for t in self.tubes]

    def vertices(self):
        """The distinct tube vertices, in tube order."""
        return list(dict.fromkeys(t.vertex for t in self.tubes))


def veronese_point(A, plane_point):
    """rho(x, y, z) = (x conj(x), y conj(y), z conj(z); y conj(z),
    z conj(x), x conj(y)) as a normalized point of PG(3d+2, K), from the
    norm, conj and mul tables of A; the plane point holds element
    ranks."""
    _, _, x, y, z = plane_point
    T = A.tables
    mul, conj, elems = T.mul, T.conj, T.elems
    norms = (T.norm[x], T.norm[y], T.norm[z])
    if None in norms:
        raise GeometryError("norm is not scalar; algebra not quadratic")
    vec = (norms + elems[mul[y][conj[z]]] + elems[mul[z][conj[x]]]
           + elems[mul[x][conj[y]]])
    p = normalize_point(A.field, vec)
    if p is None:
        raise GeometryError("Veronese image of %r is zero"
                            % (coords(A, plane_point),))
    return p


def build_variety(A):
    """X = rho(P) and the tube of every line of G(2, A).

    The generators are certified first (`mo.generator_certificate`), and
    the certificate is kept on the variety for `cli.motion_checks` to
    report.  Then each line orbit of the certified generators is walked
    as `mo.orbit` records it: the tube at its root is extracted, and each
    edge from L by g carries the tube of L to the tube of gL
    (`transport_tube`), so there is one extraction per line orbit.  Every
    tube, however it was built, must carry exactly the line image in X."""
    clock = time.perf_counter
    t0 = clock()
    plane = build_plane(A)
    t1 = clock()
    field = A.field
    n = 3 * A.dim + 3
    points = [veronese_point(A, p) for p in plane.points]
    packed = [field.pack(x) for x in points]
    point_index = {b: i for i, b in enumerate(packed)}
    if len(point_index) != len(points):
        raise GeometryError("Veronese map is not injective on points")
    ambient_rank, _ = rref(field, points)
    if len(ambient_rank) != n:
        raise GeometryError("X does not span the ambient space")
    point_set = frozenset(packed)
    certificate = mo.generator_certificate(A, plane, points)
    moves = [g for g in certificate if g.certified]
    t2 = clock()

    tubes = [None] * len(plane.lines)
    extracted = tried = 0
    for start in range(len(plane.lines)):
        if tubes[start] is not None:
            continue
        walk = mo.orbit(start, moves, lambda li, g: g.perms[1][li])
        for li, edge in walk.items():
            if edge is None:
                tube = extract_tube(field, span(field, [
                    points[pi] for pi in plane.points_on[li]], n),
                    point_set, point_index, li)
                extracted += 1
                tried += tube.pencil_size
            else:
                parent, g = edge
                tube = transport_tube(field, tubes[parent], g.lift,
                                      g.perms[0], packed, point_set,
                                      point_index, li)
            if tube.x_idx != tuple(sorted(plane.points_on[li])):
                raise GeometryError("X meet xi is not the line image "
                                    "(line %d)" % li)
            tubes[li] = tube
    tubes_through = _tubes_through(len(points), tubes)
    # the certificate materializes tau and each generator elation once
    stats = {"algebra_elements": A.size(),
             "elations_materialized": len(certificate),
             "points": len(points), "tubes": len(tubes),
             "tubes_extracted": extracted,
             "tubes_transported": len(tubes) - extracted,
             "pencil_forms_tried": tried,
             "generators_certified": len(moves),
             "generators_refused": [g.name for g in certificate
                                    if not g.certified]}
    timings = {"plane_build": t1 - t0, "lift_certificates": t2 - t1,
               "tubes": clock() - t2}
    return Variety(field, n, points, point_index, point_set, tubes,
                   tubes_through, algebra=A, plane=plane,
                   certificate=certificate, stats=stats, timings=timings)


def build_synthetic_variety(field, n, points, xis):
    point_index = {field.pack(p): i for i, p in enumerate(points)}
    point_set = frozenset(point_index)
    tubes = [extract_tube(field, xi, point_set, point_index, i)
             for i, xi in enumerate(xis)]
    return Variety(field, n, list(points), point_index, point_set, tubes,
                   _tubes_through(len(points), tubes),
                   stats={"points": len(points), "tubes": len(tubes),
                          "tubes_extracted": len(tubes),
                          "pencil_forms_tried": sum(
                              t.pencil_size for t in tubes)})


def _tubes_through(npoints, tubes):
    through = [[] for _ in range(npoints)]
    for t in tubes:
        for pi in t.x_idx:
            through[pi].append(t.index)
    return through


def extract_tube(field, xi, point_set, point_index, index=0):
    """Reconstruct the cone on X(xi) = X intersect xi by quadric fitting.

    `build_variety` calls this once per line orbit of its certified
    generators; synthetic varieties call it for every tube.  Accepts
    exactly the forms through X(xi) whose zero set inside xi is X(xi)
    plus the form's own vertex, the vertex missing X.  No form is
    evaluated on xi (`pj.cone_forms`): a form through X(xi) vanishes on
    X(xi) and on its vertex, so its zero set is their union exactly when
    the vertex misses X(xi) and its class (vertex, nondegenerate
    dimension m, Witt index w) counts |X(xi)| + |vertex| zeros.  w is
    the number of hyperbolic planes split off around isotropic vectors,
    found by a Chevalley-Warning search over three coordinates.  Forms
    share a zero set iff they share a vertex; fit_count counts the
    distinct cones (expected one), and the form kept is the first, in
    pencil order, of the zero set that sorts first."""
    k = xi.vdim
    # xi.rows is in RREF, so c . rows is normalized and has coordinates c
    intr = dict(zip(xi.points(), pj.pg_parameters(field, k)))
    xi_pts = frozenset(intr)
    xs = sorted(xi_pts & point_set)
    if not xs:
        raise GeometryError("xi carries no points of X")
    x_intr = sorted(intr[p] for p in xs)
    x_packed = [field.pack(c) for c in x_intr]
    pencil_size, forms = pj.cone_forms(field, x_intr, k)
    accepted = {}
    for qf, vert, w in forms:
        accepted.setdefault(vert.rows, (qf, vert, w))
    if not accepted:
        raise GeometryError("no cone form matches X(xi) in tube %d" % index)
    fit_count = len(accepted)
    qf, vert_intr, base_witt = min(
        accepted.values(), key=lambda a: sorted(x_packed + a[1].points()))
    vertex = span(field, [from_intrinsic(xi, r) for r in vert_intr.rows],
                  xi.n)
    vertex_pts = frozenset(vertex.points())
    v = vertex.pdim
    d_base = xi.pdim - v - 2
    base_ovoid, generators = _analyze_base(field, xi, vert_intr, xs, intr)
    x_idx = tuple(sorted(point_index[p] for p in xs))
    return Tube(index, xi, xi_pts, x_idx, fit_count, pencil_size, vertex,
                vertex_pts, v, d_base, base_witt, base_ovoid, generators, qf)


def transport_tube(field, tube, lift, pperm, packed, point_set,
                   point_index, index):
    """The tube of gL from the tube of L, along a certified lift M_g of g
    with point permutation pperm (see the module docstring); `packed`
    are the packed rows of the variety's points.  xi' = xi . M_g with
    D^-1 from `_carried_basis`, its points enumerated from xi' and X(xi')
    read off them; the vertex is vertex . M_g.  The form is read on
    demand, from tube's form and D^-1 (`Tube.form`); the generators are
    mapped by pperm; pencil size, fit count, dimensions, base Witt index
    and ovoid verdict are kept."""
    xi, back = _carried_basis(field, tube.xi.rows, lift)
    # from a dict the set is sized once, to half the table that growing
    # it from a list leaves (as in extract_tube)
    xi_pts = frozenset(dict.fromkeys(xi.points()))
    vertex = span(field, [pj.vec_mat(field, r, lift)
                          for r in tube.vertex.rows], xi.n)
    vertex_pts = frozenset(vertex.points())
    move = {packed[i]: packed[pperm[i]] for i in tube.x_idx}
    generators = tuple(sorted((frozenset(map(move.__getitem__, g))
                               for g in tube.generators), key=min))
    x_idx = tuple(sorted(point_index[p] for p in xi_pts & point_set))
    return Tube(index, xi, xi_pts, x_idx, tube.fit_count, tube.pencil_size,
                vertex, vertex_pts, tube.v, tube.d_base, tube.base_witt,
                tube.base_ovoid, generators, carried=(tube, back))


def _carried_basis(field, rows, lift):
    """(xi', D^-1) for the independent rows of xi and the lift M: one
    elimination of [images | I], the images being rows . M.  Its left
    block is the echelon basis of xi' = <images>; its right block E has
    E . images = that basis, so E = D^-1 for D the xi'-intrinsic
    coordinates of the images."""
    n = len(rows[0])
    red, pivots = rref(field, [
        pj.vec_mat(field, r, lift) + e
        for r, e in zip(rows, pj.unit_vectors(field, len(rows)))])
    if pivots[-1] >= n:
        raise GeometryError("the lift is singular on xi")
    return Subspace(field, n, tuple(r[:n] for r in red)), [r[n:] for r in red]


def _analyze_base(field, xi, vert_intr, xs, intr):
    """Ovoid test and generators of the accepted cone, from the X points
    projected from the vertex inside xi (`Subspace.project`); a generator
    is the X points of one image.  The form vanishes on a complement of
    the vertex exactly on the projected points, so the base
    Witt index is w of the form's class, not read again here; `is_ovoid`
    tests the points by definition, independently of the class.  The
    generators are ordered by their least point."""
    if vert_intr.rows:
        base_map = {}
        for p in xs:
            base_map.setdefault(vert_intr.project(intr[p]), []).append(p)
        base_pts = sorted(base_map)
        generators = tuple(sorted(map(frozenset, base_map.values()),
                                  key=min))
    else:
        base_pts = [intr[p] for p in xs]
        generators = (frozenset(xs),)
    return is_ovoid(field, base_pts, span(field, base_pts, xi.vdim)), \
        generators


def variety_dump(variety):
    """JSON-friendly dump: points, the Xi bases, and the tube models."""
    field = variety.field
    return {
        "ambient": variety.ambient_pdim,
        "points": [pj.point_to_json(field, p) for p in variety.points],
        "xi": [pj.subspace_to_json(t.xi) for t in variety.tubes],
        "tubes": [{
            "x_points": sorted(t.x_idx),
            "vertex": pj.subspace_to_json(t.vertex),
            "v": t.v, "d": t.d_base,
            "base_witt": t.base_witt, "base_ovoid": t.base_ovoid,
            "form": pj.quadric_to_json(t.form) if t.form else None,
        } for t in variety.tubes],
    }


# --------------------------------------------------------------------------
# tangent spaces

def tube_tangent_space(variety, tube, point):
    """T_x(xi): kernel of b(x, .) inside xi, mapped to the ambient."""
    field = variety.field
    xc = intrinsic_coords(tube.xi, point)
    k = tube.xi.vdim
    ker = pj.nullspace(field, [tube.form.polar(xc)], k)
    return span(field, [from_intrinsic(tube.xi, r) for r in ker], tube.xi.n)


def tangent_space(variety, pi):
    """T_x = span of the tangent hyperplanes of all tubes through x."""
    field = variety.field
    x = variety.points[pi]
    rows = []
    for ti in variety.tubes_through[pi]:
        rows.extend(tube_tangent_space(variety, variety.tubes[ti], x).rows)
    return span(field, rows, variety.n)


# --------------------------------------------------------------------------
# axiom verifiers

def check_h1(variety):
    """Any two distinct points of X lie in at least one tube: per point,
    the OR of the bitmasks of the tubes through it is the full mask."""
    npts = len(variety.points)
    cover = [1 << i for i in range(npts)]
    for t in variety.tubes:
        mask = sum(1 << i for i in t.x_idx)
        for i in t.x_idx:
            cover[i] |= mask
    full = (1 << npts) - 1
    # bit k of gaps[i]: no tube holds the points i and i + k
    gaps = [(full & ~mask) >> i for i, mask in enumerate(cover)]
    missing = ((i, i + k) for i, g in enumerate(gaps)
               for k in range(g.bit_length()) if g >> k & 1)
    count = sum(g.bit_count() for g in gaps)
    return {"name": "H1", "ok": not count, "pairs": npts * (npts - 1) // 2,
            "violation_count": count,
            "violations": list(itertools.islice(missing, 10))}


def _mask_report(name, tubes, bad, why):
    """The report of an axiom on tube pairs from bad[i], the bitmask of
    the j > i whose pair with tube i fails; why(i, j) names the failure
    of one pair, and the first ten in pair order are kept."""
    count = sum(b.bit_count() for b in bad)
    return {"name": name, "ok": not count,
            "pairs": len(tubes) * (len(tubes) - 1) // 2,
            "violation_count": count,
            "violations": [(tubes[i].index, tubes[j].index, why(i, j))
                           for i, j in itertools.islice(mask_pairs(bad), 10)]}


def _x_meets(variety):
    """pair_masks's `once` over the points of X in each tubic space."""
    xset = variety.point_set
    return pair_masks([t.xi_pts & xset for t in variety.tubes])[0]


def _outside_cones(tubes, xset):
    """The symmetric bitmasks of the tube pairs whose meet leaves a cone:
    one tubic space holds a point of the other's that is off the other's
    cone, X(xi) plus the vertex, and the holder mask of each such shared
    point names the pairs."""
    xis = [t.xi_pts for t in tubes]
    shared = shared_elements(xis)
    loose = shared - xset
    off = [(t.xi_pts & loose) - t.vertex_pts for t in tubes]
    stray = set().union(*off)
    holders = holder_masks([xi & stray for xi in xis])
    outside = [0] * len(tubes)
    for i, pts in enumerate(off):
        for e in pts:
            m = holders[e] & ~(1 << i)
            outside[i] |= m
            for j in bits(m):
                outside[j] |= 1 << i
    return outside


def check_h2star(variety):
    """xi1 ^ xi2 lies in both cones and carries a point of X.

    Decided on bitmasks over the tubes (`hjplane.pair_masks`): a pair has
    no X point off its bit of `once` over the X points of the tubic
    spaces, and leaves the cones on its bit of `_outside_cones`.  A
    failing pair is named by the first of "disjoint", "outside cones"
    and "no X point" that holds."""
    tubes = variety.tubes
    n = len(tubes)
    xis = [t.xi_pts for t in tubes]
    outside = _outside_cones(tubes, variety.point_set)
    bad = [(~x | out) & later_bits(i, n)
           for i, (x, out) in enumerate(zip(_x_meets(variety), outside))]

    def why(i, j):
        if xis[i].isdisjoint(xis[j]):
            return "disjoint"
        return "outside cones" if outside[i] >> j & 1 else "no X point"
    return _mask_report("H2*", tubes, bad, why)


def check_h2(variety):
    """xi1 ^ xi2 inside the cones; its Y-part empty or of codimension 1.

    xi_pts is the full point set of xi, so the meet is a subspace, and
    its Y-part is a hyperplane of it iff the Y-part is a subspace and the
    meet has q |Y| + 1 points.  Inside both cones (`_outside_cones`),
    the Y-part (xi1 ^ xi2) - X is cy1 ^ cy2 for cy = (cone - X) ^ xi, as
    its points lie in both cones and both tubic spaces.  The cone is
    X(xi) plus the vertex, so cy is the vertex points in xi: the vertex
    misses X, since `pj.cone_forms` accepts only a vertex inside xi that
    misses X(xi) and a certified lift maps X onto X, carrying an
    extracted vertex to a transported one.  So only the pairs on `once`
    over the cy sets have a Y-part to judge, each on cy1 ^ cy2 and on the
    X points that xi1 and xi2 share."""
    field, n = variety.field, variety.n
    q = field.q
    tubes = variety.tubes
    xset = variety.point_set
    outside = _outside_cones(tubes, xset)
    cys = [t.vertex_pts & t.xi_pts for t in tubes]
    xmasks = [sum(1 << variety.point_index[p] for p in t.xi_pts & xset)
              for t in tubes]
    subspace = {}   # Y-part -> whether it holds every point of its span

    def why(i, j):
        if outside[i] >> j & 1:
            return "outside cones"
        ypart = cys[i] & cys[j]
        if ypart not in subspace:
            subspace[ypart] = len(ypart) == (q ** span(
                field, map(field.unpack, ypart), n).vdim - 1) // (q - 1)
        if not subspace[ypart]:
            return "Y part not a subspace"
        if (xmasks[i] & xmasks[j]).bit_count() != (q - 1) * len(ypart) + 1:
            return "Y part wrong codimension"
        return None

    bad = []
    for i, (o, out) in enumerate(zip(pair_masks(cys)[0], outside)):
        later = later_bits(i, len(tubes))
        bad.append(out & later | sum(1 << j for j in bits(o & ~out & later)
                                     if why(i, j)))
    return _mask_report("H2", tubes, bad, why)


def check_h3(variety, bound):
    dims = {}
    bad = []
    for pi in range(len(variety.points)):
        d = tangent_space(variety, pi).pdim
        dims[d] = dims.get(d, 0) + 1
        if d > bound:
            bad.append((pi, d))
    return {"name": "H3", "ok": not bad, "bound": bound,
            "tangent_dims": dims, "violations": bad[:10]}


def check_property_v(variety):
    """Two vertices either coincide or are disjoint, and both cases occur."""
    verts = variety.vertices()
    same_exists = len(verts) < len(variety.tubes)
    distinct_exists = len(verts) > 1
    bad = []
    for v1, v2 in itertools.combinations(verts, 2):
        if meet(v1, v2).rows:
            bad.append((v1.rows, v2.rows))
    ok = not bad and same_exists and distinct_exists
    return {"name": "V", "ok": ok, "vertices": len(verts),
            "violations": bad[:5], "both_cases": (same_exists,
                                                  distinct_exists)}


def check_mm1(variety):
    rep = check_h1(variety)
    rep["name"] = "MM1"
    return rep


def check_mm2star(variety):
    """Pairwise intersections of elliptic spaces are single points of X:
    no pair may miss X (`once` over the X points) or share two points
    (`twice` over the tubic spaces)."""
    tubes = variety.tubes
    n = len(tubes)
    xis = [t.xi_pts for t in tubes]
    twice = pair_masks(xis)[1]
    bad = [(~x | t) & later_bits(i, n)
           for i, (x, t) in enumerate(zip(_x_meets(variety), twice))]
    return _mask_report("MM2*", tubes, bad,
                        lambda i, j: len(xis[i] & xis[j]))


def check_tubes(variety, d_base=None, v=None):
    """Fit uniqueness, vertex dimension, ovoid base of Witt index 1."""
    bad = []
    for t in variety.tubes:
        if t.fit_count != 1:
            bad.append((t.index, "fit_count", t.fit_count))
        if v is not None and t.v != v:
            bad.append((t.index, "vertex_dim", t.v))
        if d_base is not None and t.d_base != d_base:
            bad.append((t.index, "base_dim", t.d_base))
        if not t.base_ovoid:
            bad.append((t.index, "base_not_ovoid"))
        if t.base_witt != 1:
            bad.append((t.index, "base_witt", t.base_witt))
    return {"name": "tubes", "ok": not bad, "violations": bad[:10],
            "count": len(variety.tubes)}


# --------------------------------------------------------------------------
# the vertex space Y

def vertex_space_y(variety):
    field = variety.field
    vertices = variety.vertices()
    rows = [r for v in vertices for r in v.rows]
    y = span(field, rows, variety.n)
    y_pts = set(y.points())
    vert_pts = [v.points() for v in vertices]
    union = set().union(*vert_pts)
    spread = sc.Spread(field, variety.n, tuple(vertices))
    report = {
        "dim_y": y.pdim,
        "vertex_count": len(vertices),
        "covers": union == y_pts,
        "pairwise_disjoint": len(union) == sum(map(len, vert_pts)),
        "x_disjoint": not (y_pts & variety.point_set),
        "regular_spread": sc.is_regular_spread(spread, within=y),
    }
    return y, vertices, report


# --------------------------------------------------------------------------
# projection from Y and the connection map

def rational_section(variety):
    """The canonical complement F: span of rho over the B-rational points."""
    A = variety.algebra
    plane = variety.plane
    field = variety.field
    elems = A.tables.elems
    imgs = [img for p, img in zip(plane.points, variety.points)
            if all(c == field.zero for u in p[2:]
                   for c in A.t_part(elems[u]))]
    return span(field, imgs, variety.n), imgs


def project_from_y(variety, F=None):
    """Projection rho: X -> F from Y; returns (report, data) with Y and
    its `vertex_space_y` report, the projected structure, fibers, the
    elliptic spaces by vertex, and chi (`_pi_xy`).  This is the one
    projection onto a given target, as f_cap_x_equals_projection here and
    x_is_union in `connection_chi` are claims about the images in F."""
    field = variety.field
    y, vertices, yrep = vertex_space_y(variety)
    canonical = False
    if F is None:
        F, _ = rational_section(variety)
        canonical = True
    if meet(F, y).rows:
        raise GeometryError("F meets Y")
    if F.vdim + y.vdim != variety.n:
        raise GeometryError("F is not complementary to Y")
    proj = Projection(y, F)
    images = {}
    fibers = {}
    for i, x in enumerate(variety.points):
        img = proj.apply(x)
        images[i] = img
        fibers.setdefault(img, []).append(i)
    xprime = sorted(fibers)
    # well-definedness: same image iff neighbouring source points; the
    # points of X are listed in plane point order
    keys = variety.plane.point_keys
    pair = partition_mismatch(keys, [images[i] for i in range(len(keys))])
    if pair is not None:
        if keys[pair[0]] == keys[pair[1]]:
            raise GeometryError("projection separates neighbours")
        raise GeometryError("projection identifies non-neighbours")
    quadrics = {}
    for t in variety.tubes:
        key = t.vertex.rows
        qpts = frozenset(images[i] for i in t.x_idx)
        if key in quadrics and quadrics[key] != qpts:
            raise GeometryError("tubes with one vertex project differently")
        quadrics[key] = qpts
    elliptics = {k: span(field, sorted(q), variety.n)
                 for k, q in quadrics.items()}
    data = {
        "y": y, "y_report": yrep, "F": F, "images": images,
        "fibers": fibers, "xprime": xprime, "quadrics": quadrics,
        "elliptics": elliptics, "vertices": {v.rows: v for v in vertices},
        "chi": _pi_xy(variety, fibers),
    }
    report = dict(yrep)
    report["fiber_sizes"] = sorted({len(f) for f in fibers.values()})
    report["x_prime_count"] = len(xprime)
    if canonical:
        f_x = set(F.points()) & variety.point_set
        report["f_cap_x_equals_projection"] = f_x == set(
            map(field.pack, xprime))
        # Xi' both ways: images of tubes and meets xi ^ F
        d_base = variety.tubes[0].d_base
        meets = set()
        for t in variety.tubes:
            mm = meet(t.xi, F)
            if mm.pdim == d_base + 1:
                meets.add(mm.rows)
        report["xi_cap_f_matches"] = meets == {
            e.rows for e in elliptics.values()}
    mm_var = build_synthetic_variety(
        field, variety.n, xprime,
        [elliptics[k] for k in sorted(elliptics)])
    report["mm1"] = check_mm1(mm_var)["ok"]
    report["mm2star"] = check_mm2star(mm_var)["ok"]
    return report, data


def _pi_xy(variety, fibers):
    """x' -> Pi_x^Y, the span of the vertices of the tubes through the
    points x over x'.  Each point is keyed by the vertices of its tubes
    and each distinct key is spanned once; Pi_x^Y must be one space over
    a fiber.  The span cache dies on return; chi is kept in
    `project_from_y`'s data, where `connection_chi` and
    `local_structure_at_vertex` read it."""
    field = variety.field
    tubes = variety.tubes
    spans = {}          # the vertex rows of a point's tubes -> their span
    chi = {}
    for img, fib in fibers.items():
        pis = set()
        for i in fib:
            key = frozenset(tubes[ti].vertex.rows
                            for ti in variety.tubes_through[i])
            if key not in spans:
                spans[key] = span(field, [r for rows in key for r in rows],
                                  variety.n).rows
            pis.add(spans[key])
        if len(pis) != 1:
            raise GeometryError("Pi_x^Y differs within a fiber")
        chi[img] = Subspace(field, variety.n, pis.pop())
    return chi


def connection_chi(variety, data):
    """chi: rho(X) -> {Pi_x^Y}; verified to be an incidence-reversing
    bijection whose restrictions preserve cross-ratio, with X recovered
    as the union of <x', chi(x')> minus chi(x'), and with P*_Y (points
    chi(x'), lines the vertices V, V on chi(x') iff V <= chi(x')) carried
    onto the residue plane by the tilde map (`_tilde_on_pstar`); chi
    itself is `_pi_xy`, computed by `project_from_y`."""
    field = variety.field
    chi = data["chi"]
    report = {"bijective": len({s.rows for s in chi.values()}) == len(chi)}
    # incidence reversal: x' on the quadric of vertex V iff V <= chi(x')
    under = {(key, img): v <= s for key, v in data["vertices"].items()
             for img, s in chi.items()}
    report["incidence_reversing"] = all(
        (img in qpts) == under[key, img]
        for key, qpts in data["quadrics"].items() for img in chi)
    # union property
    union = set()
    for img, piy in chi.items():
        u = span(field, [img] + list(piy.rows), variety.n)
        union |= set(u.points()) - set(piy.points())
    report["x_is_union"] = union == variety.point_set
    report["pstar_is_residue_plane"] = _tilde_on_pstar(variety, data, under)
    # cross-ratio preservation, conic by conic (vacuous at q = 2)
    report["cross_ratio"], report["cross_ratio_witness"] = \
        _chi_cross_ratio(variety, data, chi)
    report["hjelmslev"] = variety_hjelmslev(variety, data)
    return chi, report


def _tilde_on_pstar(variety, data, under):
    """Whether the tilde map (`hjplane.epimorphism_to_residue`) is an
    isomorphism from P*_Y onto the residue plane G(2, B), with no search:
    x' goes to the residue point of the plane points in its fibre, a
    vertex V to the residue line of the lines of its tubes, both maps must
    be well defined and bijective, and V <= chi(x') (`under`) must hold
    exactly when the images are incident.  A bijection on points and on
    lines that keeps incidence both ways is an isomorphism (chi is then
    injective, as a residue line parts any two residue points), so True
    means that P*_Y and G(2, B) are isomorphic."""
    plane = variety.plane
    point_map, line_map, residue = epimorphism_to_residue(plane)

    def onto(groups, index):
        """key -> its group's one residue index; None unless bijective."""
        image = {k: index[g[0]] for k, g in groups.items() if len(set(g)) == 1}
        ok = sorted(image.values()) == list(range(len(index)))
        return image if ok and len(image) == len(groups) else None

    tubes = {}
    for t in variety.tubes:
        tubes.setdefault(t.vertex.rows, []).append(
            line_map[plane.lines[t.index]])
    pts = onto({x: [point_map[plane.points[i]] for i in fib]
                for x, fib in data["fibers"].items()}, residue.point_index)
    lines = onto(tubes, residue.line_index)
    on = [set(ps) for ps in residue.points_on]
    return pts is not None and lines is not None and all(
        under[key, x] == (pts[x] in on[li])
        for key, li in lines.items() for x in pts)


def _chi_cross_ratio(variety, data, chi):
    """(verdict, witness): chi maps every conic of every quadric of X'
    onto the pencil of that quadric's vertex by a projectivity
    (`scrolls.projectivity_witness`, where a member off the pencil fails
    too).  The witness is None, or the conic and the first point of it
    that fails."""
    field = variety.field
    if field.q < 3:
        return "vacuous", None
    verdict = "vacuous"
    for key, qpts in data["quadrics"].items():
        v = data["vertices"][key]
        pts = sorted(qpts)
        for conic in pj.conic_sections(field, pts,
                                       span(field, pts, variety.n)):
            x = sc.projectivity_witness(field, conic,
                                        [chi[p] for p in conic], v)
            if x is not None:
                return False, {"conic": conic, "point": x}
            verdict = True
    return verdict, None


def variety_hjelmslev(variety, data):
    """(Hj1)-(Hj4) for (X, tubes): points are neighbours iff they have the
    same projection from Y, tubes iff they have the same vertex."""
    images = data["images"]
    return check_hjelmslev(
        len(variety.points), variety.blocks(),
        [images[i] for i in range(len(variety.points))],
        [t.vertex.rows for t in variety.tubes], variety.plane.base.size())


# --------------------------------------------------------------------------
# local structure at a vertex

def local_structure_at_vertex(variety, vertex, data):
    """G_V dual affine plane, the spread R_V, the projectivity chi_V, and
    the identification of { rho_V(C') } with the scroll quadrics.

    rho_V is the projection from V (`Subspace.project`), applied once to
    each point of each generator of the tubes at V, every one of which
    must go to one point; the base of each tube is then read off its
    generators' images.  chi_V of a generator is rho_V of Pi_x^Y, read
    from cor's chi at the image from Y of one of its points."""
    field = variety.field
    key = vertex.rows
    cv = [t for t in variety.tubes if t.vertex.rows == key]
    if not cv:
        raise GeometryError("not a vertex of the variety")
    gens = {}
    for t in cv:
        for g in t.generators:
            gens.setdefault(g, set()).add(t.index)
    order = variety.plane.base.size() if variety.plane else None
    report = {"n_tubes": len(cv), "n_generators": len(gens)}
    # dual affine plane: the dual of G_V must be an affine plane
    report["dual_affine"] = is_affine_plane([t.index for t in cv],
                                            gens.values(), order)
    n = variety.n
    images, chi = data["images"], data["chi"]
    q_map, chi_v = {}, {}
    for g in gens:
        img = {vertex.project(field.unpack(x)) for x in g}
        if len(img) != 1:
            raise GeometryError("generator does not project to a point")
        q_map[g] = img.pop()
        piy = chi[images[variety.point_index[min(g)]]]
        chi_v[g] = span(field, [p for p in map(vertex.project, piy.rows)
                                if p is not None], n)
    # Q = rho_V(c0), aligned with the spread members generator by generator
    c0 = cv[0]
    qpts = [q_map[g] for g in c0.generators]
    members = [chi_v[g] for g in c0.generators]
    ytilde = span(field, [p for p in map(vertex.project, data["y"].rows)
                          if p is not None], n)
    spread = sc.Spread(field, n, tuple(dict.fromkeys(chi_v.values())))
    report["spread_size"] = len(spread.members)
    report["spread_regular"] = sc.is_regular_spread(spread, within=ytilde)
    # chi_V preserves cross-ratio (projectivity), vacuous at q = 2 where
    # lines carry three points: the pairing q-point <-> spread member is
    # exactly a scroll pairing; a failure adds its conic and point as
    # "chi_v_witness"
    scroll = sc.build_scroll(field, qpts, members)
    if field.q < 3:
        report["chi_v_projectivity"] = "vacuous"
    else:
        witness = sc.pairing_witness(scroll)
        report["chi_v_projectivity"] = witness is None
        if witness is not None:
            report["chi_v_witness"] = witness
    # scroll quadrics == projected tubes
    squads = sc.scroll_quadrics(scroll)
    projected = {tuple(sorted({q_map[g] for g in t.generators})) for t in cv}
    report["scroll_quadrics_match"] = projected == set(squads)
    # dimension formulas
    span_cv = span(field, [r for t in cv for r in t.xi.rows], n)
    report["dim_span_cv"] = span_cv.pdim
    d = cv[0].d_base
    v = cv[0].v
    report["dim_formula_ok"] = span_cv.pdim == 3 * v + d + 4
    report["v_equals_d_minus_1"] = v == d - 1
    return report


# --------------------------------------------------------------------------
# the PG(13, K) counterexample: (H1), (H2), (H3) hold, (H2*) fails

def build_h2_counterexample(field):
    """X = union of affine 3-spaces <c, chi(c)> \\ chi(c) over the quadric
    Veronese variety of PG(3, K), with the tubes riding on regular scrolls;
    satisfies (H1), (H2), (H3 <= 6) but admits disjoint tubic spaces."""
    if not field.is_finite or field.q not in (3, 4, 5):
        raise GeometryError("construction is run at q in {3, 4, 5}")
    n = 14
    pg3 = list(pj.pg_parameters(field, 4))
    points = []
    for a in pg3:
        head = pj.monomials(field, a)     # the quadric Veronese map of PG(3)
        for w in _orthogonal_vectors(field, a):
            vec = head + w
            points.append(normalize_point(field, vec))
    # one (a, b) pair per line of PG(3, K)
    lines = {}
    for a, b in itertools.combinations(pg3, 2):
        lspan = span(field, [a, b], 4)
        lines.setdefault(lspan.rows, (a, b))
    xis = []
    for _, (a, b) in sorted(lines.items()):
        xis.extend(_tubes_over_line(field, a, b))
    return build_synthetic_variety(field, n, points,
                                   list(dict.fromkeys(xis)))


def _orthogonal_vectors(field, a):
    ker = pj.Matrix(field, pj.nullspace(field, [tuple(a)], 4))
    return [pj.vec_mat(field, c, ker) for c in itertools.product(
        field.elements(), repeat=len(ker.rows))]


def _tubes_over_line(field, a, b):
    """Tubic 4-spaces over the line <a, b>: cones with vertex the dual
    line, over conics nu(sa+ub) + (s^2 w_a + su w_m + u^2 w_b)."""
    a, b, z = tuple(a), tuple(b), (field.zero,) * 4
    vertex_rows = pj.nullspace(field, [a, b], 4)
    # solutions (w_a, w_m, w_b) in K^12 of the four incidence conditions
    # w_a.a = 0, w_b.b = 0, w_a.b + w_m.a = 0 and w_b.a + w_m.b = 0,
    # modulo adding vectors of the dual line V to each slot
    sols = pj.nullspace(field, [a + z + z, z + z + b, b + a + z, z + b + a],
                        12)
    # quotient by V^3, which lies in the solution space: in coordinates
    # over `sols`, the coefficient vectors vanishing at the pivots of V^3's
    # echelon basis are the lex-first member of each coset, in order
    vcoords = [pj.solve(field, sols, z * pos + tuple(v) + z * (2 - pos))
               for v in vertex_rows for pos in range(3)]
    _, pivots = rref(field, vcoords)
    free = [i for i in range(len(sols)) if i not in pivots]
    reps = []
    for tail in itertools.product(list(field.elements()), repeat=len(free)):
        coeffs = [field.zero] * len(sols)
        for i, c in zip(free, tail):
            coeffs[i] = c
        reps.append(pj.vec_mat(field, coeffs, sols))
    out = []
    for w in reps:
        wa, wm, wb = w[:4], w[4:8], w[8:12]
        base = []
        for su in pj.pg_parameters(field, 2):
            head = pj.monomials(field, pj.vec_mat(field, su, (a, b)))
            tail = pj.vec_mat(field, pj.monomials(field, su), (wa, wm, wb))
            base.append(normalize_point(field, head + tail))
        rows = base + [(field.zero,) * 10 + tuple(v) for v in vertex_rows]
        xi = span(field, rows, 14)
        if xi.vdim != 5:
            raise GeometryError("tubic space has wrong dimension")
        out.append(xi)
    return out
