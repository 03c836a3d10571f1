"""The Veronese map on G(2, A), variety assembly, tube extraction, and
all axiom verifiers: (H1), (H2*), (H2), (H3), (V), (MM1), (MM2*), the
vertex space Y with its spread, the projection to the nondegenerate part,
the connection duality, the local structure at a vertex, and the
13-space counterexample construction.

Tube extraction trusts only point-set data: X(xi) = X intersect xi is
recomputed by membership and the cone is reconstructed by quadric
fitting, never from the algebraic parametrization, so the same code
verifies hand-built or projected varieties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import projective as pj
from . import scrolls as sc
from .projective import (Subspace, span, meet, normalize_point, rref,
                         GeometryError, intrinsic_coords, from_intrinsic,
                         Projection, quadric_vertex, witt_index, is_ovoid,
                         exact_zero_set_forms)
from .hjplane import (build_plane, is_affine_plane, check_hjelmslev,
                      partition_mismatch, pair_violations)


@dataclass
class Tube:
    index: int
    xi: Subspace
    xi_pts: frozenset
    x_pts: frozenset          # X(xi), ambient points
    x_idx: tuple              # indices into the variety point list
    form: object              # accepted quadratic form, xi-intrinsic
    fit_count: int            # accepted cone varieties through X(xi)
    vertex: Subspace          # ambient
    vertex_pts: frozenset
    cone_pts: frozenset       # x_pts | vertex_pts
    v: int                    # vertex projective dimension (-1 if empty)
    d_base: int               # tangent-hyperplane dimension of the base
    base_witt: int
    base_ovoid: bool
    generators: tuple         # frozensets of tube points, one per generator


@dataclass
class Variety:
    field: object
    n: int                    # ambient vector dimension
    points: list
    point_index: dict
    point_set: frozenset
    tubes: list
    tubes_through: list
    algebra: object = None
    plane: object = None
    rho: dict = None          # plane point -> variety point
    inverse_rho: dict = None

    @property
    def ambient_pdim(self):
        return self.n - 1

    def blocks(self):
        return [t.x_idx for t in self.tubes]


def veronese_point(A, plane_point):
    """rho(x, y, z) = (x conj(x), y conj(y), z conj(z); y conj(z),
    z conj(x), x conj(y)) as a normalized point of PG(3d+2, K)."""
    _, _, x, y, z = plane_point
    field = A.field
    xc, yc, zc = A.conj(x), A.conj(y), A.conj(z)
    norms = []
    for u, uc in ((x, xc), (y, yc), (z, zc)):
        n = A.mul(u, uc)
        if any(c != field.zero for c in n[1:]):
            raise GeometryError("norm is not scalar; algebra not quadratic")
        norms.append(n[0])
    blocks = (A.mul(y, zc), A.mul(z, xc), A.mul(x, yc))
    vec = tuple(norms) + tuple(c for b in blocks for c in b)
    p = normalize_point(field, vec)
    if p is None:
        raise GeometryError("Veronese image of %r is zero" % (plane_point,))
    return p


def build_variety(A, extract=True):
    """X = rho(P), Xi = spans of rho(line) for lines of G(2, A)."""
    plane = build_plane(A)
    field = A.field
    n = 3 * A.dim + 3
    rho = {}
    points = []
    point_index = {}
    for p in plane.points:
        img = veronese_point(A, p)
        rho[p] = img
        if img in point_index:
            raise GeometryError("Veronese map is not injective on points")
        point_index[img] = len(points)
        points.append(img)
    ambient_rank, _ = rref(field, points)
    if len(ambient_rank) != n:
        raise GeometryError("X does not span the ambient space")
    point_set = frozenset(points)
    tubes = []
    for li, line in enumerate(plane.lines):
        member_pts = [rho[plane.points[pi]] for pi in plane.points_on[li]]
        xi = span(field, member_pts, n)
        tube = (extract_tube if extract else _bare_tube)(
            field, xi, point_set, point_index, li)
        if set(tube.x_pts) != set(member_pts):
            raise GeometryError(
                "xi contains points of X beyond the line image (line %d)" % li)
        tubes.append(tube)
    tubes_through = _tubes_through(len(points), tubes)
    inverse_rho = {img: p for p, img in rho.items()}
    return Variety(field, n, points, point_index, point_set, tubes,
                   tubes_through, algebra=A, plane=plane, rho=rho,
                   inverse_rho=inverse_rho)


def build_synthetic_variety(field, n, points, xis, extract=True):
    point_index = {p: i for i, p in enumerate(points)}
    point_set = frozenset(points)
    make = extract_tube if extract else _bare_tube
    tubes = [make(field, xi, point_set, point_index, i)
             for i, xi in enumerate(xis)]
    return Variety(field, n, list(points), point_index, point_set, tubes,
                   _tubes_through(len(points), tubes))


def _tubes_through(npoints, tubes):
    through = [[] for _ in range(npoints)]
    for t in tubes:
        for pi in t.x_idx:
            through[pi].append(t.index)
    return through


def _bare_tube(field, xi, point_set, point_index, index):
    xi_pts = frozenset(xi.points())
    x_pts = frozenset(xi_pts & point_set)
    x_idx = tuple(sorted(point_index[p] for p in x_pts))
    return Tube(index, xi, xi_pts, x_pts, x_idx, None, 0,
                Subspace(field, xi.n, ()), frozenset(), x_pts, -1, -1, -1,
                False, ())


def extract_tube(field, xi, point_set, point_index, index=0):
    """Reconstruct the cone on X(xi) = X intersect xi by quadric fitting.

    Accepts exactly the quadratic forms whose zero set inside xi equals
    X(xi) plus the form's own vertex, with the vertex disjoint from X;
    fit_count records how many distinct cone varieties survive (expected
    one)."""
    k = xi.vdim
    # xi.rows is in RREF, so c . rows is normalized and has coordinates c
    intr = {pj.vec_mat(field, c, xi.rows): c
            for c in pj.pg_parameters(field, k)}
    xi_pts = frozenset(intr)
    x_pts = sorted(xi_pts & point_set)
    if not x_pts:
        raise GeometryError("xi carries no points of X")
    x_intr = set(intr[p] for p in x_pts)
    kernel = pj.forms_through(field, sorted(x_intr), k)
    # the vertex points are zeros, so an accepted form has as many zeros
    # off X(xi) as some subspace has points
    q = field.q
    vertex_sizes = {(q ** m - 1) // (q - 1) for m in range(k + 1)}
    accepted = {}
    for coeffs in pj.pg_parameters(field, len(kernel)):
        flat = pj.vec_mat(field, coeffs, kernel)
        qf = pj.QuadraticForm(field, k, normalize_point(field, flat))
        zeros = {c for c in intr.values() if qf.evaluate(c) == field.zero}
        if len(zeros) - len(x_intr) not in vertex_sizes:
            continue
        vert = quadric_vertex(qf)
        vert_pts = set(vert.points()) if vert.rows else set()
        if zeros != x_intr | vert_pts:
            continue
        if vert_pts & x_intr:
            continue
        key = frozenset(zeros)
        accepted.setdefault(key, (qf, vert))
    if not accepted:
        raise GeometryError("no cone form matches X(xi) in tube %d" % index)
    fit_count = len(accepted)
    qf, vert_intr = accepted[sorted(accepted, key=sorted)[0]]
    vertex = span(field, [from_intrinsic(xi, r) for r in vert_intr.rows],
                  xi.n) if vert_intr.rows else Subspace(field, xi.n, ())
    vertex_pts = frozenset(vertex.points()) if vertex.rows else frozenset()
    v = vertex.pdim
    d_base = xi.pdim - v - 2
    base_witt, base_ovoid, generators = _analyze_base(
        field, xi, qf, vert_intr, x_pts, intr)
    x_idx = tuple(sorted(point_index[p] for p in x_pts))
    return Tube(index, xi, xi_pts, frozenset(x_pts), x_idx, qf, fit_count,
                vertex, vertex_pts, frozenset(x_pts) | vertex_pts, v,
                d_base, base_witt, base_ovoid, generators)


def _analyze_base(field, xi, qf, vert_intr, x_pts, intr):
    k = xi.vdim
    if not vert_intr.rows:
        base_pts = [intr[p] for p in x_pts]
        base_space = span(field, base_pts, k)
        forms = exact_zero_set_forms(field, base_pts, k)
        bw = witt_index(forms[0]) if forms else witt_index(qf)
        ovoid = is_ovoid(field, base_pts, base_space)
        return bw, ovoid, (frozenset(x_pts),)
    proj = Projection(vert_intr, pj.complement(vert_intr))
    base_map = {}
    for p in x_pts:
        img = proj.apply(intr[p])
        base_map.setdefault(img, []).append(p)
    base_pts = sorted(base_map)
    base_space = span(field, base_pts, k)
    ovoid = is_ovoid(field, base_pts, base_space)
    base_intr = [intrinsic_coords(base_space, p) for p in base_pts]
    forms = exact_zero_set_forms(field, base_intr, base_space.vdim)
    bw = witt_index(forms[0]) if forms else -1
    generators = tuple(frozenset(base_map[b]) for b in base_pts)
    return bw, ovoid, generators


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


def _pair_report(name, variety, verdict, skip_disjoint=False):
    """The report of an axiom on tube pairs: verdict(t1, t2, shared) is
    None or why the pair fails, with shared listing xi1 ^ xi2 (() when
    disjoint).  The pairs come in index order from one walk over the
    tubic spaces (`hjplane.pair_violations`); ten violations are kept."""
    tubes = variety.tubes

    def tube_verdict(i, j, shared):
        why = verdict(tubes[i], tubes[j], shared)
        return why if why is None else (tubes[i].index, tubes[j].index, why)

    found = pair_violations([t.xi_pts for t in tubes], tube_verdict,
                            skip_disjoint)
    first = list(itertools.islice(found, 10))
    count = len(first) + sum(1 for _ in found)
    return {"name": name, "ok": not count,
            "pairs": len(tubes) * (len(tubes) - 1) // 2,
            "violation_count": count, "violations": first}


def _outside_cones(t1, t2, shared):
    return not (t1.cone_pts.issuperset(shared)
                and t2.cone_pts.issuperset(shared))


def check_h2star(variety):
    """xi1 ^ xi2 lies in both cones and carries a point of X."""
    def verdict(t1, t2, shared):
        if not shared:
            return "disjoint"
        if _outside_cones(t1, t2, shared):
            return "outside cones"
        if variety.point_set.isdisjoint(shared):
            return "no X point"
    return _pair_report("H2*", variety, verdict)


def check_h2(variety):
    """xi1 ^ xi2 inside the cones; its Y-part empty or of codimension 1.

    xi_pts is the full point set of xi, so the meet is a subspace, and
    its Y-part is a hyperplane of it iff the Y-part is a subspace and the
    meet has q |Y| + 1 points."""
    field, q = variety.field, variety.field.q

    def verdict(t1, t2, shared):
        if _outside_cones(t1, t2, shared):
            return "outside cones"
        ypart = [p for p in shared if p not in variety.point_set]
        if len(ypart) > 1 and len(ypart) != (q ** span(
                field, sorted(ypart), variety.n).vdim - 1) // (q - 1):
            return "Y part not a subspace"
        if ypart and len(shared) != q * len(ypart) + 1:
            return "Y part wrong codimension"
    return _pair_report("H2", variety, verdict, skip_disjoint=True)


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
    seen = {}
    for t in variety.tubes:
        seen.setdefault(t.vertex.rows, t.vertex)
    verts = list(seen.values())
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
    """Pairwise intersections of elliptic spaces are single points of X."""
    def verdict(_t1, _t2, shared):
        if len(shared) != 1 or shared[0] not in variety.point_set:
            return len(shared)
    return _pair_report("MM2*", variety, verdict)


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
    vert_map = {}
    for t in variety.tubes:
        vert_map.setdefault(t.vertex.rows, t.vertex)
    vertices = list(vert_map.values())
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
    }
    report["regular_spread"] = sc.is_regular_spread(spread, within=y)
    return y, vertices, report


# --------------------------------------------------------------------------
# projection from Y and the connection map

def rational_section(variety):
    """The canonical complement F: span of rho over the B-rational points."""
    A = variety.algebra
    plane = variety.plane
    field = variety.field
    imgs = []
    for p in plane.points:
        _, tag, x, y, z = p
        if (all(c == field.zero for c in A.t_part(x)) and
                all(c == field.zero for c in A.t_part(y)) and
                all(c == field.zero for c in A.t_part(z))):
            imgs.append(variety.rho[p])
    return span(field, imgs, variety.n), imgs


def project_from_y(variety, F=None):
    """Projection rho: X -> F from Y; returns (report, data) with the
    projected structure, fibers, and the elliptic spaces by vertex."""
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
    # well-definedness: same image iff neighbouring source points
    plane = variety.plane
    keys = [plane.point_keys[plane.point_index[variety.inverse_rho[x]]]
            for x in variety.points]
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
        "y": y, "F": F, "proj": proj, "images": images, "fibers": fibers,
        "xprime": xprime, "quadrics": quadrics, "elliptics": elliptics,
        "vertices": {v.rows: v for v in vertices},
    }
    report = dict(yrep)
    report["fiber_sizes"] = sorted({len(f) for f in fibers.values()})
    report["x_prime_count"] = len(xprime)
    if canonical:
        f_x = set(F.points()) & variety.point_set
        report["f_cap_x_equals_projection"] = f_x == set(xprime)
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
        [elliptics[k] for k in sorted(elliptics)], extract=True)
    report["mm1"] = check_mm1(mm_var)["ok"]
    report["mm2star"] = check_mm2star(mm_var)["ok"]
    data["projected_variety"] = mm_var
    return report, data


def connection_chi(variety, data):
    """chi: rho(X) -> {Pi_x^Y}; verified to be an incidence-reversing
    bijection whose restrictions preserve cross-ratio, with X recovered
    as the union of <x', chi(x')> minus chi(x')."""
    field = variety.field
    fibers = data["fibers"]
    chi = {}
    for img, fib in fibers.items():
        pis = set()
        for i in fib:
            rows = []
            for ti in variety.tubes_through[i]:
                rows.extend(variety.tubes[ti].vertex.rows)
            pis.add(span(field, rows, variety.n).rows)
        if len(pis) != 1:
            raise GeometryError("Pi_x^Y differs within a fiber")
        chi[img] = Subspace(field, variety.n, pis.pop())
    report = {}
    report["bijective"] = len({s.rows for s in chi.values()}) == len(chi)
    # incidence reversal: x' on the quadric of vertex V iff V <= chi(x')
    ok = True
    for key, qpts in data["quadrics"].items():
        v = data["vertices"][key]
        for img in chi:
            if (img in qpts) != (v <= chi[img]):
                ok = False
    report["incidence_reversing"] = ok
    # union property
    union = set()
    affine_ok = True
    for img, piy in chi.items():
        u = span(field, [img] + list(piy.rows), variety.n)
        aff = set(u.points()) - set(piy.points())
        if not aff <= variety.point_set:
            affine_ok = False
        union |= aff
    report["x_is_union"] = affine_ok and union == set(variety.point_set)
    # abstract plane P*_Y against the residue plane
    pstar_points = sorted({s.rows for s in chi.values()})
    pstar_index = {r: i for i, r in enumerate(pstar_points)}
    pstar_lines = []
    for key, v in data["vertices"].items():
        line = frozenset(pstar_index[s.rows] for s in chi.values()
                         if v <= s)
        pstar_lines.append(line)
    residue = build_plane(variety.plane.base)
    res_blocks = [frozenset(ps) for ps in residue.points_on]
    iso = next(abstract_plane_isos(len(pstar_points),
                                   [frozenset(l) for l in pstar_lines],
                                   len(residue.points), res_blocks), None)
    report["pstar_is_residue_plane"] = iso is not None
    # cross-ratio preservation, conic by conic (vacuous at q = 2)
    report["cross_ratio"], report["cross_ratio_witness"] = \
        _chi_cross_ratio(variety, data, chi)
    report["hjelmslev"] = variety_hjelmslev(variety, data)
    return chi, report


def _chi_cross_ratio(variety, data, chi):
    """(verdict, witness): chi maps every conic of every quadric of X'
    onto the pencil of that quadric's vertex by a projectivity
    (`scrolls.projectivity_witness`).  The witness is None, or the conic
    and the first point of it that fails."""
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
    the identification of { rho_V(C') } with the scroll quadrics."""
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
    # rho_V: projection from V onto a complement containing F
    F = data["F"]
    n = variety.n
    rows = list(vertex.rows) + list(F.rows)
    extra = pj.extend_basis(field, rows, pj.unit_vectors(field, n), n)
    ftilde = span(field, list(F.rows) + extra, n)
    proj_v = Projection(vertex, ftilde)
    c0 = cv[0]
    chi_v = {}
    for g in gens:
        x = sorted(g)[0]
        # Pi_x^Y: span of the vertices of all tubes through x
        xi_idx = variety.point_index[x]
        rows = []
        for ti in variety.tubes_through[xi_idx]:
            rows.extend(variety.tubes[ti].vertex.rows)
        piy = span(field, rows, n)
        chi_v[g] = span(field, [p for p in (proj_v.apply(r)
                                            for r in piy.rows)
                                if p is not None], n)
    # Q = rho_V(c0), aligned with the spread members generator by generator
    q_map = {}
    for g in c0.generators:
        img = {proj_v.apply(x) for x in g}
        if len(img) != 1:
            raise GeometryError("generator does not project to a point")
        q_map[g] = img.pop()
    qpts = [q_map[g] for g in c0.generators]
    members = [chi_v[g] for g in c0.generators]
    ytilde = span(field, [p for p in (proj_v.apply(r) for r in data["y"].rows)
                          if p is not None], n)
    spread = sc.Spread(field, n, tuple({m.rows: m for m in chi_v.values()}
                                       .values()))
    report["spread_size"] = len(spread.members)
    report["spread_regular"] = sc.is_regular_spread(spread, within=ytilde)
    # chi_V preserves cross-ratio (projectivity), vacuous at q = 2: the
    # pairing q-point <-> spread member is exactly a scroll pairing; a
    # failure adds its conic and point as "chi_v_witness"
    scroll = sc.build_scroll(field, qpts, members)
    report["chi_v_projectivity"] = sc.pairing_is_projectivity(scroll)
    if report["chi_v_projectivity"] is False:
        report["chi_v_witness"] = sc.pairing_witness(scroll)
    # scroll quadrics == projected tubes
    squads = sc.scroll_quadrics(scroll)
    projected = set()
    for t in cv:
        projected.add(tuple(sorted({proj_v.apply(x) for x in t.x_pts})))
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
    pg3 = pj.pg_points(field, 4)
    points = []
    for a in pg3:
        head = _nu(field, a)
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
    seen = {}
    for xi in xis:
        seen.setdefault(xi.rows, xi)
    xis = list(seen.values())
    return build_synthetic_variety(field, n, points, xis, extract=True)


def _nu(field, a):
    """The quadric Veronese map of PG(3, K) into PG(9, K)."""
    return tuple(field.mul(a[i], a[j]) for (i, j) in pj.monomial_order(4))


def _orthogonal_vectors(field, a):
    rows = [tuple(a)]
    ker = pj.nullspace(field, rows, 4)
    out = []
    elems = list(field.elements())
    for coeffs in itertools.product(elems, repeat=len(ker)):
        w = [field.zero] * 4
        for c, k in zip(coeffs, ker):
            if c != field.zero:
                w = [field.add(x, field.mul(c, y)) for x, y in zip(w, k)]
        out.append(tuple(w))
    return out


def _tubes_over_line(field, a, b):
    """Tubic 4-spaces over the line <a, b>: cones with vertex the dual
    line, over conics nu(sa+ub) + (s^2 w_a + su w_m + u^2 w_b)."""
    vertex_rows = pj.nullspace(field, [tuple(a), tuple(b)], 4)
    # solutions (w_a, w_m, w_b) in K^12 of the four incidence conditions,
    # modulo adding vectors of the dual line V to each slot
    conds = []

    def dot_row(vecpos, point):
        row = [field.zero] * 12
        for i in range(4):
            row[vecpos * 4 + i] = point[i]
        return tuple(row)

    conds.append(dot_row(0, a))                      # w_a . a = 0
    conds.append(dot_row(2, b))                      # w_b . b = 0
    r = list(dot_row(0, b))
    for i in range(4):
        r[4 + i] = field.add(r[4 + i], a[i])
    conds.append(tuple(r))                           # w_a.b + w_m.a = 0
    r = list(dot_row(2, a))
    for i in range(4):
        r[4 + i] = field.add(r[4 + i], b[i])
    conds.append(tuple(r))                           # w_b.a + w_m.b = 0
    sols = pj.nullspace(field, conds, 12)
    # quotient by V^3, which lies in the solution space: in coordinates
    # over `sols`, the coefficient vectors vanishing at the pivots of V^3's
    # echelon basis are the lex-first member of each coset, in order
    vcoords = []
    for v in vertex_rows:
        for pos in range(3):
            row = [field.zero] * 12
            row[pos * 4: pos * 4 + 4] = list(v)
            vcoords.append(pj.solve(field, sols, tuple(row)))
    _, pivots = rref(field, vcoords)
    free = [i for i in range(len(sols)) if i not in pivots]
    reps = []
    for tail in itertools.product(list(field.elements()), repeat=len(free)):
        coeffs = [field.zero] * len(sols)
        for i, c in zip(free, tail):
            coeffs[i] = c
        reps.append(pj.vec_mat(field, coeffs, sols))
    params = [(field.one, t) for t in field.elements()] + \
             [(field.zero, field.one)]
    out = []
    for w in reps:
        wa, wm, wb = w[:4], w[4:8], w[8:12]
        base = []
        for (s, u) in params:
            p = tuple(field.add(field.mul(s, x), field.mul(u, y))
                      for x, y in zip(a, b))
            head = _nu(field, p)
            s2, su, u2 = field.mul(s, s), field.mul(s, u), field.mul(u, u)
            tail = tuple(
                field.add(field.add(field.mul(s2, wa[i]),
                                    field.mul(su, wm[i])),
                          field.mul(u2, wb[i])) for i in range(4))
            base.append(normalize_point(field, head + tail))
        rows = [p for p in base]
        rows += [(field.zero,) * 10 + tuple(v) for v in vertex_rows]
        xi = span(field, rows, 14)
        if xi.vdim != 5:
            raise GeometryError("tubic space has wrong dimension")
        out.append(xi)
    return out


# --------------------------------------------------------------------------
# abstract plane isomorphisms and projective equivalence

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
        basis = pj.extend_basis(field, [], pts[start:] + pts[:start], n)
        if len(basis) != n:
            return None
        binv = pj.mat_inverse(field, [list(r) for r in zip(*basis)])
        for p in pts:
            coords = pj.mat_vec(field, binv, p)
            if all(c != field.zero for c in coords):
                return basis, p, coords
    return None


def projectivity_from_frames(field, src, dst):
    """The unique projectivity mapping the ordered source frame (n
    independent points plus unit) to the destination frame; as a matrix
    acting on row vectors."""
    b1, _, c1 = src
    b2, _, c2 = dst
    rows1 = [pj.vec_scale(field, c, b) for c, b in zip(c1, b1)]
    rows2 = [pj.vec_scale(field, c, b) for c, b in zip(c2, b2)]
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
        basis = pj.extend_basis(field, [], pts1, n)
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
            binv = pj.mat_inverse(field, [list(r) for r in zip(*dst_basis)])
            dst_coords = pj.mat_vec(field, binv, dst_unit)
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
