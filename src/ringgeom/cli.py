"""Command-line driver: constructions and verification suites with
deterministic JSON/CSV/text reports.

Every check pairs the expected value (where one is pinned) with the
computed one; the driver never hardcodes a pass without computing.
Identical config and seed give byte-identical JSON output; wall-clock
data and the process's peak resident memory ("peak_rss_mb") are isolated
under the separate "timings" key, and the deterministic size counters of
a run go under "stats".
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field as dc_field

from . import __version__, RinggeomError
from .fields import parse_field
from .algebras import (parse_algebra, classify, truncated_series,
                       find_isomorphism_to_cd, cd_double)
from . import hjplane as hp
from . import projective as pj
from . import veronese as vr
from . import motions as mo
from . import f2geom as f2
from . import scrolls as sc


class UsageError(RinggeomError):
    pass


@dataclass
class RunConfig:
    command: str
    algebra: str = ""
    field: str = ""
    checks: tuple = ()
    seed: int = 0
    samples: int = 1000
    out: str = ""
    format: str = "json"
    d: int = 1
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Check:
    name: str
    status: str             # pass | fail | sampled
    expected: object = None
    computed: object = None
    witnesses: list = dc_field(default_factory=list)


class Stages:
    """Wall-clock seconds per stage of one run (`timings`, by
    time.perf_counter) and its deterministic size counters (`stats`)."""

    def __init__(self):
        self.timings = {}
        self.stats = {}

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name + "_s"] = round(time.perf_counter() - t0, 3)

    def each(self, prefix, names):
        """Yields the names, timing the loop body of each as a stage."""
        for name in names:
            with self.stage(prefix + name):
                yield name

    def variety(self, algebra):
        """The variety of the plane over the algebra, with its build's
        stages and counters."""
        with self.stage("variety_build"):
            V = vr.build_variety(parse_algebra(algebra))
        self.timings.update({"variety_build.%s_s" % k: round(v, 3)
                             for k, v in V.timings.items()})
        self.stats.update(V.stats)
        return V


def check(name, ok, expected=None, computed=None, witnesses=()):
    return Check(name, "pass" if ok else "fail", expected, computed,
                 list(witnesses))


def _jsonable(x):
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in sorted(x, key=repr)] \
            if isinstance(x, (set, frozenset)) else [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if hasattr(x, "rows"):
        return {"rows": _jsonable(x.rows)}
    if isinstance(x, (int, str, bool, float)) or x is None:
        return x
    return repr(x)


def build_report(config, checks, timings, stats):
    return {
        "artifact": {"name": "ringgeom", "version": __version__},
        "config": {
            "command": config.command, "algebra": config.algebra,
            "field": config.field, "checks": list(config.checks),
            "seed": config.seed, "samples": config.samples,
            "format": config.format,
        },
        "checks": [{
            "name": c.name, "status": c.status,
            "expected": _jsonable(c.expected),
            "computed": _jsonable(c.computed),
            "witnesses": _jsonable(c.witnesses),
        } for c in checks],
        "stats": stats,
        "timings": timings,
    }


def emit(report, config):
    if config.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif config.format == "csv":
        octads = [c for c in report["checks"]
                  if c["name"] == "octads" and isinstance(c["computed"],
                                                          list)]
        if octads:
            rows = [",".join(str(i) for i in o)
                    for o in sorted(octads[0]["computed"])]
        else:
            rows = ["%s,%s" % (c["name"], c["status"])
                    for c in report["checks"]]
        text = "\n".join(rows) + "\n"
    else:
        lines = ["ringgeom %s :: %s" % (__version__,
                                        report["config"]["command"])]
        for c in report["checks"]:
            mark = {"pass": "ok", "fail": "FAIL", "sampled": "ok~"}[c["status"]]
            extra = ""
            if c["expected"] is not None:
                extra = "  expected=%s computed=%s" % (c["expected"],
                                                       c["computed"])
            lines.append("  [%s] %s%s" % (mark, c["name"], extra))
        text = "\n".join(lines) + "\n"
    if config.out:
        tmp = config.out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, config.out)
    else:
        sys.stdout.write(text)
    return text


# --------------------------------------------------------------------------
# subcommand implementations

def run_algebra(config, stages):
    A = parse_algebra(config.algebra)
    checks = []
    with stages.stage("classify"):
        rep = classify(A, samples=config.samples, seed=config.seed)
    for name in ("commutative", "associative", "alternative", "quadratic",
                 "nondegenerate", "division"):
        checks.append(Check("classify." + name,
                            "sampled" if rep.sampled else "pass",
                            None, getattr(rep, name)))
    checks.append(Check("radical", "pass", None,
                        {"rad_f": rep.rad_f, "R": rep.radical}))
    wanted = set(config.checks or ())
    if "series2" in wanted:
        B = A
        S = truncated_series(B, 2)
        D = cd_double(B, B.field.zero)
        iso = find_isomorphism_to_cd(S, D)
        checks.append(check("series2_iso_cd0", iso is not None,
                            expected="B[t]/(t^2) = CD(B,0)",
                            computed=iso is not None))
    return checks


def run_plane(config, stages):
    with stages.stage("plane_build"):
        plane = hp.build_plane(parse_algebra(config.algebra))
    stages.stats["algebra_elements"] = plane.algebra.size()
    return plane_checks(plane, config.checks or ("hjelmslev",), stages)


def plane_checks(plane, wanted, stages=None):
    stages = stages or Stages()
    A, B = plane.algebra, plane.base
    checks = []
    expected_pts = hp.expected_point_count(A, B, plane.is_cd)
    checks.append(check("point_count", len(plane.points) == expected_pts,
                        expected_pts, len(plane.points)))
    checks.append(check("self_dual_counts",
                        len(plane.points) == len(plane.lines),
                        len(plane.points), len(plane.lines)))
    if "hjelmslev" in wanted:
        with stages.stage("plane.hjelmslev"):
            rep = hp.verify_hjelmslev_level2(plane)
        for k in ("hj1", "hj2", "hj3", "hj4"):
            checks.append(check(k, rep[k], True, rep[k],
                                witnesses=rep["violations"][:3]))
    if "epimorphism" in wanted and plane.is_cd:
        with stages.stage("plane.epimorphism"):
            pm = hp.epimorphism_to_residue(plane)[0]
        sizes = {}
        for v in pm.values():
            sizes[v] = sizes.get(v, 0) + 1
        checks.append(check("fiber_sizes", set(sizes.values()) ==
                            {B.size() ** 2}, B.size() ** 2,
                            sorted(set(sizes.values()))))
    if "neighbour-consistency" in wanted:
        with stages.stage("plane.neighbour-consistency"):
            ok, wit = hp.nonneighbouring_point_line_consistency(plane)
        checks.append(check("point_line_neighbouring", ok, True, ok,
                            witnesses=[] if ok else [tuple(
                                hp.coords(A, obj) for obj in wit)]))
    return checks


def run_veronese(config, stages):
    wanted = config.checks or ("H1", "H2star", "V", "tubes")
    if "counterexample" in wanted:
        return counterexample_checks(parse_field(config.field or "F3"),
                                     stages)
    V = stages.variety(config.algebra)
    if config.extra.get("dump"):
        _write_json(vr.variety_dump(V), config.extra["dump"])
    return veronese_checks(V, wanted, stages)


def _verifier_check(name, rep):
    """A check that reports a verifier's own verdict and witnesses."""
    return check(name, rep["ok"], True, rep["ok"],
                 witnesses=rep["violations"])


def counterexample_checks(field, stages):
    with stages.stage("variety_build"):
        ce = vr.build_h2_counterexample(field)
    stages.stats.update(ce.stats)
    with stages.stage("ce.tubes_11"):
        checks = [_verifier_check("ce.tubes_11", vr.check_tubes(
            ce, d_base=1, v=1))]
    with stages.stage("ce.H1"):
        checks.append(_verifier_check("ce.H1", vr.check_h1(ce)))
    with stages.stage("ce.H2"):
        checks.append(_verifier_check("ce.H2", vr.check_h2(ce)))
    with stages.stage("ce.H3_le_6"):
        h3 = vr.check_h3(ce, 6)
    checks.append(check("ce.H3_le_6", h3["ok"], True, h3["tangent_dims"]))
    with stages.stage("ce.H2star_fails"):
        wit = next((v[:2] for v in vr.check_h2star(ce)["violations"]
                    if v[2] == "disjoint"), None)
    checks.append(check("ce.H2star_fails", wit is not None,
                        "disjoint pair exists", wit))
    return checks


def veronese_checks(V, wanted, stages=None):
    stages = stages or Stages()
    checks = []
    # the paper's tube type: d = dim B, with a vertex of dimension
    # dim B - 1 over CD(B, 0) and none over a division algebra B
    base_dim = V.plane.base.dim
    dims = {"d": base_dim, "v": base_dim - 1 if V.plane.is_cd else -1}
    verifiers = {"H1": vr.check_h1, "H2": vr.check_h2,
                 "H2star": vr.check_h2star, "MM1": vr.check_mm1,
                 "MM2star": vr.check_mm2star, "V": vr.check_property_v}
    data = crep = None
    for name in stages.each("veronese.", wanted):
        if name in verifiers:
            checks.append(_verifier_check(name, verifiers[name](V)))
        elif name == "tubes":
            rep = vr.check_tubes(V, d_base=dims["d"], v=dims["v"])
            checks.append(check("tubes", rep["ok"], dims,
                                {"d": V.tubes[0].d_base, "v": V.tubes[0].v},
                                witnesses=rep["violations"]))
        elif name.startswith("H3"):
            bound = int(name.split(":")[1]) if ":" in name else 4
            rep = vr.check_h3(V, bound)
            checks.append(check(name, rep["ok"], "<=%d" % bound,
                                rep["tangent_dims"]))
        elif name == "cor":
            prep, data = vr.project_from_y(V)
            y, yrep = data["y"], data["y_report"]
            expect_dim = 3 * dims["v"] + 2
            checks.append(check("cor.dim_y", y.pdim == expect_dim,
                                expect_dim, y.pdim))
            checks.append(check("cor.spread", yrep["pairwise_disjoint"]
                                and yrep["regular_spread"]
                                and yrep["covers"] and yrep["x_disjoint"],
                                True, yrep))
            section = {k: prep[k] for k in
                       ("mm1", "mm2star", "f_cap_x_equals_projection",
                        "xi_cap_f_matches")}
            checks.append(check("cor.F_section", all(section.values()),
                                True, section))
            _, crep = vr.connection_chi(V, data)
            checks.append(check("cor.chi",
                                crep["bijective"]
                                and crep["incidence_reversing"]
                                and crep["x_is_union"]
                                and crep["pstar_is_residue_plane"]
                                and crep["cross_ratio"] in (True, "vacuous"),
                                True, {k: crep[k] for k in
                                       ("bijective", "incidence_reversing",
                                        "x_is_union", "pstar_is_residue_plane",
                                        "cross_ratio")},
                                witnesses=[crep["cross_ratio_witness"]]
                                if crep["cross_ratio_witness"] else []))
        elif name == "chi":
            if crep is None:
                if data is None:
                    _, data = vr.project_from_y(V)
                _, crep = vr.connection_chi(V, data)
            hj = crep["hjelmslev"]
            for k in ("hj1", "hj2", "hj3", "hj4"):
                checks.append(check("chi." + k, hj[k], True, hj[k]))
        elif name == "vertexlocal":
            if data is None:
                _, data = vr.project_from_y(V)
            # reports the first failing vertex, or the last one
            for v in V.vertices():
                rep = vr.local_structure_at_vertex(V, v, data)
                ok = (rep["dual_affine"] and rep["spread_regular"]
                      and rep["scroll_quadrics_match"]
                      and rep["dim_formula_ok"]
                      and rep["v_equals_d_minus_1"]
                      and rep["chi_v_projectivity"] in (True, "vacuous"))
                if not ok:
                    break
            point = rep.pop("chi_v_witness", None)
            checks.append(check("vertexlocal", ok, True, rep,
                                witnesses=[] if ok else [v.rows] + (
                                    [point] if point else [])))
        else:
            raise UsageError("unknown veronese check %r" % name)
    return checks


def run_motions(config, stages):
    V = stages.variety(config.algebra)
    return motion_checks(
        V, config.checks or ("triality", "elations", "equivariance"), stages)


def motion_checks(V, wanted, stages=None):
    """Triality, elation and lift checks for every algebra, complete from
    the F_p-basis G = {w^j e_i} of A over F_{p^k}, w^j = p^j in F.

    Tau and the elations at G are read from the certificate that
    `build_variety` transported its tubes along
    (`mo.generator_certificate`), so the report is that certificate; a
    generator that is not a plane bijection raises its MotionError when
    a check reaches it.

    Maps with rho(g p) = rho(p) M_g (row vectors) compose: rho(g h p) =
    rho(p) M_h M_g, and g h keeps incidence and neighbourhood if g and h
    do.  Let P(a) be an elation's point and line permutations and L(a)
    its lift, in either family.  Every a in A is a sum over G, so
    P(e) P(b) = P(e + b) and L(b) L(e) = L(b + e) for e in G, b in A
    carry each property from G to all of A by induction; P(0) = id as
    P(e) is bijective, and L(0) = I is checked.  Then phi13(X) phi23(Y)
    lifts to L_Y(Y) L_X(X), compared with linear_lift(A, "phi", X, Y) on
    all pairs.  A failing check names its first failing generator or pair.

    Counters in `stats`: elations_materialized adds the maps materialized
    here to the build's (tau and the generator elations), and
    lift_pairs_checked counts the pairs (X, Y) whose lift was compared.
    """
    stages = stages or Stages()
    A, plane, F = V.algebra, V.plane, V.field
    elems = A.elements()
    checks, perms = [], {}
    cert = {g.key: g for g in V.certificate}
    gens = [g.key for g in V.certificate[1:]]
    sums = [(k, e, b, A.add(e, b)) for k, e in gens for b in elems]

    def generator(kind, param=None):
        """The certificate of tau or a generator elation."""
        g = cert[kind, param]
        if g.error:
            raise g.error
        return g

    def perms_of(kind, param=None):
        """Point and line permutations of tau or an elation: a
        generator's from the certificate, any other made once."""
        if (kind, param) in cert:
            return generator(kind, param).perms
        if (kind, param) not in perms:
            perms[kind, param] = mo.materialize(mo.elation(A, kind, param),
                                                plane)
        return perms[kind, param]

    def verdict(name, *tests):
        """Add the check that every case of the (cases, holds) pairs
        holds, witnessed by the first case that does not."""
        bad = next((case for cases, holds in tests for case in cases
                    if not holds(*case)), None)
        checks.append(check(name, bad is None, True, bad is None,
                            witnesses=[] if bad is None else [bad]))

    additive = (sums, lambda k, e, b, total: tuple(map(
        mo.perm_mul, perms_of(k, e), perms_of(k, b))) == perms_of(k, total))
    if "triality" in wanted:
        with stages.stage("motions.triality"):
            tau = generator("tau")
            pp = tau.perms[0]
            ident = tuple(range(len(plane.points)))
            ok3 = mo.perm_mul(pp, mo.perm_mul(pp, pp)) == ident
            checks.append(check("triality.order3", ok3, True, ok3))
            checks.append(check("triality.incidence", tau.incidence, True,
                                tau.incidence))
    if "elations" in wanted:
        with stages.stage("motions.elations"):
            verdict("elations.incidence", (gens, lambda k, e: (
                generator(k, e).incidence)))
            verdict("elations.neighbouring", (gens, lambda k, e: (
                mo.perm_preserves_neighbouring(perms_of(k, e)[0], plane)[0])))
            verdict("elations.additive", additive)
    if "equivariance" in wanted:
        with stages.stage("motions.equivariance"):
            okt = generator("tau").equivariant
            checks.append(check("lift.tau", okt, True, okt))
            lift = {(k, a): cert[k, a].lift if (k, a) in cert
                    else pj.Matrix(F, mo.motion_lift(A, k, a))
                    for k in ("phi13", "phi23") for a in elems}
            unit = tuple(pj.unit_vectors(F, 3 * A.dim + 3))
            stages.stats["lift_pairs_checked"] = 0

            def lift_pair(X, Y):
                stages.stats["lift_pairs_checked"] += 1
                return mo.linear_lift(A, "phi", X=X, Y=Y) == pj.mat_mul(
                    F, lift["phi23", Y].rows, lift["phi13", X])

            verdict("lift.phi_equivariant", additive,
                    (gens, lambda k, e: generator(k, e).equivariant),
                    (sums, lambda k, e, b, total: pj.mat_mul(
                        F, lift[k, b].rows, lift[k, e])
                     == list(lift[k, total].rows)),
                    ([("phi13", A.zero())],
                     lambda k, a: lift[k, a].rows == unit),
                    (itertools.product(elems, elems), lift_pair))
    if "transitivity" in wanted:
        with stages.stage("motions.transitivity"):
            # an orbit under tau and the generator elations lies in one under
            # all elations, so a full orbit is full there too
            group = [perms_of(*g.key)[0] for g in V.certificate]
            keys = plane.point_keys
            pairs = ([], [])                    # neighbouring, far
            for i, j in itertools.combinations(range(len(keys)), 2):
                pairs[keys[i] != keys[j]].append((i, j))
            for name, cls in zip(("neighbouring_pairs", "far_pairs"), pairs):
                size = len(mo.pair_orbit(group, cls[0]))
                checks.append(check("transitive." + name, size == len(cls),
                                    len(cls), size))
    stages.stats["elations_materialized"] = (
        stages.stats.get("elations_materialized", 0) + len(perms))
    return checks


M10_EXPECTED = {"x": 21, "elliptic": 210, "triangle_centers": 1120,
                "quadrangle_centers": 630, "admissible": 66}
M_EXPECTED = ["124689", "135678", "234579"]


def run_m10(config, stages):
    m10 = f2.build_m10()
    checks = []
    wanted = set(config.checks or ("census",))
    if wanted & {"census", "projections", "stabilizer"}:
        with stages.stage("census"):
            cen = f2.census(m10)
    if "census" in wanted:
        for k, v in M10_EXPECTED.items():
            checks.append(check("census." + k, cen[k] == v, v, cen[k]))
        checks.append(check("census.partition", cen["partition_sum"] == 2047
                            and cen["partition_disjoint"], 2047,
                            cen["partition_sum"]))
        checks.append(check("census.m", cen["m_labels"] == M_EXPECTED,
                            M_EXPECTED, cen["m_labels"]))
        checks.append(check("census.admissible_lines",
                            cen["admissible_lines"] == 64, 64,
                            cen["admissible_lines"]))
        checks.append(check("census.no_admissible_planes",
                            cen["admissible_planes"] == 0, 0,
                            cen["admissible_planes"]))
        checks.append(check("census.tangent_dims",
                            cen["tangent_dims"] == [6], [6],
                            cen["tangent_dims"]))
    if "zerosum" in wanted:
        ok, count = f2.zero_sum_subsets(m10)
        checks.append(check("zero_sum_subsets", ok, 231, count))
    if "projections" in wanted:
        m = cen["m"]
        _, repM = f2.project_m10(m10, m)
        checks.append(check("project.from_M", repM["ok"]
                            and repM["dim"] == 8, "N=8, MM axioms",
                            {"dim": repM["dim"], "ok": repM["ok"]}))
        _, repP = f2.project_m10(m10, [m[0]])
        onm = sorted(set(repP["tangent_profile"])) == [5]
        checks.append(check("project.point_on_M", repP["ok"] and onm,
                            "all T_x -> 5", sorted(set(
                                repP["tangent_profile"]))))
        off = [p for p in cen["admissible_points"] if p not in m][0]
        _, repQ = f2.project_m10(m10, [off])
        offp = sorted(repQ["tangent_profile"]).count(5) == 1
        checks.append(check("project.point_off_M", repQ["ok"] and offp,
                            "exactly one T_y -> 5",
                            repQ["tangent_profile"].count(5)))
    if "stabilizer" in wanted:
        srep = f2.stabilizer_report(m10, cen)
        checks.append(check("stabilizer.order", srep["order"] == 120960,
                            120960, srep["order"]))
        checks.append(check("stabilizer.orbits",
                            srep["admissible_orbit_sizes"] == [3, 63]
                            and srep["m_is_orbit"], [3, 63],
                            srep["admissible_orbit_sizes"]))
    return checks


def run_witt(config, stages):
    m10 = f2.build_m10()
    with stages.stage("witt_lift"):
        w = f2.witt_lift(m10)
    checks = [
        check("points", len(w["points"]) == 24, 24, len(w["points"])),
        check("octads", w["octad_count"] == 759, 759, w["octad_count"]),
        check("design_5_8_24", w["design_ok"], True, w["design_ok"]),
        check("converse_projection", w["converse"]["ok"], True,
              w["converse"]),
    ]
    if config.format == "csv":
        checks.append(Check("octads", "pass", None,
                            [list(o) for o in w["octads"]]))
    return checks


def run_scroll(config, stages):
    field = parse_field(config.field or "F3")
    d = config.d
    checks = []
    if d == 1:
        s = sc.canonical_cubic_scroll(field)
    else:
        s = sc.canonical_regular_scroll(d, field.q)
    with stages.stage("scroll_quadrics"):
        quads = sc.scroll_quadrics(s)
    expected = field.q ** (2 * d)
    checks.append(check("quadrics", len(quads) == expected, expected,
                        len(quads)))
    ok, info = sc.verify_unique_quadrics(s, quads)
    checks.append(check("unique_and_pairwise", ok, True, info))
    if config.extra.get("dump"):
        _write_json(sc.scroll_dump(s, quads), config.extra["dump"])
    return checks


def _write_json(payload, path):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def _prefixed(prefix, checks):
    return [Check(prefix + c.name, c.status, c.expected, c.computed,
                  c.witnesses) for c in checks]


def run_verify_all(config, stages):
    V = stages.variety(config.algebra)
    if V.tubes[0].v >= 0:
        names = ("H1", "H2star", "V", "tubes", "cor", "chi")
    else:
        names = ("MM1", "MM2star", "tubes")
    return (_prefixed("plane.", plane_checks(
        V.plane, ("hjelmslev", "epimorphism"), stages))
            + _prefixed("veronese.", veronese_checks(V, names, stages))
            + _prefixed("motions.", motion_checks(
                V, ("triality", "elations", "equivariance"), stages)))


COMMANDS = {
    "algebra": run_algebra,
    "plane": run_plane,
    "veronese": run_veronese,
    "motions": run_motions,
    "m10": run_m10,
    "witt": run_witt,
    "scroll": run_scroll,
    "verify-all": run_verify_all,
}


def make_parser():
    p = argparse.ArgumentParser(
        prog="ringgeom",
        description="exact constructions and verifiers for ring planes, "
                    "their quadric varieties, and the binary designs")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--algebra", default="")
        sp.add_argument("--field", default="")
        sp.add_argument("--check", "--verify", dest="checks", default="")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=1000)
        sp.add_argument("--out", default="")
        sp.add_argument("--format", default="json",
                        choices=("json", "csv", "text"))
        sp.add_argument("--d", type=int, default=1)
        sp.add_argument("--dump", default="")
        if name == "m10":
            sp.add_argument("--census", action="store_true")
            sp.add_argument("--witt", action="store_true")
            sp.add_argument("--stabilizer", action="store_true")
            sp.add_argument("--projections", action="store_true")
            sp.add_argument("--zerosum", action="store_true")
    return p


def config_from_args(args):
    checks = tuple(c for c in args.checks.split(",") if c)
    if args.command == "m10":
        flags = [n for n in ("census", "witt", "stabilizer", "projections",
                             "zerosum") if getattr(args, n, False)]
        checks = checks + tuple(f for f in flags if f != "witt")
        if not checks and not getattr(args, "witt", False):
            checks = ("census",)
    return RunConfig(args.command, algebra=args.algebra, field=args.field,
                     checks=checks, seed=args.seed, samples=args.samples,
                     out=args.out, format=args.format, d=args.d,
                     extra={"witt": getattr(args, "witt", False),
                            "dump": args.dump})


def run(config):
    """Dispatch; returns (report, exit_status)."""
    stages = Stages()
    t0 = time.perf_counter()
    checks = COMMANDS[config.command](config, stages)
    if config.command == "m10" and config.extra.get("witt"):
        checks += _prefixed("witt.", run_witt(config, stages))
    timings = {"total_s": round(time.perf_counter() - t0, 3),
               **stages.timings,
               # ru_maxrss is in KiB on Linux
               "peak_rss_mb": round(resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    report = build_report(config, checks, timings, stages.stats)
    status = 0 if all(c.status != "fail" for c in checks) else 1
    return report, status


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        report, status = run(config)
    except RinggeomError as e:
        sys.stderr.write("ringgeom: %s: %s\n" % (type(e).__name__, e))
        return 2
    emit(report, config)
    return status


if __name__ == "__main__":
    sys.exit(main())
