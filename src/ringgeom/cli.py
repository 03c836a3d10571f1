"""Command-line driver: constructions and verification suites with
deterministic JSON/CSV/text reports.

Every check pairs the expected value (where one is pinned) with the
computed one; the driver never hardcodes a pass without computing.
Identical config and seed give byte-identical JSON output; wall-clock
data is isolated under the separate "timings" key.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
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


def build_report(config, checks, timings):
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

def run_algebra(config):
    A = parse_algebra(config.algebra)
    checks = []
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


def run_plane(config):
    plane = hp.build_plane(parse_algebra(config.algebra))
    return plane_checks(plane, config.checks or ("hjelmslev",))


def plane_checks(plane, wanted):
    A, B = plane.algebra, plane.base
    checks = []
    expected_pts = hp.expected_point_count(A, B, plane.is_cd)
    checks.append(check("point_count", len(plane.points) == expected_pts,
                        expected_pts, len(plane.points)))
    checks.append(check("self_dual_counts",
                        len(plane.points) == len(plane.lines),
                        len(plane.points), len(plane.lines)))
    if "hjelmslev" in wanted:
        rep = hp.verify_hjelmslev_level2(plane)
        for k in ("hj1", "hj2", "hj3", "hj4"):
            checks.append(check(k, rep[k], True, rep[k],
                                witnesses=rep["violations"][:3]))
    if "epimorphism" in wanted and plane.is_cd:
        pm = hp.epimorphism_to_residue(plane)[0]
        sizes = {}
        for v in pm.values():
            sizes[v] = sizes.get(v, 0) + 1
        checks.append(check("fiber_sizes", set(sizes.values()) ==
                            {B.size() ** 2}, B.size() ** 2,
                            sorted(set(sizes.values()))))
    if "neighbour-consistency" in wanted:
        ok, wit = hp.nonneighbouring_point_line_consistency(plane)
        checks.append(check("point_line_neighbouring", ok, True, ok,
                            witnesses=[] if ok else [wit]))
    return checks


def run_veronese(config):
    wanted = config.checks or ("H1", "H2star", "V", "tubes")
    if "counterexample" in wanted:
        return counterexample_checks(parse_field(config.field or "F3"))
    V = vr.build_variety(parse_algebra(config.algebra))
    if config.extra.get("dump"):
        _write_json(vr.variety_dump(V), config.extra["dump"])
    return veronese_checks(V, wanted)


def _verifier_check(name, rep):
    """A check that reports a verifier's own verdict and witnesses."""
    return check(name, rep["ok"], True, rep["ok"],
                 witnesses=rep["violations"])


def counterexample_checks(field):
    ce = vr.build_h2_counterexample(field)
    checks = [_verifier_check("ce.tubes_11", vr.check_tubes(ce, d_base=1,
                                                            v=1)),
              _verifier_check("ce.H1", vr.check_h1(ce)),
              _verifier_check("ce.H2", vr.check_h2(ce))]
    h3 = vr.check_h3(ce, 6)
    checks.append(check("ce.H3_le_6", h3["ok"], True, h3["tangent_dims"]))
    wit = next((v[:2] for v in vr.check_h2star(ce)["violations"]
                if v[2] == "disjoint"), None)
    checks.append(check("ce.H2star_fails", wit is not None,
                        "disjoint pair exists", wit))
    return checks


def veronese_checks(V, wanted):
    checks = []
    # the paper's tube type: d = dim B, with a vertex of dimension
    # dim B - 1 over CD(B, 0) and none over a division algebra B
    base_dim = V.plane.base.dim
    dims = {"d": base_dim, "v": base_dim - 1 if V.plane.is_cd else -1}
    verifiers = {"H1": vr.check_h1, "H2star": vr.check_h2star,
                 "MM1": vr.check_mm1, "MM2star": vr.check_mm2star,
                 "V": vr.check_property_v}
    data = crep = None
    for name in wanted:
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
            y, verts, yrep = vr.vertex_space_y(V)
            expect_dim = 3 * dims["v"] + 2
            checks.append(check("cor.dim_y", y.pdim == expect_dim,
                                expect_dim, y.pdim))
            checks.append(check("cor.spread", yrep["pairwise_disjoint"]
                                and yrep["regular_spread"]
                                and yrep["covers"], True, yrep))
            prep, data = vr.project_from_y(V)
            checks.append(check("cor.F_section",
                                prep["f_cap_x_equals_projection"]
                                and prep["mm1"] and prep["mm2star"],
                                True, {k: prep[k] for k in
                                       ("mm1", "mm2star",
                                        "f_cap_x_equals_projection")}))
            _, crep = vr.connection_chi(V, data)
            checks.append(check("cor.chi",
                                crep["bijective"]
                                and crep["incidence_reversing"]
                                and crep["x_is_union"]
                                and crep["cross_ratio"] in (True, "vacuous"),
                                True, {k: crep[k] for k in
                                       ("bijective", "incidence_reversing",
                                        "x_is_union", "cross_ratio")},
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
            verts = {t.vertex.rows: t.vertex for t in V.tubes}
            # reports the first failing vertex, or the last one
            for v in verts.values():
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


def run_motions(config):
    V = vr.build_variety(parse_algebra(config.algebra))
    return motion_checks(
        V, config.checks or ("triality", "elations", "equivariance"))


def motion_checks(V, wanted):
    """Triality, elation and lift checks for every algebra, complete from
    the F_p-basis G = {w^j e_i} of A over F_{p^k}, w^j = p^j in F.

    Maps with rho(g p) = rho(p) M_g (row vectors) compose: rho(g h p) =
    rho(p) M_h M_g, and g h keeps incidence and neighbourhood if g and h
    do.  Let P(a) be an elation's point and line permutations and L(a)
    its lift, in either family.  Every a in A is a sum over G, so
    P(e) P(b) = P(e + b) and L(b) L(e) = L(b + e) for e in G, b in A
    carry each property from G to all of A by induction; P(0) = id as
    P(e) is bijective, and L(0) = I is checked.  Then phi13(X) phi23(Y)
    lifts to L_Y(Y) L_X(X), compared with linear_lift(A, "phi", X, Y) on
    all pairs.  A failing check names its first failing generator or pair.
    """
    A, plane, F = V.algebra, V.plane, V.field
    elems = A.elements()
    checks, perms = [], {}
    gens = [(k, A.scale(F.p ** j, A.basis(i))) for k in ("phi23", "phi13")
            for i in range(A.dim) for j in range(F.k)]
    sums = [(k, e, b, A.add(e, b)) for k, e in gens for b in elems]

    def perms_of(kind, param=None):
        """Point and line permutations of tau or an elation, made once."""
        if (kind, param) not in perms:
            g = mo.triality(A) if kind == "tau" else mo.elation(A, kind, param)
            perms[kind, param] = mo.materialize(g, plane)
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
        pp, lp = perms_of("tau")
        ident = tuple(range(len(plane.points)))
        ok3 = mo.perm_mul(pp, mo.perm_mul(pp, pp)) == ident
        oki, _ = mo.perms_preserve_incidence(pp, lp, plane)
        checks.append(check("triality.order3", ok3, True, ok3))
        checks.append(check("triality.incidence", oki, True, oki))
    if "elations" in wanted:
        verdict("elations.incidence", (gens, lambda k, e: (
            mo.perms_preserve_incidence(*perms_of(k, e), plane)[0])))
        verdict("elations.neighbouring", (gens, lambda k, e: (
            mo.perm_preserves_neighbouring(perms_of(k, e)[0], plane)[0])))
        verdict("elations.additive", additive)
    if "equivariance" in wanted:
        tau = mo.triality(A)
        okt, _ = mo.verify_equivariance(mo.linear_lift(A, "tau"), tau, V)
        checks.append(check("lift.tau", okt, True, okt))
        lift = ({("phi13", a): mo.linear_lift(A, "phi", X=a) for a in elems}
                | {("phi23", a): mo.linear_lift(A, "phi", Y=a)
                   for a in elems})
        unit = pj.unit_vectors(F, 3 * A.dim + 3)
        verdict("lift.phi_equivariant", additive,
                (gens, lambda k, e: mo.verify_equivariance(
                    lift[k, e], mo.elation(A, k, e), V)[0]),
                (sums, lambda k, e, b, total: pj.mat_mul(
                    F, lift[k, b], lift[k, e]) == lift[k, total]),
                ([("phi13", A.zero())], lambda k, a: lift[k, a] == unit),
                (itertools.product(elems, elems), lambda X, Y: (
                    mo.linear_lift(A, "phi", X=X, Y=Y) == pj.mat_mul(
                        F, lift["phi23", Y], lift["phi13", X]))))
    if "transitivity" in wanted:
        # an orbit under tau and the generator elations lies in one under
        # all elations, so a full orbit is full there too
        group = [perms_of("tau")[0]] + [perms_of(k, e)[0] for k, e in gens]
        keys = plane.point_keys
        pairs = ([], [])                    # neighbouring, far
        for i, j in itertools.combinations(range(len(keys)), 2):
            pairs[keys[i] != keys[j]].append((i, j))
        for name, cls in zip(("neighbouring_pairs", "far_pairs"), pairs):
            size = len(mo.pair_orbit(group, cls[0]))
            checks.append(check("transitive." + name, size == len(cls),
                                len(cls), size))
    return checks


M10_EXPECTED = {"x": 21, "elliptic": 210, "triangle_centers": 1120,
                "quadrangle_centers": 630, "admissible": 66}
M_EXPECTED = ["124689", "135678", "234579"]


def run_m10(config):
    m10 = f2.build_m10()
    checks = []
    wanted = set(config.checks or ("census",))
    if wanted & {"census", "projections", "stabilizer"}:
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


def run_witt(config):
    m10 = f2.build_m10()
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


def run_scroll(config):
    field = parse_field(config.field or "F3")
    d = config.d
    checks = []
    if d == 1:
        s = sc.canonical_cubic_scroll(field)
    else:
        s = sc.canonical_regular_scroll(d, field.q)
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


def run_verify_all(config):
    V = vr.build_variety(parse_algebra(config.algebra))
    if V.tubes[0].v >= 0:
        names = ("H1", "H2star", "V", "tubes", "cor", "chi")
    else:
        names = ("MM1", "MM2star", "tubes")
    return (_prefixed("plane.", plane_checks(V.plane,
                                             ("hjelmslev", "epimorphism")))
            + _prefixed("veronese.", veronese_checks(V, names))
            + _prefixed("motions.", motion_checks(
                V, ("triality", "elations", "equivariance"))))


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
    t0 = time.time()
    checks = COMMANDS[config.command](config)
    if config.command == "m10" and config.extra.get("witt"):
        checks += _prefixed("witt.", run_witt(config))
    timings = {"total_s": round(time.time() - t0, 3)}
    report = build_report(config, checks, timings)
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
