import inspect
import json
import time

import pytest

import ringgeom
from ringgeom import cli
from ringgeom import (algebras, f2geom, fields, hjplane, motions,
                      projective, scrolls, veronese)

import quadric_reference as ref

MODULES = (algebras, cli, f2geom, fields, hjplane, motions, projective,
           scrolls, veronese)
ERROR_TYPES = sorted({obj for mod in MODULES for obj in vars(mod).values()
                      if inspect.isclass(obj)
                      and issubclass(obj, Exception)
                      and obj.__module__.startswith("ringgeom")},
                     key=lambda c: c.__name__)


def run_cli(args, tmp_path=None):
    parser = cli.make_parser()
    ns = parser.parse_args(args)
    config = cli.config_from_args(ns)
    report, status = cli.run(config)
    return report, status, config


def test_plane_verify_hjelmslev(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["plane", "--algebra", "CD(F2,0)", "--verify",
                   "hjelmslev", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    names = {c["name"]: c["status"] for c in data["checks"]}
    assert names["hj1"] == "pass" and names["hj4"] == "pass"


def test_algebra_report_pairs_expected_and_computed():
    report, status, _ = run_cli(["algebra", "--algebra", "CD(F3,0)",
                                 "--check", "series2"])
    assert status == 0
    series = [c for c in report["checks"] if c["name"] == "series2_iso_cd0"]
    assert series and series[0]["expected"] is not None


def test_m10_census_report():
    report, status, _ = run_cli(["m10", "--census"])
    assert status == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["census.admissible"]["computed"] == 66
    assert by_name["census.triangle_centers"]["computed"] == 1120


def test_usage_error_for_bad_algebra():
    rc = cli.main(["plane", "--algebra", "CD(F2,-1)"])
    assert rc == 2


def test_unknown_check_rejected():
    rc = cli.main(["veronese", "--algebra", "CD(F2,0)", "--check",
                   "nonsense"])
    assert rc == 2


def test_byte_identical_reports():
    r1, _, c1 = run_cli(["veronese", "--algebra", "CD(F2,0)", "--check",
                         "H1,H2star"])
    r2, _, c2 = run_cli(["veronese", "--algebra", "CD(F2,0)", "--check",
                         "H1,H2star"])
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_verify_all_reports_stage_timings_and_stats():
    runs = [run_cli(["verify-all", "--algebra", "CD(F2,0)", "--seed",
                     str(seed)])[0] for seed in (0, 7)]
    # tau and 8 elations materialized; the 4 x 4 lift pairs of |A| = 4;
    # the one extracted tube's pencil has vector dimension 4 over F2
    assert runs[0]["stats"] == runs[1]["stats"] == {
        "algebra_elements": 4, "elations_materialized": 9,
        "lift_pairs_checked": 16,
        "points": 28, "tubes": 28, "tubes_extracted": 1,
        "tubes_transported": 27, "pencil_forms_tried": 15,
        "generators_certified": 5, "generators_refused": []}
    stages = {"peak_rss_mb",
              "total_s", "variety_build_s", "variety_build.plane_build_s",
              "variety_build.lift_certificates_s", "variety_build.tubes_s",
              "plane.hjelmslev_s", "plane.epimorphism_s",
              "motions.triality_s", "motions.elations_s",
              "motions.equivariance_s"} | {
        "veronese.%s_s" % n for n in ("H1", "H2star", "V", "tubes", "cor",
                                      "chi")}
    for report in runs:
        assert set(report["timings"]) == stages
        assert all(isinstance(t, float) and t >= 0
                   for t in report["timings"].values())


def test_veronese_stages_follow_the_checks():
    report, status, _ = run_cli(["veronese", "--algebra", "CD(F3,0)",
                                 "--check", "H1,H3:4,V"])
    assert status == 0
    assert {k for k in report["timings"] if k.startswith("veronese.")} == {
        "veronese.H1_s", "veronese.H3:4_s", "veronese.V_s"}
    assert report["stats"]["tubes_extracted"] == 1


def test_veronese_check_h2_on_cd_f3():
    report, status, _ = run_cli(["veronese", "--algebra", "CD(F3,0)",
                                 "--check", "H2"])
    assert status == 0
    h2, = report["checks"]
    assert (h2["name"], h2["status"]) == ("H2", "pass")
    assert set(report["timings"]) >= {"veronese.H2_s"}


def test_scroll_subcommand():
    report, status, _ = run_cli(["scroll", "--field", "F3", "--d", "1"])
    assert status == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["quadrics"]["computed"] == 9


def test_scroll_d2_over_f5_passes(tmp_path):
    out = tmp_path / "r.json"
    rc = cli.main(["scroll", "--field", "F5", "--d", "2", "--out", str(out)])
    assert rc == 0
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_name["quadrics"]["computed"] == 625
    assert by_name["unique_and_pairwise"]["status"] == "pass"


def test_witt_csv_format(tmp_path):
    out = tmp_path / "octads.csv"
    rc = cli.main(["witt", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    octad_rows = [l for l in lines if l.count(",") == 7]
    assert len(octad_rows) == 759


def test_verify_all_cd_f2(tmp_path):
    out = tmp_path / "all.json"
    rc = cli.main(["verify-all", "--algebra", "CD(F2,0)", "--out",
                   str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert all(c["status"] != "fail" for c in data["checks"])
    names = {c["name"] for c in data["checks"]}
    assert any(n.startswith("veronese.cor") for n in names)
    assert any(n.startswith("motions.") for n in names)


def test_text_format_has_status_marks(capsys):
    rc = cli.main(["algebra", "--algebra", "F5", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[ok]" in out


def test_variety_dump(tmp_path):
    dump = tmp_path / "variety.json"
    out = tmp_path / "r.json"
    rc = cli.main(["veronese", "--algebra", "CD(F2,0)", "--check", "H1",
                   "--dump", str(dump), "--out", str(out)])
    assert rc == 0
    data = json.loads(dump.read_text())
    assert len(data["points"]) == 28
    assert len(data["xi"]) == 28
    assert all(t["v"] == 0 and t["d"] == 1 for t in data["tubes"])


def test_scroll_dump(tmp_path):
    dump = tmp_path / "scroll.json"
    out = tmp_path / "r.json"
    rc = cli.main(["scroll", "--field", "F3", "--d", "1",
                   "--dump", str(dump), "--out", str(out)])
    assert rc == 0
    data = json.loads(dump.read_text())
    assert len(data["pairing"]) == 4
    assert len(data["quadrics"]) == 9


def test_error_types_share_one_base():
    assert {e.__name__ for e in ERROR_TYPES} >= {
        "AlgebraError", "F2Error", "FieldError", "GeometryError",
        "MotionError", "PlaneError", "UsageError"}
    for err in ERROR_TYPES:
        assert issubclass(err, ringgeom.RinggeomError), err


@pytest.mark.parametrize("err", ERROR_TYPES, ids=lambda e: e.__name__)
def test_every_error_type_exits_2_with_one_line(err, monkeypatch, capsys):
    def fail(config, stages):
        raise err("refused")
    monkeypatch.setitem(cli.COMMANDS, "algebra", fail)
    rc = cli.main(["algebra", "--algebra", "F5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert err.__name__ in captured.err and "Traceback" not in captured.err


def test_stabilizer_checks_do_not_depend_on_seed():
    runs = [run_cli(["m10", "--stabilizer", "--seed", str(seed)])[:2]
            for seed in (0, 1, 1200800002)]
    checks = [report["checks"] for report, _ in runs]
    assert [status for _, status in runs] == [0, 0, 0]
    assert checks[0] == checks[1] == checks[2]
    assert [(c["name"], c["status"]) for c in checks[0]] == [
        ("stabilizer.order", "pass"), ("stabilizer.orbits", "pass")]


def test_vertexlocal_reports_first_failing_vertex(variety_f2, monkeypatch):
    calls = []

    def fake(V, vertex, data):
        calls.append(vertex)
        return {"dual_affine": len(calls) not in (2, 3),
                "spread_regular": True, "scroll_quadrics_match": True,
                "dim_formula_ok": True, "v_equals_d_minus_1": True,
                "chi_v_projectivity": True, "call": len(calls)}

    monkeypatch.setattr(cli.vr, "local_structure_at_vertex", fake)
    (c,) = cli.veronese_checks(variety_f2, ("vertexlocal",))
    assert c.status == "fail" and c.computed["call"] == 2
    assert c.witnesses == [calls[1].rows]
    monkeypatch.setattr(cli.vr, "local_structure_at_vertex",
                        lambda V, vertex, data: dict(fake(V, vertex, data),
                                                     dual_affine=True))
    calls.clear()
    (c,) = cli.veronese_checks(variety_f2, ("vertexlocal",))
    assert c.status == "pass" and c.computed["call"] == len(calls)
    assert c.witnesses == []


def test_projectivity_failures_name_conic_and_point(variety_f3,
                                                   monkeypatch):
    (c,) = cli.veronese_checks(variety_f3, ("cor",))[-1:]
    assert c.name == "cor.chi" and c.status == "pass" and c.witnesses == []
    wit = {"conic": ((1, 0, 0), (0, 1, 0)), "point": (0, 1, 0)}
    monkeypatch.setattr(cli.vr, "_chi_cross_ratio",
                        lambda V, data, chi: (False, wit))
    (c,) = cli.veronese_checks(variety_f3, ("cor",))[-1:]
    assert c.status == "fail" and c.computed["cross_ratio"] is False
    assert c.witnesses == [wit]
    monkeypatch.setattr(cli.vr.sc, "pairing_witness", lambda scroll: wit)
    (c,) = cli.veronese_checks(variety_f3, ("vertexlocal",))
    first = variety_f3.tubes[0].vertex
    assert c.status == "fail" and "chi_v_witness" not in c.computed
    assert c.witnesses == [first.rows, wit]


@pytest.mark.parametrize("pos", [1, 3])
def test_cor_reports_a_chi_member_off_its_pencil(pos, tmp_path, monkeypatch,
                                                 chi_member_off_pencil):
    real = cli.vr._chi_cross_ratio
    seen = []

    def broken(V, data, chi):
        bad, conic, x = chi_member_off_pencil(V, data, chi, pos)
        seen.append({"conic": conic, "point": x})
        return real(V, data, bad)

    monkeypatch.setattr(cli.vr, "_chi_cross_ratio", broken)
    out = tmp_path / "cor.json"
    rc = cli.main(["veronese", "--algebra", "CD(F3,0)", "--check", "cor",
                   "--out", str(out)])
    assert rc == 1
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert check["cor.chi"]["status"] == "fail"
    assert check["cor.chi"]["computed"]["cross_ratio"] is False
    assert check["cor.chi"]["witnesses"] == json.loads(json.dumps(seen))


@pytest.mark.parametrize("name,producer,key", [
    ("cor.spread", "vertex_space_y", "x_disjoint"),
    ("cor.F_section", "project_from_y", "xi_cap_f_matches"),
    ("cor.chi", "connection_chi", "pstar_is_residue_plane"),
])
def test_cor_sub_verdict_decides_its_check(name, producer, key,
                                           monkeypatch):
    args = ["veronese", "--algebra", "CD(F2,0)", "--check", "cor"]
    report, status, _ = run_cli(args)
    assert status == 0
    assert {c["name"]: c["status"] for c in report["checks"]}[name] == "pass"
    real = getattr(cli.vr, producer)

    def broken(*a):
        out = real(*a)
        next(part for part in out
             if isinstance(part, dict) and key in part)[key] = False
        return out

    monkeypatch.setattr(cli.vr, producer, broken)
    report, status, _ = run_cli(args)
    check = {c["name"]: c for c in report["checks"]}[name]
    assert status == 1 and check["status"] == "fail"
    assert check["computed"][key] is False


def test_point_line_neighbouring_reports_its_witness(monkeypatch):
    args = ["plane", "--algebra", "CD(F2,0)", "--check",
            "neighbour-consistency"]
    report, status, _ = run_cli(args)
    by_name = {c["name"]: c for c in report["checks"]}
    assert status == 0
    assert by_name["point_line_neighbouring"]["witnesses"] == []
    plane = hjplane.build_plane(algebras.parse_algebra("CD(F2,0)"))
    wit = (plane.points[3], plane.lines[5])
    monkeypatch.setattr(hjplane, "nonneighbouring_point_line_consistency",
                        lambda plane: (False, wit))
    report, status, _ = run_cli(args)
    check = {c["name"]: c for c in report["checks"]}[
        "point_line_neighbouring"]
    assert status == 1 and check["status"] == "fail"
    # the witness is reported with coordinate tuples
    assert check["witnesses"] == [cli._jsonable(
        tuple(hjplane.coords(plane.algebra, obj) for obj in wit))]


@pytest.mark.parametrize("algebra", ["CD(F3,-1)", "CDu(F2,1)"])
def test_point_line_neighbouring_on_division_algebras(algebra, monkeypatch):
    # over a division algebra a point and a line are neighbouring iff
    # incident; a predicate reading only the B-part of the incidence
    # value, as for CD(B, 0), must fail the check
    args = ["plane", "--algebra", algebra, "--check",
            "neighbour-consistency"]
    report, status, _ = run_cli(args)
    check = {c["name"]: c for c in report["checks"]}[
        "point_line_neighbouring"]
    assert status == 0 and check["status"] == "pass"

    def b_part_only(plane, p, l):
        value = hjplane.incidence_value(plane.algebra, p, l)
        return plane.algebra.tables.b_part[value] == 0

    monkeypatch.setattr(hjplane.IncidenceStructure,
                        "point_line_neighbouring", b_part_only)
    report, status, _ = run_cli(args)
    check = {c["name"]: c for c in report["checks"]}[
        "point_line_neighbouring"]
    assert status == 1 and check["status"] == "fail"
    assert len(check["witnesses"]) == 1


def test_plane_past_the_table_bound_is_refused_at_once(capsys):
    # |CD(F7,3,0)| = 7^4 = 2401 > 1024: refused before any enumeration
    t0 = time.perf_counter()
    assert cli.main(["plane", "--algebra", "CD(F7,3,0)"]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("ringgeom: AlgebraError: ")
    assert err.count("\n") == 1 and "2401" in err
    assert str(algebras.TABLE_BOUND) in err


def test_scroll_quadrics_fail_with_swapped_zero_counts(monkeypatch):
    # the quadrics of the regular 2-scroll are elliptic quadrics of
    # PG(3, 3): with the hyperbolic and elliptic counts swapped, no form
    # through them has exactly their zeros and Witt index 1
    monkeypatch.setattr(projective, "zero_count",
                        ref.swap_hyperbolic_elliptic(projective.zero_count))
    report, status, _ = run_cli(["scroll", "--d", "2", "--field", "F3"])
    checks = {c["name"]: c for c in report["checks"]}
    assert status == 1 and checks["quadrics"]["status"] == "fail"
    assert checks["quadrics"]["computed"] == 0


@pytest.mark.parametrize("expr", ["CD(Q,-1,0)", "CD(Q,-1,-1,0)"])
def test_algebra_over_q_with_a_radical_is_decided_exactly(expr):
    report, status, _ = run_cli(["algebra", "--algebra", expr])
    checks = {c["name"]: c for c in report["checks"]}
    assert status == 0
    assert all(c["status"] == "pass" for c in report["checks"])
    assert checks["classify.division"]["computed"] is False


def test_scroll_over_a_field_past_byte_rows_exits_2(capsys):
    assert cli.main(["scroll", "--d", "1", "--field", "F131"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ringgeom: FieldError: F_131 does not fit")
    assert err.count("\n") == 1 and "Traceback" not in err
