"""Fast tests of the benchmark's output checkers: each accepts a good
output and rejects the same output with one defect.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as wl   # noqa: E402


def test_census_partitions_pg10_2():
    assert sum(wl.M10_CENSUS.values()) == 2 ** 11 - 1
    assert wl.plane_points(4) == 336


@pytest.fixture(scope="module")
def golay_octads():
    """The weight-8 words of the extended quadratic-residue code of
    length 24, built here without ringgeom."""
    residues = {i * i % 23 for i in range(1, 23)}
    shifts = [sum(1 << ((i + k) % 23) for i in residues) for k in range(23)]
    rows = list(wl.gf2_basis(w | 1 << 23 for w in shifts).values())
    words = set()
    for k in range(1 << len(rows)):
        word = 0
        for i, r in enumerate(rows):
            if k >> i & 1:
                word ^= r
        if bin(word).count("1") == 8:
            words.add(word)
    return [tuple(i for i in range(24) if w >> i & 1) for w in sorted(words)]


def test_octads_accepted(golay_octads):
    assert wl.check_octads(golay_octads) == []


def test_octad_with_point_swapped_rejected(golay_octads):
    octads = list(golay_octads)
    first = octads[0]
    outside = min(set(range(24)) - set(first))
    octads[0] = tuple(sorted(first[1:] + (outside,)))
    assert wl.check_octads(octads)


@pytest.fixture(scope="module")
def dump_cd_f2():
    from ringgeom.algebras import parse_algebra
    from ringgeom import veronese as vr
    return json.loads(json.dumps(
        vr.variety_dump(vr.build_variety(parse_algebra("CD(F2,0)")))))


def test_dump_accepted(dump_cd_f2):
    assert wl.check_variety_dump(dump_cd_f2, q=2, base_dim=1) == []


def test_dump_tube_missing_a_point_rejected(dump_cd_f2):
    bad = copy.deepcopy(dump_cd_f2)
    bad["tubes"][5]["x_points"].pop()
    problems = wl.check_variety_dump(bad, q=2, base_dim=1)
    assert any("tube 5" in p for p in problems)


@pytest.fixture(scope="module")
def verify_all_cd_f2(tmp_path_factory):
    from ringgeom import cli
    out = str(tmp_path_factory.mktemp("verify") / "report.json")
    assert cli.main(["verify-all", "--algebra", "CD(F2,0)", "--out", out]) == 0
    with open(out) as fh:
        return json.load(fh)


def test_verify_all_accepted(verify_all_cd_f2):
    assert wl.check_verify_all(verify_all_cd_f2, q=2, base_dim=1) == []


def test_point_count_off_by_one_rejected(verify_all_cd_f2):
    bad = copy.deepcopy(verify_all_cd_f2)
    for c in bad["checks"]:
        if c["name"] == "plane.point_count":
            c["computed"] -= 1
    assert wl.check_verify_all(bad, q=2, base_dim=1)


def test_check_set_to_fail_rejected(verify_all_cd_f2):
    bad = copy.deepcopy(verify_all_cd_f2)
    bad["checks"][-1]["status"] = "fail"
    assert wl.check_verify_all(bad, q=2, base_dim=1)
