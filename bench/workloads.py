"""Workloads of the benchmark and the independent checks of their outputs.

A workload is a fixed list of `ringgeom` commands (one operation each).
Every command writes its report to a file in the pass directory; after
the pass, the checker of each operation reads those files and returns a
list of problems (empty when the output is right).  The checkers use
only the standard library and facts computed here, never `ringgeom`.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass


# --------------------------------------------------------------------------
# GF(2) linear algebra on packed ints (bit i = coordinate i)

def gf2_basis(vectors):
    """Echelon basis of the span, as a dict pivot bit -> row."""
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return basis


def gf2_reduce(v, basis):
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            return v
        v ^= basis[top]
    return 0


def gf2_weight_enumerator(vectors):
    """{weight: count} over the binary code spanned by `vectors`."""
    rows = list(gf2_basis(vectors).values())
    counts = {}
    word = 0
    for k in range(1 << len(rows)):
        if k:
            word ^= rows[(k & -k).bit_length() - 1]     # Gray code step
        w = bin(word).count("1")
        counts[w] = counts.get(w, 0) + 1
    return counts


def pack(bits):
    out = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("coordinate %r is not in F_2" % (b,))
        if b:
            out |= 1 << i
    return out


# --------------------------------------------------------------------------
# facts computed here, apart from the program

def plane_points(q):
    """Points (and lines) of the level-2 plane over CD(B, 0), |B| = q."""
    return q * q * (q * q + q + 1)


GOLAY_ENUMERATOR = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
M10_CENSUS = {"census.x": 21, "census.elliptic": 210,
              "census.triangle_centers": 1120,
              "census.quadrangle_centers": 630, "census.admissible": 66}


# --------------------------------------------------------------------------
# checkers: each returns a list of problems

def report_problems(report, command):
    """Every check of a JSON report has status pass."""
    if report.get("config", {}).get("command") != command:
        return ["report is not for command %r" % command]
    checks = report.get("checks") or []
    if not checks:
        return ["report has no checks"]
    return ["check %s has status %s" % (c["name"], c["status"])
            for c in checks if c["status"] != "pass"]


def computed(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c["computed"]
    raise KeyError(name)


def _expect(problems, report, name, want):
    try:
        got = computed(report, name)
    except KeyError:
        problems.append("check %s is missing" % name)
        return
    if got != want:
        problems.append("%s computed %r, expected %r" % (name, got, want))


def check_verify_all(report, q, base_dim):
    """verify-all over CD(B, 0) with |B| = q and B of dimension base_dim."""
    problems = report_problems(report, "verify-all")
    n = plane_points(q)
    v = base_dim - 1
    _expect(problems, report, "plane.point_count", n)
    _expect(problems, report, "plane.self_dual_counts", n)
    _expect(problems, report, "plane.fiber_sizes", [q * q])
    _expect(problems, report, "veronese.tubes", {"d": base_dim, "v": v})
    _expect(problems, report, "veronese.cor.dim_y", 3 * v + 2)
    return problems


def check_variety_dump(dump, q, base_dim):
    """The dumped Veronese variety of the plane over CD(B, 0) in
    PG(6 dim B + 2, 2), with B of dimension base_dim over F_2."""
    problems = []
    n = plane_points(q)
    ambient = 6 * base_dim + 2
    v, d = base_dim - 1, base_dim
    if dump.get("ambient") != ambient:
        problems.append("ambient PG(%r), expected PG(%d)"
                        % (dump.get("ambient"), ambient))
    raw = dump.get("points") or []
    try:
        points = [pack(p) for p in raw]
    except ValueError as e:
        return problems + [str(e)]
    if any(len(p) != ambient + 1 for p in raw):
        problems.append("a point has the wrong number of coordinates")
    if len(points) != n or len(set(points)) != n or 0 in points:
        problems.append("%d distinct nonzero points of %d, expected %d"
                        % (len(set(points) - {0}), len(points), n))
    if len(gf2_basis(points)) != ambient + 1:
        problems.append("points do not span PG(%d, 2)" % ambient)
    tubes = dump.get("tubes") or []
    xis = dump.get("xi") or []
    if len(tubes) != n or len(xis) != n:
        problems.append("%d tubes and %d tubic spaces, expected %d"
                        % (len(tubes), len(xis), n))
    full = (1 << len(points)) - 1
    cover = [0] * len(points)
    for k, (t, xi) in enumerate(zip(tubes, xis)):
        idx = t.get("x_points") or []
        if len(set(idx)) != q * q + q or \
                not all(0 <= i < len(points) for i in idx):
            problems.append("tube %d has %d points, expected %d"
                            % (k, len(set(idx)), q * q + q))
            continue
        if t.get("v") != v or t.get("d") != d:
            problems.append("tube %d has v=%r d=%r, expected v=%d d=%d"
                            % (k, t.get("v"), t.get("d"), v, d))
        xi_basis = gf2_basis(pack(r) for r in xi)
        if len(xi_basis) != v + d + 3:
            problems.append("tubic space %d has dimension %d, expected %d"
                            % (k, len(xi_basis) - 1, v + d + 2))
        inside = {i for i, p in enumerate(points)
                  if not gf2_reduce(p, xi_basis)}
        if inside != set(idx):
            problems.append("tube %d is not X meet its tubic space" % k)
        vertex = [pack(r) for r in t.get("vertex") or []]
        if len(gf2_basis(vertex)) != v + 1 or \
                any(gf2_reduce(r, xi_basis) for r in vertex):
            problems.append("tube %d vertex is not a PG(%d) in its space"
                            % (k, v))
        mask = 0
        for i in idx:
            mask |= 1 << i
        for i in idx:
            cover[i] |= mask
    uncovered = sum(1 for c in cover if c != full)
    if tubes and uncovered:
        problems.append("(H1) fails: %d points miss a common tube with "
                        "some other point" % uncovered)
    return problems


def check_m10(report):
    problems = report_problems(report, "m10")
    for name, want in M10_CENSUS.items():
        _expect(problems, report, name, want)
    _expect(problems, report, "census.partition", 2 ** 11 - 1)
    _expect(problems, report, "witt.octads",
            math.comb(24, 5) // math.comb(8, 5))
    return problems


def check_octads(octads):
    """759 octads of 24 points: a Steiner system S(5, 8, 24) whose
    characteristic vectors span the extended binary Golay code."""
    problems = []
    want = math.comb(24, 5) // math.comb(8, 5)
    if len(octads) != want or len(set(map(frozenset, octads))) != want:
        problems.append("%d octads, expected %d distinct"
                        % (len(octads), want))
    if any(len(set(o)) != 8 or not all(0 <= i < 24 for i in o)
           for o in octads):
        return problems + ["an octad is not an 8-subset of 24 points"]
    seen = set()
    for o in octads:
        for five in itertools.combinations(sorted(o), 5):
            if five in seen:
                return problems + ["5-set %r lies in two octads" % (five,)]
            seen.add(five)
    if len(seen) != math.comb(24, 5):
        problems.append("%d of the 5-sets lie in an octad" % len(seen))
    words = [sum(1 << i for i in o) for o in octads]
    rank = len(gf2_basis(words))
    if rank != 12:
        return problems + ["octad code has rank %d, expected 12" % rank]
    enum = gf2_weight_enumerator(words)
    if enum != GOLAY_ENUMERATOR:
        problems.append("weight enumerator %r is not the Golay code's"
                        % sorted(enum.items()))
    return problems


def check_scroll(report, q, d):
    problems = report_problems(report, "scroll")
    _expect(problems, report, "quadrics", q ** (2 * d))
    return problems


def check_counterexample(report, q):
    problems = report_problems(report, "veronese")
    npts = (q ** 4 - 1) // (q - 1) * q ** 3
    _expect(problems, report, "ce.H3_le_6", {"6": npts})
    try:
        wit = computed(report, "ce.H2star_fails")
    except KeyError:
        wit = None
    if not (isinstance(wit, list) and len(wit) == 2):
        problems.append("no (H2*) witness pair: %r" % (wit,))
    return problems


# --------------------------------------------------------------------------
# workloads

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_octads(path):
    with open(path) as fh:
        return [tuple(int(x) for x in row) for row in csv.reader(fh) if row]


@dataclass(frozen=True)
class Operation:
    args: tuple          # ringgeom arguments; {out} names the pass directory
    check: object        # callable(pass_dir) -> list of problems
    report: str = ""     # its JSON report, if it writes one

    def argv(self, pass_dir, seed):
        return [a.format(out=pass_dir) for a in self.args] + \
            ["--seed", str(seed)]


def _json_op(args, checker, report="report.json", dump=None):
    def run_check(pass_dir):
        problems = checker(_load_json(os.path.join(pass_dir, report)))
        if dump:
            problems += dump[1](_load_json(os.path.join(pass_dir, dump[0])))
        return problems
    out = ("--out", "{out}/" + report)
    extra = ("--dump", "{out}/" + dump[0]) if dump else ()
    return Operation(tuple(args) + out + extra, run_check, report)


WORKLOADS = {
    # d = 1 plane over CD(F4, 0): 336 points in PG(8, 4), |B| = 4
    "verify-cd-f4": (
        _json_op(("verify-all", "--algebra", "CD(F4,0)"),
                 lambda r: check_verify_all(r, q=4, base_dim=1)),
    ),
    # d = 2 variety over CDu(F2,1,0) = CD(F4, 0) over F2: PG(14, 2);
    # not in BENCHMARK.json, so that the two listed workloads get longer runs
    "veronese-cdu-f2": (
        _json_op(("veronese", "--algebra", "CDu(F2,1,0)",
                  "--check", "H1,H2star,V,tubes,cor,chi"),
                 lambda r: report_problems(r, "veronese"),
                 dump=("tubes.json",
                       lambda d: check_variety_dump(d, q=4, base_dim=2))),
    ),
    # the PG(13, 3) example where (H2*) fails; not in BENCHMARK.json
    "counterexample-f3": (
        _json_op(("veronese", "--check", "counterexample", "--field", "F3"),
                 lambda r: check_counterexample(r, q=3)),
    ),
    "m10-scroll": (
        # no --stabilizer: on some seeds its random generators miss
        # PGammaL(3, 4), and the command exits 1
        _json_op(("m10", "--census", "--zerosum", "--projections", "--witt"),
                 check_m10, report="m10.json"),
        Operation(("witt", "--format", "csv", "--out", "{out}/octads.csv"),
                  lambda p: check_octads(
                      _load_octads(os.path.join(p, "octads.csv")))),
        _json_op(("scroll", "--d", "2", "--field", "F3"),
                 lambda r: check_scroll(r, q=3, d=2), report="scroll.json"),
    ),
}


def checks_passed(ops, pass_dir):
    """Report checks with status pass, over the JSON reports of a pass
    (a report that is missing or unreadable counts none)."""
    total = 0
    for op in (op for op in ops if op.report):
        try:
            rep = _load_json(os.path.join(pass_dir, op.report))
            total += sum(1 for c in rep["checks"] if c["status"] == "pass")
        except (OSError, ValueError, KeyError, TypeError):
            pass
    return total
