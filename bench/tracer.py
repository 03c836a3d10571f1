"""Per-layer tracing of `ringgeom`, from outside the package.

`Tracer.install()` replaces the public functions and public methods of
the ringgeom modules by wrappers, in every module namespace that holds
them (so `from .projective import span` in another module is wrapped
too).  Nothing under `src/` changes.

* A wrapped call is a span: name, start, end, parent span and operation
  id.  A module's self time is its span time minus the time its child
  spans cover.  Spans of at least SPAN_MIN_S are kept in memory and
  written out by the caller when the run ends; shorter ones are only
  summed.
* COUNT_ONLY functions run millions of times a pass: they are counted,
  not timed.  UNTRACED helpers are not wrapped at all.  The time of both
  falls into the span of their caller.
"""

from __future__ import annotations

import inspect
import itertools
import time
from collections import Counter, defaultdict

MODULES = ("fields", "algebras", "projective", "hjplane", "veronese",
           "motions", "f2geom", "scrolls", "cli")
COUNT_ONLY = {
    "fields.FiniteField.add", "fields.FiniteField.sub",
    "fields.FiniteField.mul", "fields.FiniteField.inv",
    "fields.RationalField.add", "fields.RationalField.sub",
    "fields.RationalField.mul", "fields.RationalField.inv",
    "hjplane.IncidenceStructure.point_neighbouring",
    "hjplane.IncidenceStructure.line_neighbouring",
    "hjplane.IncidenceStructure.point_line_neighbouring",
    "projective.QuadraticForm.evaluate",
}
# tiny helpers called up to 10^7 times a pass whose counts no metric uses
UNTRACED = {
    "algebras.Algebra.b_part", "algebras.Algebra.t_part",
    "hjplane.tilde_triple", "hjplane.incidence_value",
    "motions.perm_mul", "motions.PlaneMap.apply_point",
    "motions.PlaneMap.apply_line",
    "projective.vec_add", "projective.vec_sub", "projective.vec_scale",
    "projective.is_zero_vec", "projective.vec_mat",
    "projective.normalize_point", "projective.QuadraticForm.bilinear",
}
SPAN_MIN_S = 1e-3

# named inclusive timers: group -> the wrapped names it covers.  Nested
# calls within one group are counted once (outermost call only).
GROUPS = {
    "hjplane.verify": ("hjplane.verify_hjelmslev_level2",),
    "veronese.build_variety": ("veronese.build_variety",),
    "veronese.extract_tube": ("veronese.extract_tube",),
    "veronese.counterexample_build": ("veronese.build_h2_counterexample",),
    "veronese.projection": ("veronese.project_from_y",),
    "f2geom.census": ("f2geom.census",),
    "f2geom.projection": ("f2geom.project_m10",),
    "f2geom.witt_lift": ("f2geom.witt_lift",),
    "scrolls.scroll_quadrics": ("scrolls.scroll_quadrics",),
    "cli.report": ("cli.build_report", "cli.emit"),
}
AXIOM_CHECK_PREFIX = "veronese.check_"


class Tracer:
    def __init__(self):
        self.calls = Counter()          # wrapped name -> calls
        self.rref_rows = 0
        self.vertex_in_extract = 0      # quadric_vertex calls inside
        self.self_s = defaultdict(float)  # module -> self seconds
        self.group_s = defaultdict(float)
        self.spans = []                 # (id, parent, name, t0, t1, op)
        self.op = 0
        self._depth = Counter()         # group -> open calls
        self._stack = []                # open spans: [id, child seconds]
        self._ids = itertools.count(1)

    # -- installation -----------------------------------------------------
    def install(self, package):
        mods = {m: getattr(package, m) for m in MODULES}
        wrapped = {}                    # id(original) -> wrapper
        for mname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if mname + "." + name not in UNTRACED:
                        wrapped[id(obj)] = self._wrap(mname, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(mname, obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, name, wrapped[id(obj)])

    def _install_class(self, mname, cls):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            qual = "%s.%s.%s" % (mname, cls.__name__, name)
            # of the field classes, only the COUNT_ONLY scalar ops
            if qual in UNTRACED or (mname == "fields"
                                    and qual not in COUNT_ONLY):
                continue
            if qual in COUNT_ONLY:
                wrapper = self._counter(qual, obj)
            else:
                wrapper = self._wrap(mname, "%s.%s" % (cls.__name__, name),
                                     obj)
            setattr(cls, name, wrapper)

    # -- wrappers ---------------------------------------------------------
    def _counter(self, qual, fn):
        calls = self.calls

        def counted(*args):
            calls[qual] += 1
            return fn(*args)
        return counted

    def _wrap(self, module, name, fn):
        qual = module + "." + name
        group = next((g for g, names in GROUPS.items() if qual in names),
                     None)
        if qual.startswith(AXIOM_CHECK_PREFIX):
            group = "veronese.axiom_checks"
        calls, stack, self_s = self.calls, self._stack, self.self_s
        depth, group_s, spans = self._depth, self.group_s, self.spans
        ids, clock = self._ids, time.perf_counter
        is_rref = qual == "projective.rref"
        is_vertex = qual == "projective.quadric_vertex"

        def traced(*args, **kwargs):
            calls[qual] += 1
            if is_rref:
                rows = args[1] if len(args) > 1 else kwargs["rows"]
                if not hasattr(rows, "__len__"):
                    rows = list(rows)
                    args = (args[0], rows) + args[2:]
                self.rref_rows += len(rows)
            elif is_vertex and depth["veronese.extract_tube"]:
                self.vertex_in_extract += 1
            if group:
                depth[group] += 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[module] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        group_s[group] += dur
                if dur >= SPAN_MIN_S:
                    spans.append((frame[0], parent, qual, t0, t1, self.op))
        return traced

    # -- results ----------------------------------------------------------
    def metrics(self):
        c, g, s = self.calls, self.group_s, self.self_s
        extract = c["veronese.extract_tube"]
        return {
            "fields.mul_calls": self._field_calls("mul"),
            "fields.add_calls": self._field_calls("add"),
            "fields.sub_calls": self._field_calls("sub"),
            "fields.inv_calls": self._field_calls("inv"),
            "algebras.mul_calls": c["algebras.Algebra.mul"],
            "algebras.self_s": s["algebras"],
            "projective.rref_calls": c["projective.rref"],
            "projective.rref_rows": self.rref_rows,
            "projective.reduce_calls": c["projective.Subspace.reduce"],
            "projective.quadric_evaluate_calls":
                c["projective.QuadraticForm.evaluate"],
            "projective.quadric_vertex_calls": c["projective.quadric_vertex"],
            "projective.meet_calls": c["projective.meet"],
            "projective.span_calls": c["projective.span"],
            "projective.self_s": s["projective"],
            "hjplane.build_plane_calls": c["hjplane.build_plane"],
            "hjplane.neighbouring_calls": sum(
                c["hjplane.IncidenceStructure." + n] for n in (
                    "point_neighbouring", "line_neighbouring",
                    "point_line_neighbouring")),
            "hjplane.verify_s": g["hjplane.verify"],
            "hjplane.self_s": s["hjplane"],
            "veronese.build_variety_calls": c["veronese.build_variety"],
            "veronese.build_variety_s": g["veronese.build_variety"],
            "veronese.extract_tube_calls": extract,
            "veronese.extract_tube_s": g["veronese.extract_tube"],
            "veronese.extract_yield": (extract / self.vertex_in_extract
                                       if self.vertex_in_extract else 0.0),
            "veronese.counterexample_build_s":
                g["veronese.counterexample_build"],
            "veronese.axiom_checks_s": g["veronese.axiom_checks"],
            "veronese.projection_s": g["veronese.projection"],
            "veronese.self_s": s["veronese"],
            "motions.materialize_calls": c["motions.materialize"],
            "motions.equivariance_calls": c["motions.verify_equivariance"],
            "motions.self_s": s["motions"],
            "f2geom.census_s": g["f2geom.census"],
            "f2geom.projection_s": g["f2geom.projection"],
            "f2geom.witt_lift_s": g["f2geom.witt_lift"],
            "f2geom.self_s": s["f2geom"],
            "scrolls.scroll_quadrics_s": g["scrolls.scroll_quadrics"],
            "scrolls.self_s": s["scrolls"],
            "cli.report_s": g["cli.report"],
            "cli.self_s": s["cli"],
        }

    def _field_calls(self, op):
        return sum(self.calls["fields.%s.%s" % (cls, op)]
                   for cls in ("FiniteField", "RationalField"))

    def span_records(self):
        return [{"id": i, "parent": p, "name": n, "start": a, "end": b,
                 "op": op} for i, p, n, a, b, op in self.spans]
