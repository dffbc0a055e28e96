"""Spans around subquad's public functions, installed from outside.

``Tracer.install`` replaces every module-level binding of each traced
function in the loaded ``subquad`` modules (including from-imports such as
``reduce_quartic.verify_reduction`` and ``maxflow.to_capacity_form``) and
``uninstall`` puts the originals back.  Spans stay in memory as
(name, start, end, parent, op id, detail) until the run writes them out.
The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

from subquad import lpsolver, maxflow, mbf, oracle, pbf, reduce_general, reduce_quartic

import workloads


def _solve_detail(args, result):
    lp = args[0]
    return {"rows": len(lp.constraints), "cols": len(lp.variables),
            "optimal": result.status == lpsolver.OPTIMAL}


def _verify_detail(args, result):
    return {"passed": result.passed}


def _flow_detail(args, result):
    net = args[0]
    return {"nodes": net.sink + 1, "arcs": len(net.arcs)}


def _minimize_detail(args, result):
    return {"terms": len(args[0].poly.terms)}


# span name -> (module holding the original, attribute, detail extractor)
TRACED = {
    "lpsolver.solve": (lpsolver, "solve", _solve_detail),
    "reduce_quartic.reduce_quartic": (reduce_quartic, "reduce_quartic", None),
    "reduce_general.nearest_quadratic": (reduce_general, "nearest_quadratic", None),
    "reduce_general.build_reduction_lp": (reduce_general, "build_reduction_lp", None),
    "oracle.verify_reduction": (oracle, "verify_reduction", _verify_detail),
    "maxflow.minimize_quadratic": (maxflow, "minimize_quadratic", _minimize_detail),
    "maxflow.build_network": (maxflow, "build_network", None),
    "maxflow.max_flow": (maxflow, "max_flow", _flow_detail),
    "pbf.to_capacity_form": (pbf, "to_capacity_form", None),
    "pbf.parse_polynomial": (pbf, "parse_polynomial", None),
    "pbf.assemble": (workloads, "assemble", None),
    "mbf.enumerate_mbfs": (mbf, "enumerate_mbfs", None),
    "mbf.prune_mbf_set": (mbf, "prune_mbf_set", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, detail]
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, detail):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "subquad" or n.startswith("subquad.")]
        modules.append(workloads)
        for name, (home, attr, detail) in TRACED.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, detail)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, detail in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "detail": detail}) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def _ancestor(self, idx: int, name: str):
        parent = self.spans[idx][3]
        while parent is not None and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent

    def layer_metrics(self, op_seconds: float) -> dict[str, float]:
        """Per-layer numbers over every span recorded (ops and set-up)."""
        own = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        details: dict[str, list] = defaultdict(list)
        in_ops = 0.0
        for idx, (name, start, end, parent, op, detail) in enumerate(self.spans):
            self_s[name] += own[idx]
            if detail is not None:
                details[name].append(detail)
            if op is not None and parent is None:
                in_ops += end - start

        def solves_under(caller):
            counts = {i: 0 for i, s in enumerate(self.spans) if s[0] == caller}
            for i, s in enumerate(self.spans):
                if s[0] == "lpsolver.solve":
                    owner = self._ancestor(i, caller)
                    if owner is not None:
                        counts[owner] += 1
            return list(counts.values())

        def ratio(values):
            return sum(values) / len(values) if values else 0.0

        solves = details["lpsolver.solve"]
        quartic = solves_under("reduce_quartic.reduce_quartic")
        general = solves_under("reduce_general.nearest_quadratic")
        verify = details["oracle.verify_reduction"]
        flows = details["maxflow.max_flow"]
        return {
            "lpsolver.solve.calls": len(solves),
            "lpsolver.solve.self_s": self_s["lpsolver.solve"],
            "lpsolver.solve.optimal_ratio": ratio([d["optimal"] for d in solves]),
            "lpsolver.solve.rows_mean": ratio([d["rows"] for d in solves]),
            "lpsolver.solve.cols_mean": ratio([d["cols"] for d in solves]),
            "reduce_quartic.calls": len(quartic),
            "reduce_quartic.self_s": self_s["reduce_quartic.reduce_quartic"],
            "reduce_quartic.solves_per_call_p50": statistics.median(quartic) if quartic else 0,
            "reduce_quartic.solves_per_call_max": max(quartic, default=0),
            "reduce_quartic.first_lp_ratio": ratio([n == 1 for n in quartic]),
            "reduce_general.nearest_quadratic.calls": len(general),
            "reduce_general.nearest_quadratic.self_s": self_s["reduce_general.nearest_quadratic"],
            "reduce_general.build_reduction_lp.s": self_s["reduce_general.build_reduction_lp"],
            "reduce_general.solves_per_call": ratio(general),
            "oracle.verify_reduction.calls": len(verify),
            "oracle.verify_reduction.self_s": self_s["oracle.verify_reduction"],
            "oracle.verify_reduction.pass_ratio": ratio([d["passed"] for d in verify]),
            "maxflow.max_flow.s": self_s["maxflow.max_flow"],
            "maxflow.build_network.s": self_s["maxflow.build_network"],
            "maxflow.minimize_quadratic.self_s": self_s["maxflow.minimize_quadratic"],
            "maxflow.nodes": ratio([d["nodes"] for d in flows]),
            "maxflow.arcs": ratio([d["arcs"] for d in flows]),
            "pbf.to_capacity_form.s": self_s["pbf.to_capacity_form"],
            "pbf.parse_polynomial.s": self_s["pbf.parse_polynomial"],
            "pbf.assemble.s": self_s["pbf.assemble"],
            "pbf.terms": ratio([d["terms"] for d in details["maxflow.minimize_quadratic"]]),
            "mbf.tables.s": self_s["mbf.enumerate_mbfs"] + self_s["mbf.prune_mbf_set"],
            "glue.s": op_seconds - in_ops,
        }
