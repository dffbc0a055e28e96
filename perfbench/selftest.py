"""Self-test of the benchmark at tiny sizes; exits non-zero on a failure.

    python3 perfbench/selftest.py

Each workload runs twice, untraced and traced, on the default seed: the
answers' digests and every count metric must repeat exactly, the traced
answers must equal the untraced ones, and the wrappers must all be gone
afterwards.  On 4x4 grids the minimum must also equal the brute-force
minimum of the energy as generated.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from subquad import oracle  # noqa: E402

# ops per tiny run, and grid side where the workload has one
TINY = {"quartic": (6, 0), "cubic": (4, 0), "grid_pairwise": (3, 4), "grid_cliques": (2, 4)}

COUNTS = (
    "lpsolver.solve.calls", "lpsolver.solve.optimal_ratio", "lpsolver.solve.rows_mean",
    "lpsolver.solve.cols_mean", "reduce_quartic.calls", "reduce_quartic.solves_per_call_p50",
    "reduce_quartic.solves_per_call_max", "reduce_quartic.first_lp_ratio",
    "reduce_general.nearest_quadratic.calls", "reduce_general.solves_per_call",
    "oracle.verify_reduction.calls", "oracle.verify_reduction.pass_ratio", "maxflow.nodes",
    "maxflow.arcs", "pbf.terms", "input.distinct_ratio", "aux_per_clique",
)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def untraced_twice(name, n_ops, side):
    first, second = (
        run.run_untraced(name, workloads.DEFAULT_SEED, 0, side, max_ops=n_ops, setup=False)
        for _ in range(2)
    )
    for key in ("ops", "failed", "digest", "aux_per_clique"):
        check(first[key] == second[key], f"{name}: untraced {key} differs between runs")
    check(first["failed"] == 0, f"{name}: {first['failed']} ops failed")
    ratio = "vars_per_input_var"
    check(first["metrics"][ratio] == second["metrics"][ratio], f"{name}: {ratio} differs")
    return first["digest"]


# layer spans each workload must record; verify_reduction is reached only
# through the from-import bindings in reduce_quartic and reduce_general
REACHED = {
    "quartic": ("lpsolver.solve.calls", "reduce_quartic.calls", "oracle.verify_reduction.calls"),
    "cubic": ("lpsolver.solve.calls", "reduce_general.nearest_quadratic.calls",
              "oracle.verify_reduction.calls"),
    "grid_pairwise": ("maxflow.nodes", "pbf.terms"),
    "grid_cliques": ("lpsolver.solve.calls", "reduce_quartic.calls", "maxflow.nodes"),
}


def traced_twice(name, n_ops, side, untraced_digest):
    first, second = (run.run_traced(name, workloads.DEFAULT_SEED, n_ops, side) for _ in range(2))
    for key in COUNTS:
        check(first["metrics"][key] == second["metrics"][key], f"{name}: {key} differs between runs")
    check(first["digest"] == second["digest"] == untraced_digest,
          f"{name}: traced digest differs from the untraced one")
    check(first["failed"] == 0, f"{name}: {first['failed']} traced ops failed")
    for key in REACHED[name]:
        check(first["metrics"][key] > 0, f"{name}: no spans behind {key}")
    if name == "grid_pairwise":
        check(first["metrics"]["lpsolver.solve.calls"] == 0, "grid_pairwise solved an LP")
    check(first["metrics"]["glue.s"] >= 0, f"{name}: spans cover more than the op time")


def bindings_restored():
    for name, (home, attr, _) in tracing.TRACED.items():
        original = getattr(home, attr)
        check(getattr(original, "__name__", "") != "traced", f"{name} left wrapped")
    from subquad import maxflow, pbf, reduce_general, reduce_quartic

    check(reduce_quartic.verify_reduction is oracle.verify_reduction, "verify binding left wrapped")
    check(reduce_general.verify_reduction is oracle.verify_reduction, "verify binding left wrapped")
    check(maxflow.to_capacity_form is pbf.to_capacity_form, "capacity binding left wrapped")


def brute_force_minima():
    patterns = {g: workloads.reduce_quartic.generator_patterns(g) for g in workloads.CLIQUE_GROUPS}
    rng = random.Random(workloads.DEFAULT_SEED)
    pairwise = workloads.WORKLOADS["grid_pairwise"]
    cliques = workloads.WORKLOADS["grid_cliques"]
    for _ in range(3):
        text = workloads.random_pairwise_text(rng, 4)
        h, value, _ = pairwise.op(None, text)
        check(value == oracle.brute_min(h.poly)[0], "grid_pairwise min differs from brute force")
        energy = workloads.random_clique_energy(rng, 4, patterns)
        _, value, _, _ = cliques.op(None, energy)
        check(value == oracle.brute_min(energy.as_poly())[0], "grid_cliques min differs from brute force")


def main() -> int:
    for name, (n_ops, side) in TINY.items():
        digest = untraced_twice(name, n_ops, side or None)
        traced_twice(name, n_ops, side or None, digest)
        print(f"selftest {name}: counts and digest repeat ({n_ops} ops)")
    bindings_restored()
    brute_force_minima()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
