"""subquad benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload quartic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, default seed

With ``--trace 0`` ops run until their own time reaches ``--seconds``; each
input is generated and each answer checked outside the clock, and
end-to-end metrics are reported.  With ``--trace 1`` a fixed number of ops
runs twice, untraced and then with spans around subquad's public functions,
and per-layer metrics are reported.  The last stdout line is one JSON object.

Times are reported at reference speed.  The speed this process gets from
its host moves by up to 60% within seconds, and so does the time of a fixed
pure-Python kernel of rational arithmetic; the kernel runs between ops
(outside the clock) and each op's time is scaled by
REFERENCE_KERNEL_S / (mean time of the kernels just before and after it).
Raw times are printed alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 11
REFERENCE_KERNEL_S = 0.0015


def _import_checkout():
    """Import subquad from this checkout's source tree and nowhere else."""
    sys.path[:0] = [SRC, HERE]
    try:
        import subquad
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import subquad from {SRC}: {exc}")
    if not os.path.abspath(subquad.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: subquad resolved to {subquad.__file__}, not {SRC}")


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def reference_kernel() -> float:
    """Seconds this machine takes, right now, for a fixed sum of rationals,
    the same kind of interpreter work as subquad's exact arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)


def measure_setup(name: str) -> float:
    """Median time, at reference speed, for a fresh interpreter to import
    subquad, build what the workload reuses and run one warm-up op."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_SAMPLES):
        before = reference_kernel()
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, name], check=True, cwd=ROOT)
        elapsed = time.perf_counter() - start
        times.append(at_reference_speed(elapsed, before, reference_kernel()))
    return statistics.median(times)


class OpLoop:
    """Closed loop over a workload's inputs; checks each answer untimed."""

    def __init__(self, workload, ctx):
        self.w = workload
        self.ctx = ctx
        self.raw: list[float] = []  # seconds per op as measured
        self.latencies: list[float] = []  # the same at reference speed
        self.outcomes = []
        self.failed = 0
        self.records: list[str] = []
        self._kernel = reference_kernel()

    def step(self, inp, tracer=None, op_id=None):
        before = self._kernel
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            out = self.w.op(self.ctx, inp)
        except Exception as exc:  # counted in error_rate; the run goes on
            self.failed += 1
            self.records.append(f"error {type(exc).__name__}: {exc}")
            return
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            self._kernel = reference_kernel()
            self.raw.append(elapsed)
            self.latencies.append(at_reference_speed(elapsed, before, self._kernel))
        outcome = self.w.check(self.ctx, inp, out)
        if not outcome.ok:
            self.failed += 1
        self.outcomes.append(outcome)
        self.records.append(outcome.record)

    def digest(self, n: int) -> str:
        """SHA-256 over the checked answers of the first n ops."""
        if len(self.records) < n:
            raise ValueError(f"digest needs {n} ops, ran {len(self.records)}")
        return hashlib.sha256("\n".join(self.records[:n]).encode()).hexdigest()

    def aux_per_clique(self) -> float:
        aux = [a for o in self.outcomes for a in o.aux]
        return sum(aux) / len(aux) if aux else 0.0


def recorded_digest(name: str, seed: int) -> str | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[name]


def start_loop(w, seed: int, size: int | None, tracer=None):
    """Set-up (traced when a tracer is given) and one untimed warm-up op,
    then the seeded input stream."""
    from workloads import warm_up

    if tracer is None:
        ctx = w.setup()
    else:
        tracer.install()  # set-up spans carry op id None
        try:
            ctx = w.setup()
        finally:
            tracer.uninstall()
    warm_up(w, ctx)
    stream = w.inputs(random.Random(seed), w.size if size is None else size)
    return OpLoop(w, ctx), stream


def run_untraced(name: str, seed: int, seconds: float, size: int | None = None,
                 max_ops: int | None = None, setup: bool = True) -> dict:
    """Ops until their summed time reaches ``seconds`` (and the digest's ops
    are done), or ``max_ops``; end-to-end metrics."""
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    setup_s = measure_setup(name) if setup else 0.0
    loop, stream = start_loop(w, seed, size)
    digest_ops = w.digest_ops if max_ops is None else min(w.digest_ops, max_ops)
    while (sum(loop.raw) < seconds or len(loop.raw) < digest_ops) and (
        max_ops is None or len(loop.raw) < max_ops
    ):
        loop.step(next(stream))
    lat = sorted(loop.latencies)
    n = len(lat)
    beyond = n - math.ceil(w.tail_percentile / 100 * n)
    in_vars = sum(o.input_vars for o in loop.outcomes)
    out_vars = sum(o.output_vars for o in loop.outcomes)
    return {
        "ops": n,
        "failed": loop.failed,
        "digest": loop.digest(digest_ops),
        "tail_note": f"p{w.tail_percentile} of {n} ops, {beyond} beyond it",
        "aux_per_clique": loop.aux_per_clique(),
        "raw_note": f"{n / sum(loop.raw):.4g} ops/s, p50 {statistics.median(loop.raw) * 1e3:.4g} ms",
        "metrics": {
            "throughput_ops_s": (n / sum(lat), "1/s"),
            "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, w.tail_percentile) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "vars_per_input_var": (out_vars / in_vars if in_vars else 0.0, "ratio"),
        },
    }


def run_traced(name: str, seed: int, n_ops: int | None = None, size: int | None = None,
               spans_path: str | None = None) -> dict:
    """n_ops inputs, each run untraced and traced; per-layer metrics."""
    from tracing import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    n_ops = w.trace_ops if n_ops is None else n_ops
    tracer = Tracer()
    plain, stream = start_loop(w, seed, size, tracer)
    traced = OpLoop(w, plain.ctx)
    keys = []
    for i in range(n_ops):
        inp = next(stream)
        keys.extend(w.keys(inp))
        # each input runs untraced and traced back to back, in alternating
        # order, so drifts in machine speed and warm-up favour neither pass
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_pass:
                plain.step(inp)
                continue
            tracer.install()
            try:
                traced.step(inp, tracer, i)
            finally:
                tracer.uninstall()
    if traced.records != plain.records:
        raise AssertionError("traced answers differ from untraced ones")
    if spans_path is not None:
        tracer.write(spans_path)
    op_s = sum(traced.raw)
    metrics = tracer.layer_metrics(op_s)
    metrics.update({
        "input.distinct_ratio": len(set(keys)) / len(keys),
        "aux_per_clique": plain.aux_per_clique(),
        "trace.op_s": op_s,
        "trace.overhead_ratio": sum(traced.latencies) / sum(plain.latencies) - 1,
    })
    own = tracer.self_times()
    layers_in_ops = sum(t for t, s in zip(own, tracer.spans) if s[4] is not None)
    return {
        "ops": n_ops,
        "failed": plain.failed,
        "digest": plain.digest(min(w.digest_ops, n_ops)),
        "accounting": f"layer self {layers_in_ops:.4f} s + glue {metrics['glue.s']:.4f} s "
                      f"= traced op time {op_s:.4f} s",
        "metrics": metrics,
    }


def _units(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    from workloads import DEFAULT_SEED

    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        result = run_traced(args.workload, args.seed, spans_path=spans)
        metrics = {k: (v, _units(k)) for k, v in result["metrics"].items()}
        print(f"spans: {spans}")
        print(f"accounting: {result['accounting']}")
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
        metrics = result["metrics"]
        print(f"latency_tail_ms is the {result['tail_note']}")
        print(f"aux_per_clique: {result['aux_per_clique']:.4f}")
        print(f"raw (not rescaled): {result['raw_note']}")
    expected = recorded_digest(args.workload, args.seed)
    digest_ok = expected is None or expected == result["digest"]
    note = "not recorded for this seed" if expected is None else (
        "matches the record" if digest_ok else f"MISMATCH, recorded {expected}")
    print(f"digest: {result['digest']} ({note}; default seed {DEFAULT_SEED})")
    attempted, failed = result["ops"], result["failed"]
    print(f"workload={args.workload} seed={args.seed} ops={attempted} failed={failed} "
          f"error_rate={failed / attempted:g}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    correct = failed == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints a table of the metrics."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
