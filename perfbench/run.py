"""Wall-clock benchmark of the Snapper reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload smallbank_wide --seed 1 \
        --seconds 30 --trace 0

Runs one workload (``workloads.py`` lists the three and why each was
chosen) against the engine under ``src/``, checks that its outputs are
correct, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` measures one untraced execution (the base of
``trace.overhead``), then one execution with every layer's entry points
wrapped by the span tracer (``layers.py``), and reports the per-layer
metrics; its spans are written to ``.perfbench_out/spans-<workload>.jsonl``
at exit.

The process re-executes itself with ``PYTHONHASHSEED=0``: actor
placement hashes strings, so the DES workload repeats bit for bit only
under a pinned hash seed.  The exit status is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
Metrics = Dict[str, Dict[str, Any]]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def wall_rate(execution: Any) -> float:
    return len(execution.window_commits()) / execution.wall_span


def end_to_end(executions: List[Any], setup: List[float]) -> Metrics:
    """User-visible metrics over every measured execution.

    Latency and ``virtual_tps`` read the backend's clock, the one the
    deployment's users live on: wall time on asyncio, simulated time on
    the DES.  ``wall_tps`` always reads the wall clock: it is the speed
    of the Python code itself."""
    from layers import metric
    from repro.workloads.metrics import percentile

    latencies = [x for e in executions for x in e.window_latencies()]

    def latency_ms(pct: float) -> float:
        """Percentile over the commits of every execution."""
        return 1e3 * percentile(latencies, pct)

    committed_in_window = sum(len(e.window_commits()) for e in executions)
    attempted = sum(e.outcomes.attempted for e in executions)
    committed = sum(len(e.outcomes.commits) for e in executions)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_tps": metric(committed_in_window / sum(
            e.wall_span for e in executions), "1/s"),
        "virtual_tps": metric(committed_in_window / sum(
            e.virtual_span for e in executions), "1/s"),
        "p50_ms": metric(latency_ms(50), "ms"),
        "p99_ms": metric(latency_ms(99), "ms"),
        "commit_rate": metric(committed / max(attempted, 1), "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(spec: Any, seed: int, seconds: float, workdir: str
               ) -> Tuple[List[Any], Metrics]:
    """One untraced and one traced execution; the per-layer metrics."""
    import layers
    import workloads
    from repro.trace import TxnTracer
    from repro.workloads.metrics import percentile
    from tracer import LayerTracer

    _, window_s = workloads.plan(spec, seconds)
    untraced = workloads.execute(spec, seed, window_s, workdir)
    tracer = LayerTracer()
    window = layers.Window()

    class TracedHooks(workloads.Hooks):
        def built(self, deployment: Any) -> None:
            self.txn_tracer = TxnTracer(capacity=10_000_000)
            deployment.system.runtime.services["txn_tracer"] = self.txn_tracer
            deployment.submit = tracer.wrap(deployment.submit, "client.submit")

        def window_started(self, deployment: Any) -> None:
            window.start = window.snapshot(tracer, deployment.system.loggers)

        def window_ended(self, deployment: Any) -> None:
            window.end = window.snapshot(tracer, deployment.system.loggers)

        def checked(self, deployment: Any) -> List[str]:
            return workloads.check_schedule(self.txn_tracer)

    layers.install(tracer, spec.backend)
    try:
        traced = workloads.execute(spec, seed, window_s, workdir,
                                   TracedHooks())
    finally:
        tracer.uninstall()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{spec.name}.jsonl"))
    lags = untraced.lags
    metrics = layers.per_layer_metrics(
        window.deltas(),
        wall_s=traced.wall_span,
        txns=traced.window_emitted,
        committed=len(traced.window_commits()),
        attempted=traced.outcomes.attempted,
        aborts=traced.outcomes.aborts,
        abort_reasons=list(workloads.ABORT_REASONS),
        lag_p99_ms=1e3 * percentile(lags, 99) if lags else 0.0,
        sim_events=traced.sim_events,
        overhead=1.0 - wall_rate(traced) / wall_rate(untraced),
    )
    return [untraced, traced], metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = workloads.ensure_workdir(ROOT)
    if args.trace:
        executions, metrics = traced_run(
            spec, args.seed, args.seconds, workdir)
    else:
        setup = workloads.time_setup(spec, args.seed, workdir)
        executions = workloads.measure(spec, args.seed, args.seconds, workdir)
        metrics = end_to_end(executions, setup)
    errors = [error for e in executions for error in e.errors]
    if spec.backend == "sim" and args.trace:
        # same seed, traced or not: the DES must reach the same state
        digests = {e.state_digest for e in executions}
        if len(digests) != 1:
            errors.append(f"tracing changed the DES outcome: {digests}")
    print("mix: " + json.dumps(workloads.describe(spec, args.seed,
                                                  executions)))
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(e.outcomes.attempted for e in executions),
        "failed": sum(len(e.outcomes.failures) for e in executions),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
