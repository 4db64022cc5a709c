"""Tests of the benchmark itself.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
A tiny run of each workload must emit every metric ``BENCHMARK.json``
names, with its unit, and each correctness check must fail on a
deliberately corrupted result.
"""

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from repro.api import TxnRequest
from repro.errors import TransactionAbortedError
from repro.trace import TxnTracer
from repro.workloads.smallbank import ACCOUNT_KIND
from tracer import LayerTracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    # teardown drains the clients, settles, and closes the backend
    assert "Task was destroyed" not in out.stderr
    assert "never awaited" not in out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert f"\n{m['name']} = " in out.stdout
    if not trace:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, WORKLOAD_NAMES[0], 0)
    assert out.returncode != 0
    assert out.stdout == ""


# -- the checks on hand-made results -----------------------------------------
def test_conservation_check():
    assert workloads.check_conservation({1: 20_000.0, 2: 20_000.0}) == []
    assert workloads.check_conservation({1: 20_001.0, 2: 20_000.0})


def test_order_id_check():
    assert workloads.check_order_ids({(0, 0): 3003, (0, 1): 3001},
                                     {(0, 0): 2}) == []
    assert workloads.check_order_ids({(0, 0): 3003}, {(0, 0): 1})
    assert workloads.check_order_ids({(0, 0): 3001}, {(0, 5): 1})


def test_outcome_check():
    ok = workloads.Outcomes(commits=[(0.0, 1.0)],
                            aborts={"act_conflict": 1})
    assert workloads.check_outcomes(ok, emitted=2) == []
    failed = workloads.Outcomes(failures=["KeyError: 3"])
    assert workloads.check_outcomes(failed, emitted=1)
    unknown = workloads.Outcomes(aborts={"gremlins": 1})
    assert workloads.check_outcomes(unknown, emitted=1)
    assert workloads.check_outcomes(ok, emitted=3)  # one never resolved


def _schedule(order):
    tracer = TxnTracer()
    for when, (tid, actor) in enumerate(order):
        tracer.record(float(when), tid, "state_access", mode="ACT",
                      actor=actor, access="ReadWrite")
    for tid in {tid for tid, _ in order}:
        tracer.record(99.0, tid, "committed", mode="ACT")
    return tracer


def test_schedule_check():
    serial = _schedule([(1, "a"), (1, "b"), (2, "a"), (2, "b")])
    assert workloads.check_schedule(serial) == []
    cyclic = _schedule([(1, "a"), (2, "a"), (2, "b"), (1, "b")])
    assert workloads.check_schedule(cyclic)


# -- the checks on corrupted executions ----------------------------------------
class _Corrupt(workloads.Hooks):
    """Commits one transaction behind the client's back."""

    def __init__(self, request_for):
        self.request_for = request_for

    def window_ended(self, deployment):
        for _ in range(50):  # contended ACTs may abort; retry until one lands
            try:
                request = self.request_for(deployment)
                deployment.system.run(deployment.system.submit(request))
                return
            except TransactionAbortedError:
                continue
        raise AssertionError("the corrupting transaction never committed")


def test_money_created_outside_the_clients_is_caught(tmp_path):
    def deposit(deployment):
        key = min(deployment.outcomes.touched)
        return TxnRequest.act(ACCOUNT_KIND, key, "deposit_checking", 5.0)

    spec = workloads.WORKLOADS["smallbank_hot"]
    clean = workloads.execute(spec, 5, 1, str(tmp_path))
    assert clean.errors == []
    corrupted = workloads.execute(spec, 5, 1, str(tmp_path), _Corrupt(deposit))
    assert any("money not conserved" in e for e in corrupted.errors)


def test_uncounted_new_order_is_caught(tmp_path):
    def new_order(deployment):
        return workloads.request_for(deployment.generator._tpcc.next_new_order())

    spec = workloads.WORKLOADS["tpcc_neworder"]
    corrupted = workloads.execute(spec, 5, 0.5, str(tmp_path),
                                  _Corrupt(new_order))
    assert any("d_next_o_id" in e for e in corrupted.errors)
    assert os.listdir(tmp_path) == []  # the temporary WAL dir is removed


def test_des_executions_repeat_exactly(tmp_path):
    spec = workloads.WORKLOADS["smallbank_hot"]
    first = workloads.execute(spec, 11, 1, str(tmp_path))
    second = workloads.execute(spec, 11, 1, str(tmp_path))
    assert first.state_digest == second.state_digest
    assert first.outcomes.commits == second.outcomes.commits
    assert first.outcomes.aborts == second.outcomes.aborts


# -- the span tracer -------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    tracer = LayerTracer(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap(inner, "b.inner")

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0

    tracer.wrap(outer, "a.outer")()
    assert tracer.busy_s["a.outer"] == 6.0
    assert tracer.self_s["a.outer"] == 4.0
    assert tracer.self_s["b.inner"] == 2.0
    outer_span = next(s for s in tracer.spans if s[1] == "a.outer")
    inner_span = next(s for s in tracer.spans if s[1] == "b.inner")
    assert inner_span[4] == outer_span[0]  # parent link


def test_bookkeeping_is_kept_out_of_every_frame():
    clock = _Clock()

    def tick():  # every clock read takes one second
        clock.now += 1.0
        return clock.now

    tracer = LayerTracer(clock=tick)
    traced_inner = tracer.wrap(lambda: None, "b.inner")
    tracer.wrap(lambda: traced_inner(), "a.outer")()
    # outer: enter 1, start 2, [inner: enter 3, start 4, end 5, leave 6],
    # end 7, leave 8; each frame's own time is one tick between start
    # and end that no child covers
    assert tracer.self_s["b.inner"] == 1.0
    assert tracer.self_s["a.outer"] == 2.0
    assert tracer.bookkeeping_s == 4.0  # the reads outside [start, end]
    assert sum(tracer.self_s.values()) + tracer.bookkeeping_s == 8.0 - 1.0


def test_coroutines_report_busy_separately_from_waiting():
    tracer = LayerTracer()

    async def work():
        sum(range(10_000))
        await asyncio.sleep(0.05)
        return 7

    async def main():
        return await tracer.wrap(work, "x.work")()

    assert asyncio.run(main()) == 7
    assert tracer.calls["x.work"] == 1
    assert tracer.wait_s["x.work"] >= 0.04
    assert tracer.busy_s["x.work"] < tracer.wait_s["x.work"]
