"""Which engine functions the traced run wraps, and the per-layer metrics.

A layer is named after the ``repro`` module it lives in; the wrapped
functions are that layer's entry points (mostly public methods; the
actor runtime's delivery and turn entry points are private, and are
wrapped because every actor turn starts there).  :func:`install` patches
them onto a :class:`~tracer.LayerTracer`; :func:`per_layer_metrics`
turns the tracer's totals over the measured window into the metrics
``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from tracer import LayerTracer

#: the layers whose self time is reported as ``self_s.<layer>``: together
#: with the tracer's own ``trace.bookkeeping_s`` and ``other_s``, the
#: residual no layer's frame covers, they partition the traced window's
#: wall time.  Frames named outside these layers (``task.step``) count
#: towards ``other_s``.
LAYERS = ("client", "actors", "coord", "pact", "act", "schedule", "locks",
          "guard", "recovery", "state", "wal", "runtime", "trace", "sim")


def install(tracer: LayerTracer, backend: str) -> None:
    """Wrap each layer's entry points for the duration of a traced run."""
    from repro.actors.runtime import ActorRuntime
    from repro.core import transactional_actor
    from repro.core.coordinator import CoordinatorActor
    from repro.core.engine import act, pact, recovery
    from repro.core.engine.act import ActExecutor
    from repro.core.engine.guard import SerializabilityGuard
    from repro.core.engine.hybrid import HybridScheduler
    from repro.core.engine.pact import PactExecutor
    from repro.core.locks import ActorLock
    from repro.core.transactional_actor import TransactionalActor
    from repro.persistence.logger import LoggerGroup
    from repro.persistence.wal import WriteAheadLog
    from repro.trace import TxnTracer

    counters = tracer.counters

    # repro.actors: message send/delivery, turns, activations
    tracer.patch(ActorRuntime, "send", "actors.send")
    tracer.patch(ActorRuntime, "_deliver", "actors.deliver")
    tracer.patch(ActorRuntime, "_run_turn", "actors.turn")
    tracer.patch(TransactionalActor, "on_activate", "actors.activate")
    tracer.patch(TransactionalActor, "call_actor", "actors.call")

    # repro.core.engine.recovery: each scan walks every logger's WAL
    def scanned(actor_id: Any, loggers: Any, *rest: Any, **kw: Any) -> None:
        counters["recovery.records_scanned"] += sum(
            len(logger.wal) for logger in loggers.loggers)

    tracer.patch(transactional_actor, "recover_state_ex",
                 "recovery.recover_state", on_call=scanned)
    tracer.patch(transactional_actor, "in_doubt_tail",
                 "recovery.in_doubt_tail", on_call=scanned)
    tracer.patch(transactional_actor, "resolve_in_doubt_tail",
                 "recovery.resolve_in_doubt")

    # repro.core state copying: the outermost copy.deepcopy calls
    for module in (transactional_actor, act, pact, recovery):
        tracer.patch_deepcopy(module, "state.deepcopy")

    # repro.core.coordinator
    def formed(coordinator: Any, token: Any, pacts: List[Any]) -> None:
        counters["coord.pacts_batched"] += len(pacts)

    tracer.patch(CoordinatorActor, "new_pact", "coord.new_pact")
    tracer.patch(CoordinatorActor, "new_act", "coord.new_act")
    tracer.patch(CoordinatorActor, "receive_token", "coord.receive_token")
    tracer.patch(CoordinatorActor, "_form_batch", "coord.form_batch",
                 on_call=formed)

    # repro.core.engine (PACT / ACT paths, hybrid schedule, guard), locks
    tracer.patch(PactExecutor, "invoke", "pact.invoke")
    tracer.patch(ActExecutor, "invoke", "act.invoke")
    tracer.patch(ActExecutor, "commit", "act.commit")
    tracer.patch(HybridScheduler, "await_pact_turn", "schedule.pact_turn")
    tracer.patch(HybridScheduler, "admit_act", "schedule.admit_act")
    tracer.patch(ActorLock, "acquire", "locks.acquire")
    tracer.patch(ActorLock, "release", "locks.release")
    tracer.patch(SerializabilityGuard, "check", "guard.check")

    # repro.persistence
    tracer.patch(LoggerGroup, "persist", "wal.persist")
    tracer.patch(WriteAheadLog, "append", "wal.append")

    # repro.trace: the transaction tracer the schedule check reads
    tracer.patch(TxnTracer, "record", "trace.record")

    # repro.runtime / repro.sim
    if backend == "sim":
        from repro.sim.loop import SimLoop
        from repro.sim.resources import CpuPool, IoDevice
        from repro.sim.task import Task

        tracer.patch(SimLoop, "run", "sim.run")
        # every task step is a frame of its own, outside the sim layer:
        # what a step runs besides wrapped calls (unwrapped engine code,
        # the client's generator) then lands in other_s, as it does on
        # asyncio, and sim.run's self time is only the kernel's heap pop
        # and dispatch.
        tracer.patch(Task, "_step", "task.step")
        tracer.patch(SimLoop, "create_task", "runtime.create_task")
        tracer.patch(CpuPool, "execute", "sim.cpu")
        tracer.patch(IoDevice, "flush", "sim.io")
    else:
        from repro.runtime.aio import AioCpuPool, AioIoDevice
        from repro.runtime.aio_backend import AsyncioBackend

        tracer.patch(AsyncioBackend, "create_task", "runtime.create_task")
        tracer.patch(AioCpuPool, "execute", "runtime.cpu")
        tracer.patch(AioIoDevice, "flush", "runtime.io")


def metric(value: float, unit: str) -> Dict[str, Any]:
    """One entry of a result's ``metrics`` object."""
    return {"value": value, "unit": unit}


def _layer_sum(totals: Dict[str, float], layer: str) -> float:
    prefix = layer + "."
    return sum(value for name, value in totals.items()
               if name.startswith(prefix))


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


class Window:
    """Tracer totals at the start and the end of the measured window."""

    def __init__(self) -> None:
        self.start: Optional[Dict[str, Dict[str, float]]] = None
        self.end: Optional[Dict[str, Dict[str, float]]] = None

    @staticmethod
    def snapshot(tracer: LayerTracer, loggers: Any) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(tracer.calls),
            "raised": dict(tracer.raised),
            "self": dict(tracer.self_s),
            "busy": dict(tracer.busy_s),
            "wait": dict(tracer.wait_s),
            "counters": dict(tracer.counters),
            "tracer": {"bookkeeping": tracer.bookkeeping_s},
            "wal": {
                "records": loggers.records_persisted(),
                "bytes": loggers.bytes_written(),
                "flushes": sum(log.io.flushes for log in loggers.loggers),
            },
        }

    def deltas(self) -> Dict[str, Dict[str, float]]:
        return {key: _delta(self.end[key], self.start[key])
                for key in self.end}


def per_layer_metrics(
    window: Dict[str, Dict[str, float]],
    *,
    wall_s: float,
    txns: int,
    committed: int,
    attempted: int,
    aborts: Dict[str, int],
    abort_reasons: List[str],
    lag_p99_ms: float,
    sim_events: int,
    overhead: float,
) -> Dict[str, Dict[str, Any]]:
    """The ``per_layer`` metrics of one traced window.

    ``txns`` and ``committed`` count the transactions emitted and
    committed inside the window, the bases of the ``*_per_txn`` ratios;
    ``attempted`` and ``aborts`` cover the whole execution.
    """
    calls = window["calls"]
    raised = window["raised"]
    self_s = window["self"]
    busy = window["busy"]
    wait = window["wait"]
    extra = window["counters"]
    wal = window["wal"]
    txns = max(txns, 1)
    activations = calls.get("actors.activate", 0)
    batches = calls.get("coord.form_batch", 0)
    new_pacts = calls.get("coord.new_pact", 0)
    persists = calls.get("wal.persist", 0)
    flushes = wal["flushes"]

    out = {
        "actors.activations": metric(activations, "count"),
        "actors.activation_s": metric(busy.get("actors.activate", 0.0), "s"),
        "actors.messages_per_txn": metric(
            calls.get("actors.send", 0) / txns, "count"),
        "recovery.scan_s": metric(
            busy.get("recovery.recover_state", 0.0)
            + busy.get("recovery.in_doubt_tail", 0.0), "s"),
        "recovery.records_scanned_per_activation": metric(
            extra.get("recovery.records_scanned", 0) / max(activations, 1),
            "count"),
        "state.copies_per_txn": metric(
            calls.get("state.deepcopy", 0) / txns, "count"),
        "state.copy_s": metric(busy.get("state.deepcopy", 0.0), "s"),
        "coord.batches": metric(batches, "count"),
        "coord.pacts_per_batch": metric(
            extra.get("coord.pacts_batched", 0) / max(batches, 1), "count"),
        "coord.token_wait_ms": metric(
            1e3 * wait.get("coord.new_pact", 0.0) / max(new_pacts, 1), "ms"),
        "schedule.turn_wait_s": metric(
            wait.get("schedule.pact_turn", 0.0)
            + wait.get("schedule.admit_act", 0.0), "s"),
        "locks.acquires": metric(calls.get("locks.acquire", 0), "count"),
        "locks.wait_s": metric(wait.get("locks.acquire", 0.0), "s"),
        "act.commit_2pc_s": metric(
            busy.get("act.commit", 0.0) + wait.get("act.commit", 0.0), "s"),
        "guard.aborts": metric(raised.get("guard.check", 0), "count"),
        "wal.records": metric(wal["records"], "count"),
        "wal.bytes_per_txn": metric(wal["bytes"] / max(committed, 1), "B"),
        "wal.flushes": metric(flushes, "count"),
        "wal.records_per_flush": metric(
            wal["records"] / max(flushes, 1), "count"),
        "wal.append_s": metric(busy.get("wal.append", 0.0), "s"),
        "wal.persist_wait_ms": metric(
            1e3 * wait.get("wal.persist", 0.0) / max(persists, 1), "ms"),
        "runtime.loop_lag_p99_ms": metric(lag_p99_ms, "ms"),
        "runtime.tasks_per_txn": metric(
            calls.get("runtime.create_task", 0) / txns, "count"),
        "sim.events_per_txn": metric(sim_events / txns, "count"),
        "sim.self_s": metric(_layer_sum(self_s, "sim"), "s"),
        "trace.overhead": metric(overhead, "ratio"),
        "trace.bookkeeping_s": metric(window["tracer"]["bookkeeping"], "s"),
    }
    for reason in abort_reasons:
        out[f"aborts.{reason}"] = metric(
            aborts.get(reason, 0) / max(attempted, 1), "ratio")
    covered = 0.0
    for layer in LAYERS:
        layer_self = _layer_sum(self_s, layer)
        covered += layer_self
        out[f"self_s.{layer}"] = metric(layer_self, "s")
    out["other_s"] = metric(
        wall_s - covered - window["tracer"]["bookkeeping"], "s")
    return out
