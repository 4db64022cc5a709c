"""The benchmark's workloads: seeded closed loops over ``SnapperSystem``.

Each workload is driven by one :class:`~repro.workloads.client.ClientPool`
(one client keeping 32 transactions in flight) on one event loop, and
submits through ``SnapperSystem.submit``.  The inputs are generated here
from the ``--seed``; the engine only receives the generated requests.

Why these three:

``smallbank_wide``
    asyncio backend, in-memory WAL; SmallBank MultiTransfer (4 accounts,
    90% PACT) uniform over 10,000 accounts.  Almost every touch activates
    a cold actor, and each activation scans the whole WAL, so recovery
    and activation dominate and throughput falls as the log grows.
``tpcc_neworder``
    asyncio backend, file-backed WAL (pickle + write + fsync per record);
    TPC-C NewOrder, 100% PACT, over ~40 actors that are all warm after a
    few transactions.  Whole-state copies of the growing customer, stock
    and order states dominate, then WAL appends.
``smallbank_hot``
    DES backend; SmallBank MultiTransfer (4 accounts, 50% PACT) zipf 0.9
    over 256 accounts.  Exercises S2PL wait-die, 2PC, the BeforeSet /
    AfterSet guard and hybrid interleaving; about half the transactions
    abort.  The simulated work is a pure function of the seed, so a
    run's virtual metrics and committed-state digests repeat exactly for
    the same ``--seed`` and ``--seconds``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.actors.runtime import SiloConfig
from repro.api import TxnRequest
from repro.core.config import SnapperConfig
from repro.core.system import SnapperSystem
from repro.errors import AbortReason, TransactionAbortedError
from repro.runtime.kernel import gather, spawn
from repro.workloads.client import ClientPool
from repro.workloads.distributions import UniformDistribution, ZipfDistribution
from repro.workloads.metrics import MetricsCollector
from repro.workloads.smallbank import (
    ACCOUNT_KIND,
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    SmallBankWorkload,
    SnapperAccountActor,
)
from repro.workloads.tpcc import TpccLayout, TpccWorkload, tpcc_actor_families

#: the closed loop: one client keeping this many transactions in flight.
NUM_CLIENTS = 1
PIPELINE_SIZE = 32
#: accounts a SmallBank MultiTransfer touches (the source and 3 others);
#: amounts are 1.0, so balances stay integral and sums exact.
TXN_SIZE = 4
#: the first district order id TPC-C hands out (``DistrictLogic``).
FIRST_ORDER_ID = 3001
#: every reason an abort may legitimately carry.
ABORT_REASONS = tuple(
    value for name, value in vars(AbortReason).items()
    if name.isupper() and isinstance(value, str)
)
#: asyncio workloads: fresh executions per run, each measuring an equal
#: share of the run's seconds from an empty log.  Throughput falls as
#: the log grows, so every execution covers the same stretch of history;
#: latency percentiles are taken over the commits of all of them.
ASYNCIO_EXECUTIONS = 3
#: DES workloads: virtual seconds one repetition simulates, and the wall
#: seconds that takes on the reference machine (a 2-core x86-64
#: container), which sets how many repetitions fill a run.
SIM_WINDOW = 1.0
SIM_WALL_PER_REPETITION = 4.0
#: set-up samples per run, and the pause between them.
SETUP_SAMPLES = 9
SETUP_SPACING_S = 0.25
#: backend-clock seconds a stopped system runs before its backend closes.
SETTLE_S = 0.05
#: heartbeat period of the loop-lag probe (asyncio workloads).
HEARTBEAT_S = 0.002


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    backend: str
    benchmark: str  # "smallbank" | "tpcc"
    file_wal: bool = False
    accounts: int = 0
    zipf: Optional[float] = None
    pact_share: float = 1.0


WORKLOADS: Dict[str, WorkloadSpec] = {
    "smallbank_wide": WorkloadSpec(
        "smallbank_wide", "asyncio", "smallbank", accounts=10_000,
        pact_share=0.9),
    "tpcc_neworder": WorkloadSpec(
        "tpcc_neworder", "asyncio", "tpcc", file_wal=True, pact_share=1.0),
    "smallbank_hot": WorkloadSpec(
        "smallbank_hot", "sim", "smallbank", accounts=256, zipf=0.9,
        pact_share=0.5),
}


# -- transaction generation ----------------------------------------------------
class Generator:
    """Seeded request stream; remembers what it emitted for the checks."""

    def __init__(self, spec: WorkloadSpec, seed: int):
        rng = random.Random(seed)
        if spec.benchmark == "smallbank":
            keys = random.Random(rng.random())
            if spec.zipf is None:
                distribution = UniformDistribution(spec.accounts, keys)
            else:
                distribution = ZipfDistribution(spec.accounts, spec.zipf, keys)
            self._smallbank = SmallBankWorkload(
                distribution, txn_size=TXN_SIZE, amount=1.0,
                pact_fraction=spec.pact_share, rng=rng,
            )
            self._next = self._smallbank.next_txn
        else:
            self.layout = TpccLayout()
            self._tpcc = TpccWorkload(layout=self.layout, rng=rng)
            self._next = self._tpcc.next_new_order
        self.emitted = 0
        self.pacts = 0

    def __call__(self) -> Any:
        spec = self._next()
        self.emitted += 1
        self.pacts += spec.is_pact
        return spec


def request_for(spec: Any) -> TxnRequest:
    if spec.is_pact:
        return TxnRequest.pact(spec.kind, spec.start_key, spec.method,
                               spec.func_input, access=spec.access)
    return TxnRequest.act(spec.kind, spec.start_key, spec.method,
                          spec.func_input)


# -- outcomes ------------------------------------------------------------------
@dataclass
class Outcomes:
    """Per-transaction results of one measured execution."""

    #: (emitted, committed) on the backend's clock
    commits: List[Tuple[float, float]] = field(default_factory=list)
    aborts: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: (warehouse, district) -> committed NewOrders (tpcc)
    new_orders: Dict[Any, int] = field(default_factory=dict)
    #: every account a generated transaction names (smallbank)
    touched: set = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.commits) + sum(self.aborts.values()) + len(
            self.failures)


class Deployment:
    """One built system plus the closed-loop client that drives it."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: str):
        self.spec = spec
        self.tmpdir: Optional[str] = None
        log_dir = None
        if spec.file_wal:
            self.tmpdir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
            log_dir = self.tmpdir
        config = SnapperConfig(runtime_backend=spec.backend, log_dir=log_dir)
        self.system = SnapperSystem(config=config,
                                    silo=SiloConfig(cores=4, seed=seed),
                                    seed=seed)
        self.backend = self.system.backend
        if spec.benchmark == "smallbank":
            self.system.register_actor(ACCOUNT_KIND, SnapperAccountActor)
        else:
            for kind, factory in tpcc_actor_families()["snapper"].items():
                self.system.register_actor(kind, factory)
        self.system.start()
        self.generator = Generator(spec, seed)
        self.outcomes = Outcomes()
        self.pool: Optional[ClientPool] = None
        self.lags: List[float] = []
        self._heartbeat: Any = None
        self._beating = False
        self._closed = False

    # -- submission ---------------------------------------------------------
    async def submit(self, spec: Any) -> Any:
        emitted = self.backend.now
        try:
            result = await self.system.submit(request_for(spec))
        except TransactionAbortedError as exc:
            reason = str(exc.reason)
            self.outcomes.aborts[reason] = self.outcomes.aborts.get(
                reason, 0) + 1
            raise
        except Exception as exc:
            self.outcomes.failures.append(f"{type(exc).__name__}: {exc}")
            raise
        self.outcomes.commits.append((emitted, self.backend.now))
        if spec.method == "new_order":
            district = (spec.func_input["w_id"], spec.func_input["d_id"])
            self.outcomes.new_orders[district] = self.outcomes.new_orders.get(
                district, 0) + 1
        return result

    # -- lifecycle ----------------------------------------------------------
    def start_clients(self) -> None:
        generator = self.generator
        touched = self.outcomes.touched

        def emit() -> Any:
            spec = generator()
            if spec.method == "multi_transfer":
                touched.add(spec.start_key)
                touched.update(spec.func_input[1])
            return spec

        self.pool = ClientPool(
            submit=self.submit, generator=emit, metrics=MetricsCollector(),
            num_clients=NUM_CLIENTS, pipeline_size=PIPELINE_SIZE,
        )

        async def bootstrap() -> None:
            self.pool.start()
            if self.spec.backend == "asyncio":
                self._beating = True
                self._heartbeat = spawn(self._beat())

        self.system.run(bootstrap())

    async def _beat(self) -> None:
        loop = asyncio.get_running_loop()
        while self._beating:
            due = loop.time() + HEARTBEAT_S
            await asyncio.sleep(HEARTBEAT_S)
            self.lags.append(max(0.0, loop.time() - due))

    def run_window(self, seconds: float) -> Tuple[float, float]:
        """Run the closed loop for ``seconds`` of backend time; return
        the wall-clock (start, end) of the window."""
        start = time.perf_counter()
        self.system.run_for(seconds)
        return start, time.perf_counter()

    def drain(self) -> None:
        """Stop emitting and wait until every in-flight transaction ends."""
        pool = self.pool
        pool.stop()

        async def settle() -> None:
            await pool.drain()
            if self._heartbeat is not None:
                self._beating = False
                await gather(self._heartbeat)

        self.system.run(settle())

    def probe(self, requests: List[TxnRequest]) -> List[Any]:
        """Run read-only probe ACTs concurrently; their results in order."""

        async def one(request: TxnRequest) -> Any:
            return await self.system.submit(request)

        async def every() -> List[Any]:
            return await gather(*[spawn(one(r)) for r in requests])

        return self.system.run(every())

    def read_balances(self) -> Dict[int, float]:
        keys = sorted(self.outcomes.touched)
        return dict(zip(keys, self.probe(
            [TxnRequest.act(ACCOUNT_KIND, key, "balance") for key in keys])))

    def read_order_ids(self) -> Dict[Tuple[int, int], int]:
        layout = self.generator.layout
        districts = [(w, d) for w in range(layout.num_warehouses)
                     for d in range(10)]
        audits = self.probe([TxnRequest.act("district", d, "read_audit")
                             for d in districts])
        return {district: audit[1]
                for district, audit in zip(districts, audits)}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.system.shutdown()
            # let the stopped token's last hop and any in-flight message
            # land before the backend reaps its tasks: a turn started
            # during the reaping would be left never awaited.
            self.system.run_for(SETTLE_S)
            self.backend.close()
        finally:
            if self.tmpdir is not None:
                shutil.rmtree(self.tmpdir, ignore_errors=True)


# -- correctness checks --------------------------------------------------------
def check_conservation(balances: Dict[int, float]) -> List[str]:
    """MultiTransfer moves money between accounts and creates none."""
    expected = (INITIAL_CHECKING + INITIAL_SAVINGS) * len(balances)
    total = sum(balances.values())
    if total != expected:
        return [f"money not conserved over {len(balances)} accounts: "
                f"{total!r} != {expected!r}"]
    return []


def check_order_ids(next_ids: Dict[Any, int],
                    committed: Dict[Any, int]) -> List[str]:
    """Each district's d_next_o_id advanced by its committed NewOrders."""
    errors = []
    for district, next_id in sorted(next_ids.items()):
        advanced = next_id - FIRST_ORDER_ID
        if advanced != committed.get(district, 0):
            errors.append(f"district {district}: d_next_o_id advanced "
                          f"{advanced}, committed {committed.get(district, 0)}")
    unknown = set(committed) - set(next_ids)
    if unknown:
        errors.append(f"NewOrders committed on unknown districts {unknown}")
    return errors


def check_outcomes(outcomes: Outcomes, emitted: int) -> List[str]:
    """No non-abort exception, known abort reasons, nothing unresolved."""
    errors = [f"non-abort exception: {failure}"
              for failure in outcomes.failures[:5]]
    unknown = sorted(set(outcomes.aborts) - set(ABORT_REASONS))
    if unknown:
        errors.append(f"abort reasons outside AbortReason: {unknown}")
    if outcomes.attempted != emitted:
        errors.append(f"{emitted - outcomes.attempted} of {emitted} "
                      "transactions never resolved")
    return errors


def check_schedule(txn_tracer: Any) -> List[str]:
    """The recorded schedule is conflict-serializable and every committed
    ACT satisfies Theorem 4.2's max(BeforeSet) < min(AfterSet)."""
    from repro.analysis.tracecheck import check_tracer

    report = check_tracer(txn_tracer)
    return [] if report.ok else ["schedule rejected: " + report.render()]


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- one execution ---------------------------------------------------------------
class Hooks:
    """Call-outs :func:`execute` makes; the traced run overrides them."""

    def built(self, deployment: Deployment) -> None:
        """The system exists and has not run yet."""

    def window_started(self, deployment: Deployment) -> None:
        """The clients are running; the measured window opens."""

    def window_ended(self, deployment: Deployment) -> None:
        """The measured window closed; in-flight transactions remain."""

    def checked(self, deployment: Deployment) -> List[str]:
        """Drained and checked; return further check failures."""
        return []


@dataclass
class Execution:
    """Everything one measured execution produced."""

    outcomes: Outcomes
    emitted: int
    pacts: int
    #: wall-clock (start, end) of the measured window
    window: Tuple[float, float]
    #: backend-clock (start, end) of the measured window
    virtual_window: Tuple[float, float]
    #: transactions emitted inside the window
    window_emitted: int
    #: DES events scheduled inside the window (0 on asyncio)
    sim_events: int
    lags: List[float]
    errors: List[str]
    state_digest: str

    def window_commits(self) -> List[Tuple[float, float]]:
        """Commits that completed inside the measured window."""
        end = self.virtual_window[1]
        return [c for c in self.outcomes.commits if c[1] <= end]

    def window_latencies(self) -> List[float]:
        """Latencies of the commits emitted inside the measured window,
        including those that completed during the drain: selecting by
        completion time would drop the slow transactions emitted late
        in the window and keep the fast ones."""
        start, end = self.virtual_window
        return [done - emitted for emitted, done in self.outcomes.commits
                if start <= emitted <= end]

    @property
    def wall_span(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def virtual_span(self) -> float:
        return self.virtual_window[1] - self.virtual_window[0]


def execute(spec: WorkloadSpec, seed: int, window: float, workdir: str,
            hooks: Optional[Hooks] = None) -> Execution:
    """Build, drive, drain, check and tear down one system; the measured
    window lasts ``window`` seconds of the backend's clock."""
    hooks = hooks or Hooks()
    deployment = Deployment(spec, seed, workdir)
    try:
        hooks.built(deployment)
        deployment.start_clients()
        sim_loop = getattr(deployment.backend, "loop", None)
        events0 = getattr(sim_loop, "_seq", 0)
        emitted0 = deployment.generator.emitted
        virt0 = deployment.backend.now
        hooks.window_started(deployment)
        wall_window = deployment.run_window(window)
        virtual_window = (virt0, deployment.backend.now)
        hooks.window_ended(deployment)
        window_emitted = deployment.generator.emitted - emitted0
        sim_events = getattr(sim_loop, "_seq", 0) - events0
        deployment.drain()
        errors = check_outcomes(deployment.outcomes, deployment.generator.emitted)
        if spec.benchmark == "smallbank":
            balances = deployment.read_balances()
            errors += check_conservation(balances)
            state = sorted(balances.items())
        else:
            next_ids = deployment.read_order_ids()
            errors += check_order_ids(next_ids, deployment.outcomes.new_orders)
            state = sorted(next_ids.items())
        errors += hooks.checked(deployment)
        return Execution(
            outcomes=deployment.outcomes,
            emitted=deployment.generator.emitted,
            pacts=deployment.generator.pacts,
            window=wall_window,
            virtual_window=virtual_window,
            window_emitted=window_emitted,
            sim_events=sim_events,
            lags=deployment.lags,
            errors=errors,
            state_digest=digest(state),
        )
    finally:
        deployment.close()


def plan(spec: WorkloadSpec, seconds: float) -> Tuple[int, float]:
    """How a run of ``seconds`` is measured: ``(executions, window)``.

    On the DES backend the window is a fixed virtual span, repeated as
    often as takes about ``seconds`` of wall time on the reference
    machine, so the virtual metrics are a pure function of ``(seed,
    seconds)``."""
    if spec.backend == "sim":
        return max(1, round(seconds / SIM_WALL_PER_REPETITION)), SIM_WINDOW
    return ASYNCIO_EXECUTIONS, seconds / ASYNCIO_EXECUTIONS


def repetition_seed(seed: int, index: int) -> int:
    return seed if index == 0 else seed * 1_000_003 + index


def measure(spec: WorkloadSpec, seed: int, seconds: float,
            workdir: str) -> List[Execution]:
    executions, window = plan(spec, seconds)
    return [execute(spec, repetition_seed(seed, index), window, workdir)
            for index in range(executions)]


def time_setup(spec: WorkloadSpec, seed: int, workdir: str) -> List[float]:
    """Wall times to build a system, start it and commit one probe ACT.

    The samples are spread over a few seconds: on a shared host the CPU
    speed swings by tens of percent on 0.1-1 s timescales, and a single
    millisecond-long set-up would sample one instant of that swing."""
    samples = []
    for index in range(SETUP_SAMPLES):
        if index:
            time.sleep(SETUP_SPACING_S)
        start = time.perf_counter()
        deployment = Deployment(spec, seed, workdir)
        try:
            if spec.benchmark == "smallbank":
                request = TxnRequest.act(ACCOUNT_KIND, 0, "balance")
            else:
                request = TxnRequest.act("district", (0, 0), "read_audit")
            deployment.system.run(deployment.system.submit(request))
            samples.append(time.perf_counter() - start)
        finally:
            deployment.close()
    return samples


def describe(spec: WorkloadSpec, seed: int,
             executions: List[Execution]) -> Dict[str, Any]:
    """The generated mix and what became of it, for the run's log."""
    aborts: Dict[str, int] = {}
    for e in executions:
        for reason, count in e.outcomes.aborts.items():
            aborts[reason] = aborts.get(reason, 0) + count
    emitted = sum(e.emitted for e in executions)
    pacts = sum(e.pacts for e in executions)
    return {
        "workload": spec.name,
        "seed": seed,
        "backend": spec.backend,
        "keyspace": (spec.accounts if spec.benchmark == "smallbank"
                     else "TpccLayout()"),
        "distribution": ("uniform" if spec.zipf is None
                         else f"zipf({spec.zipf})"),
        "pact_share": spec.pact_share,
        "executions": len(executions),
        "emitted": emitted,
        "pacts": pacts,
        "acts": emitted - pacts,
        "committed": sum(len(e.outcomes.commits) for e in executions),
        "committed_in_window": sum(len(e.window_commits())
                                   for e in executions),
        "aborts": aborts,
        "failed": sum(len(e.outcomes.failures) for e in executions),
        "state_digests": [e.state_digest for e in executions],
    }


def ensure_workdir(root: str) -> str:
    path = os.path.join(root, ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path
