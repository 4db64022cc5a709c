"""Hardware cost models: CPU cores and storage devices.

These two classes substitute for the paper's AWS testbed (§5.1.2).  A
:class:`CpuPool` with *n* slots models an *n*-core silo: every unit of
simulated work must hold a core for its service time, so aggregate
throughput is capped at ``n / mean_service_time`` exactly as a real silo's
is.  An :class:`IoDevice` models one log file on the SSD: writes are
serialized and each flush costs a base latency plus a per-byte charge,
which is what makes group commit (batched flushes) profitable — the effect
Fig. 12's "CC + Logging" bars hinge on.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.sync import Semaphore
from repro.sim.loop import current_loop


class CpuPool:
    """An ``n``-core processor: work items queue FIFO for a free core."""

    def __init__(self, cores: int, label: str = "cpu"):
        if cores < 1:
            raise ValueError("a silo needs at least one core")
        self.cores = cores
        self.label = label
        self._slots = Semaphore(cores, label=f"{label}.slots")
        #: total core-seconds of work executed (for utilization reports).
        self.busy_time = 0.0
        self.jobs_executed = 0

    async def execute(self, cost: float) -> None:
        """Run ``cost`` seconds of CPU work on one core."""
        if cost < 0:
            raise ValueError(f"negative CPU cost: {cost}")
        if cost == 0:
            return
        await self._slots.acquire()
        try:
            await current_loop().sleep(cost)
            self.busy_time += cost
            self.jobs_executed += 1
        finally:
            self._slots.release()

    def utilization(self, elapsed: float) -> float:
        """Fraction of total core capacity used over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)

    @property
    def queue_length(self) -> int:
        return self._slots.waiting


class IoDevice:
    """A serialized storage device with ``base + per_byte * size`` latency.

    ``flush(size)`` models one synchronous write of ``size`` bytes.  The
    device processes one flush at a time, FIFO — the queueing captures the
    IOPS ceiling of the paper's io2 volume.
    """

    def __init__(
        self,
        base_latency: float,
        per_byte: float,
        label: str = "disk",
        bandwidth_cap: Optional[float] = None,
    ):
        if base_latency < 0 or per_byte < 0:
            raise ValueError("IO costs must be >= 0")
        self.base_latency = base_latency
        self.per_byte = per_byte
        self.label = label
        self.bandwidth_cap = bandwidth_cap
        self._gate = Semaphore(1, label=f"{label}.gate")
        self.flushes = 0
        self.bytes_written = 0
        self.busy_time = 0.0

    def flush_cost(self, size: int) -> float:
        cost = self.base_latency + self.per_byte * size
        if self.bandwidth_cap is not None:
            cost = max(cost, size / self.bandwidth_cap)
        return cost

    async def flush(self, size: int) -> None:
        """Durably write ``size`` bytes; returns when the write is stable."""
        if size < 0:
            raise ValueError(f"negative write size: {size}")
        cost = self.flush_cost(size)
        await self._gate.acquire()
        try:
            await current_loop().sleep(cost)
            self.flushes += 1
            self.bytes_written += size
            self.busy_time += cost
        finally:
            self._gate.release()
