"""Deterministic discrete-event simulation kernel.

This package is the substrate beneath the actor runtime: a virtual-time
event loop that drives plain ``async def`` coroutines.  It plays the role
that the .NET task scheduler and the physical testbed play in the paper,
but with two properties the paper's setup cannot give us: perfect
reproducibility (a seed fully determines the execution) and virtual time
(a 10-second epoch simulates in milliseconds).

Public surface:

* :class:`SimLoop` — the event loop; :func:`current_loop`, :func:`now`.
* :class:`Future`, :class:`Task` — awaitables driven by the loop.
* :func:`sleep`, :func:`spawn`, :func:`gather`, :func:`wait_for`.
* Sync primitives: :class:`Lock`, :class:`Semaphore`, :class:`Event`,
  :class:`Queue`, :class:`Condition`.
* Hardware models: :class:`CpuPool`, :class:`IoDevice`.
"""

from repro.runtime.sync import Condition, Event, Lock, Queue, Semaphore
from repro.sim.future import Future
from repro.sim.loop import (
    SimLoop,
    current_loop,
    gather,
    now,
    sleep,
    spawn,
    wait_for,
)
from repro.sim.resources import CpuPool, IoDevice
from repro.sim.task import Task

__all__ = [
    "SimLoop",
    "Future",
    "Task",
    "current_loop",
    "now",
    "sleep",
    "spawn",
    "gather",
    "wait_for",
    "Lock",
    "Semaphore",
    "Event",
    "Queue",
    "Condition",
    "CpuPool",
    "IoDevice",
]
