"""Free-function dispatch onto the running runtime backend.

Library code (coordinators, engine layers, workloads, sync primitives)
has no backend handle; it calls these module-level functions, exactly
as it used to call ``repro.sim.loop``'s free functions.  There is one
dispatch path: every call goes to the backend in the ``_current`` slot.
A backend fills the slot for the duration of a run and restores it
afterwards — :class:`AsyncioBackend` around ``run``/``run_until_complete``,
and every ``SimLoop.run`` (raw or through :class:`SimBackend`) with the
loop's one :class:`SimBackend` adapter.  A kernel call made outside any
run raises :class:`~repro.errors.SimulationError`.

Components that must create futures or timers *outside* any run (e.g.
``SnapperSystem.start`` injecting the token before the first ``run``)
hold a backend handle and call it directly instead of going through
this module.
"""

from __future__ import annotations

import asyncio as _asyncio
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Optional

from repro.errors import CancelledError as _SimCancelled
from repro.errors import SimulationError

#: exception types meaning "this task was cancelled" on either backend.
CancelledErrors = (_SimCancelled, _asyncio.CancelledError)


def _outside_run(name: str) -> SimulationError:
    return SimulationError(
        f"kernel call {name!r} outside any run: no runtime backend is "
        "running (call it from inside backend.run/run_until_complete, "
        "or on a backend handle)"
    )


class _NoBackend:
    """The empty slot: every kernel call made outside a run lands here."""

    def __getattr__(self, name: str) -> Any:
        raise _outside_run(name)


_NO_BACKEND = _NoBackend()
_current: Any = _NO_BACKEND


def install(backend: Any) -> Any:
    """Make ``backend`` the dispatch target; return the target it
    replaces, which the caller restores with ``install(previous)`` when
    its run ends."""
    global _current
    previous, _current = _current, backend
    return previous


def current_backend() -> Optional[Any]:
    """The running backend, or None outside any run."""
    return None if _current is _NO_BACKEND else _current


def current_loop() -> Any:
    """The running backend.

    Exposes the loop-ish surface library code touches: ``now``,
    ``sleep``, ``call_later``, ``create_task``, ``rng``.
    """
    if _current is _NO_BACKEND:
        raise _outside_run("current_loop")
    return _current


def now() -> float:
    return _current.now


def sleep(delay: float) -> Any:
    return _current.sleep(delay)


def spawn(coro: Coroutine, label: str = "") -> Any:
    return _current.spawn(coro, label=label)


def gather(*awaitables: Any) -> Any:
    return _current.gather(*awaitables)


def wait_for(awaitable: Any, timeout: float, message: str = "timeout"):
    return _current.wait_for(awaitable, timeout, message=message)


def _future_factory(label: str = "") -> Any:
    """Create a backend-appropriate future."""
    return _current.create_future(label)


if TYPE_CHECKING:
    # annotations like ``List[Future]`` in the engine keep type-checking
    # against the reference future class;  at runtime ``Future(...)`` is
    # the factory, so call sites read exactly as they did when they
    # constructed the sim future directly.
    from repro.sim.future import Future
else:
    Future = _future_factory

#: explicit-name alias for new code.
create_future = _future_factory


def call_later(delay: float, callback: Callable, *args: Any) -> None:
    _current.call_later(delay, callback, *args)


def call_clamped(when: float, callback: Callable, *args: Any) -> None:
    _current.call_clamped(when, callback, *args)


def cpu_pool(cores: int, label: str = "cpu") -> Any:
    return _current.cpu_pool(cores, label=label)


def io_device(
    base_latency: float,
    per_byte: float,
    label: str = "disk",
    bandwidth_cap: Optional[float] = None,
) -> Any:
    return _current.io_device(
        base_latency, per_byte, label=label, bandwidth_cap=bandwidth_cap
    )
