"""Synchronization primitives for every backend.

All primitives are strictly FIFO: waiters are released in arrival order,
which keeps the simulation deterministic and models the fair queues used
by .NET's synchronization objects closely enough for our purposes.
Futures and timers are created through the kernel dispatch
(:mod:`repro.runtime.kernel`), so this one implementation serves the
virtual-time and the asyncio backends alike (``repro.sim`` re-exports
it).
Construction is loop-free: a primitive can be built before any backend
runs (``SnapperSystem.__init__`` does) because futures are only created
at ``wait``/``acquire`` time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.runtime import kernel


class Event:
    """A level-triggered event: ``wait`` blocks until ``set`` is called."""

    def __init__(self, label: str = "event"):
        self._set = False
        self._waiters: Deque[Any] = deque()
        self.label = label

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        while self._waiters:
            self._waiters.popleft().try_set_result(None)

    def clear(self) -> None:
        self._set = False

    def wait(self) -> Any:
        fut = kernel.Future(label=f"{self.label}.wait")
        if self._set:
            fut.set_result(None)
        else:
            self._waiters.append(fut)
        return fut


class Semaphore:
    """A counting semaphore with FIFO waiters."""

    def __init__(self, value: int, label: str = "sem"):
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self._value = value
        self._waiters: Deque[Any] = deque()
        self.label = label

    @property
    def value(self) -> int:
        return self._value

    @property
    def waiting(self) -> int:
        return sum(1 for w in self._waiters if not w.done())

    async def acquire(self) -> None:
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return
        fut = kernel.Future(label=f"{self.label}.acquire")
        self._waiters.append(fut)
        try:
            await fut
        except BaseException:
            # Cancelled while queued.  Mark the waiter done so
            # ``release`` skips it — otherwise a grant lands on a
            # future nobody consumes and the permit leaks forever.
            if fut.done() and not fut.cancelled():
                # The grant raced the cancellation: pass it on.
                self.release()
            else:
                fut.cancel(f"{self.label}.acquire abandoned")
            raise

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.done():  # cancelled while queued
                continue
            waiter.set_result(None)
            return
        self._value += 1

    async def __aenter__(self) -> "Semaphore":
        await self.acquire()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.release()


class Lock(Semaphore):
    """A mutex; ``async with lock:`` guards a critical section."""

    def __init__(self, label: str = "lock"):
        super().__init__(1, label=label)

    @property
    def locked(self) -> bool:
        return self._value == 0


class Queue:
    """An unbounded FIFO queue with awaitable ``get``."""

    def __init__(self, label: str = "queue"):
        self._items: Deque[Any] = deque()
        self._getters: Deque[Any] = deque()
        self.label = label

    def __len__(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.done():
                continue
            getter.set_result(item)
            return
        self._items.append(item)

    def get(self) -> Any:
        fut = kernel.Future(label=f"{self.label}.get")
        if self._items:
            fut.set_result(self._items.popleft())
        else:
            self._getters.append(fut)
        return fut

    def get_nowait(self) -> Any:
        if not self._items:
            raise IndexError(f"queue {self.label!r} is empty")
        return self._items.popleft()


class Condition:
    """A condition variable bound to no lock.

    ``wait`` returns a future resolved by the next ``notify_all``.  Users
    re-check their predicate in a loop, as with any condition variable.
    """

    def __init__(self, label: str = "cond"):
        self._waiters: Deque[Any] = deque()
        self.label = label

    def wait(self) -> Any:
        fut = kernel.Future(label=f"{self.label}.wait")
        self._waiters.append(fut)
        return fut

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, deque()
        for waiter in waiters:
            waiter.try_set_result(None)

    async def wait_until(
        self, predicate, timeout: Optional[float] = None
    ) -> None:
        """Await until ``predicate()`` is true, re-checking on each notify.

        Raises :class:`TimeoutError` when a ``timeout`` is given and the
        deadline passes first.
        """
        deadline = None if timeout is None else kernel.now() + timeout
        while not predicate():
            waiter = self.wait()
            if deadline is None:
                await waiter
                continue
            remaining = deadline - kernel.now()
            if remaining <= 0:
                raise TimeoutError(f"{self.label}: wait_until timed out")
            timer = kernel.sleep(remaining)
            race = kernel.Future(label=f"{self.label}.race")
            waiter.add_done_callback(lambda f: race.try_set_result("notify"))
            timer.add_done_callback(lambda f: race.try_set_result("timeout"))
            winner = await race
            if winner == "timeout" and not predicate():
                raise TimeoutError(f"{self.label}: wait_until timed out")
