"""``repro.runtime``: pluggable execution substrates for the engine.

The engine/actor layers speak only :class:`RuntimeBackend`
(:mod:`repro.runtime.api`); this package ships two implementations —
the deterministic DES reference (:class:`SimBackend`) and a real
``asyncio`` substrate (:class:`AsyncioBackend`) — plus the kernel
dispatch module that lets library code without a backend handle keep
using free functions (:mod:`repro.runtime.kernel`).

Select a backend by name through ``SnapperConfig(runtime_backend=...)``
or build one directly::

    from repro.runtime import create_backend
    backend = create_backend("asyncio", seed=7)

See ``docs/runtime.md`` for the protocol and the differential-testing
story that keeps the two substrates honest against each other.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runtime.api import FutureLike, RuntimeBackend
from repro.runtime.kernel import CancelledErrors

#: backend registry: name -> zero-config factory.
BACKENDS = ("sim", "asyncio")


def create_backend(name: str = "sim", seed: int = 0, **kwargs: Any):
    """Instantiate a backend by registry name."""
    if name == "sim":
        from repro.runtime.sim_backend import SimBackend

        return SimBackend(seed=seed, **kwargs)
    if name == "asyncio":
        from repro.runtime.aio_backend import AsyncioBackend

        return AsyncioBackend(seed=seed, **kwargs)
    raise ValueError(
        f"unknown runtime backend {name!r}; expected one of {BACKENDS}"
    )


def as_backend(loop_or_backend: Optional[Any], seed: int = 0):
    """Coerce legacy loop handles into a backend.

    Accepts a :class:`RuntimeBackend` (returned as-is), a raw
    ``SimLoop`` (its one :class:`SimBackend` adapter, the same object
    the loop installs into the kernel while it runs), or None (fresh
    seeded ``SimBackend``).
    """
    if loop_or_backend is None:
        return create_backend("sim", seed=seed)
    if hasattr(loop_or_backend, "create_future"):
        return loop_or_backend  # already a backend
    return loop_or_backend.backend


__all__ = [
    "BACKENDS",
    "CancelledErrors",
    "FutureLike",
    "RuntimeBackend",
    "as_backend",
    "create_backend",
]
