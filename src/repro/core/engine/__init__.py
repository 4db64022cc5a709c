"""The layered transaction engine behind :class:`TransactionalActor`.

The god-module that used to fuse every per-actor protocol mechanism is
decomposed into five small layers, each swappable and testable on its
own:

* :mod:`~repro.core.engine.concurrency` — the
  :class:`ConcurrencyControl` strategy protocol (:class:`WaitDie`,
  :class:`TimeoutOnly`, :class:`NoWait`, :class:`TwoPhaseLockingELR`),
  selected by name through ``SnapperConfig.concurrency_control``;
* :mod:`~repro.core.engine.hybrid` — :class:`HybridScheduler`, the two
  interleaving rules of §4.4.1 over the actor's ``LocalSchedule`` plus
  the BeforeSet/AfterSet evidence queries;
* :mod:`~repro.core.engine.guard` — :class:`SerializabilityGuard`, the
  Theorem 4.2 commit-time check with the incomplete-AfterSet
  optimization;
* :mod:`~repro.core.engine.pact` — :class:`PactExecutor`,
  deterministic batch execution, completion snapshots/votes, batch
  commit, and cascading rollback;
* :mod:`~repro.core.engine.act` — :class:`ActExecutionCore` (the
  engine-agnostic nondeterministic-execution mechanics shared with the
  OrleansTxn baseline) and :class:`ActExecutor` (Snapper's ACT engine:
  S2PL, hybrid admission/evidence, 2PC with presumed abort).

``TransactionalActor`` is the composition root wiring these together;
:mod:`~repro.core.engine.recovery` restores actor state from the WAL
on activation.

**Host contract.**  Executors run *inside* one actor and share its
state blob.  The host object (the actor) provides: ``id``, ``runtime``,
``charge``, ``trace``, ``user_method``, ``actor_ref``,
``incremental_logging``/``capture_delta``, the wired services
(``_config``, ``_loggers``, ``_registry``, ``_controller``,
``_coordinator``), and the state fields ``_state``,
``_committed_state``, ``_delta_buffer``.
"""

from repro.core.engine.act import (
    ActExecutionCore,
    ActExecutor,
    ActRun,
    SnapperActRun,
)
from repro.core.engine.concurrency import (
    CC_STRATEGIES,
    ConcurrencyControl,
    NoWait,
    TimeoutOnly,
    TwoPhaseLockingELR,
    WaitDie,
    register_strategy,
    resolve_concurrency_control,
)
from repro.core.engine.guard import SerializabilityGuard
from repro.core.engine.hybrid import HybridScheduler
from repro.core.engine.pact import PactExecutor
from repro.core.engine.recovery import (
    RecoveryResult,
    RecoveryWarning,
    recover_state_ex,
)
from repro.core.engine.sanitizer import AccessSanitizer, AccessViolation

__all__ = [
    "CC_STRATEGIES",
    "AccessSanitizer",
    "AccessViolation",
    "ActExecutionCore",
    "ActExecutor",
    "ActRun",
    "ConcurrencyControl",
    "HybridScheduler",
    "NoWait",
    "PactExecutor",
    "SerializabilityGuard",
    "SnapperActRun",
    "TimeoutOnly",
    "TwoPhaseLockingELR",
    "WaitDie",
    "RecoveryWarning",
    "recover_state_ex",
    "RecoveryResult",
    "register_strategy",
    "resolve_concurrency_control",
]
