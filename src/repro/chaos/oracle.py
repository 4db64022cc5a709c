"""The chaos invariant oracle.

Given the WAL left behind by a faulted run and the outcomes the clients
observed, the oracle reconstructs every actor's post-recovery state with
the *production* recovery routine
(:func:`repro.core.engine.recovery.recover_state_ex`) and checks the
guarantees the paper claims survive failures (§4.2.5, §4.3.4):

C1  committed-durable    every transaction the client saw commit left
                         its marker — with the exact delta — on every
                         actor it touched.
C2  aborts-not-durable   a transaction the client saw *definitely*
                         abort (a protocol abort decision, not a crash
                         or timeout) left its marker nowhere.
C3  atomicity            every marker — including in-doubt ones — is
                         either on all touched actors or on none.
C4  conservation         recovered balances sum to the initial total.
C5  internal consistency each balance equals the initial balance plus
                         the deltas of its applied markers.
C6  liveness             (fed by the harness) the recovered system
                         commits new PACTs, with bids above everything
                         scheduled before the crash.
C7  serializability      (fed by the harness) the full recorded trace
                         passes the post-hoc schedule checker.
C8  snapshot-equivalence with snapshots/truncation enabled, every
                         actor's post-recovery state (snapshot seed +
                         tail replay over the truncated log) equals the
                         replay-from-zero baseline over the *union*
                         log — truncated records included, snapshots
                         ignored — bit-for-bit.

Outcome classification follows the Jepsen convention: only a *definite*
abort — the protocol decided, and told the client why — may be required
to vanish.  A client that saw a crash, a timeout, or a cascading abort
knows nothing: the transaction may have committed behind its back (a
cascaded PACT can be resurrected by the recovery commit rule when every
participant's vote was already durable), so those are *in-doubt* and
only atomicity applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.chaos.workload import INITIAL_BALANCE, ChaosOutcome
from repro.core.engine.recovery import recover_state_ex
from repro.errors import AbortReason
from repro.persistence.records import SnapshotRecord

#: abort reasons that are protocol *decisions*: the transaction was
#: refused before any of its effects could become durable, so its marker
#: must not survive.  Everything else ("failure", crashes, unknown) is
#: in-doubt.
DEFINITE_ABORT_REASONS = frozenset({
    AbortReason.ACT_CONFLICT,
    AbortReason.HYBRID_DEADLOCK,
    AbortReason.INCOMPLETE_AFTER_SET,
    AbortReason.SERIALIZABILITY,
    AbortReason.USER_ABORT,
})


def classify(outcome: ChaosOutcome) -> str:
    """Map a client-observed outcome to ``committed`` / ``definite_abort``
    / ``in_doubt``."""
    if outcome.status == "committed":
        return "committed"
    if outcome.status.startswith("aborted"):
        reason = outcome.reason
        if outcome.mode == "pact":
            # A PACT abort is definite only when user code raised: a
            # cascading abort can be overturned by the recovery commit
            # rule (all votes durable → commit), and a "failure" abort
            # is a timeout verdict, not a protocol decision.
            return ("definite_abort" if reason == AbortReason.USER_ABORT
                    else "in_doubt")
        # ACT: every protocol abort is decided *before* the 2PC commit
        # record could exist — including cascading (it is raised while
        # waiting on the BeforeSet, pre-prepare).  Only "failure" (a
        # crash verdict, not a decision) stays in doubt.
        if reason in DEFINITE_ABORT_REASONS or reason == AbortReason.CASCADING:
            return "definite_abort"
        return "in_doubt"
    return "in_doubt"  # failure / crash / still in flight at the end


def _raise_on_delta(_state: Any, _delta: Any) -> Any:
    raise AssertionError(
        "chaos states are logged as full blobs; a delta record in the "
        "covered chain means the WAL shape is wrong"
    )


def recovered_states(
    loggers: Any,
    actor_ids: Iterable[Any],
) -> Dict[Any, Dict[str, Any]]:
    """Reconstruct every actor's post-recovery state from the WAL,
    using the production recovery routine."""
    states: Dict[Any, Dict[str, Any]] = {}
    for actor_id in actor_ids:
        states[actor_id] = recover_state_ex(
            actor_id,
            loggers,
            {"balance": INITIAL_BALANCE, "applied": {}},
            _raise_on_delta,
        ).state
    return states


class UnionLogView:
    """A read-only logger-group facade over the *union* log: every
    record a chaos run ever made durable, including those a frontier
    truncation later dropped (:class:`ChaosLogStorage` keeps them).

    This is what the C8 baseline replays from: recovery over this view
    with ``use_snapshots=False`` is exactly what plain log replay would
    have reconstructed had the snapshot subsystem never existed.
    """

    enabled = True

    def __init__(self, loggers: Any):
        self._loggers = loggers

    def all_records(self) -> List[Any]:
        records: List[Any] = []
        for logger in self._loggers.loggers:
            storage = logger.wal.storage
            scan = getattr(storage, "full_scan", None) or storage.scan
            records.extend(scan())
        records.sort(key=lambda record: record.lsn)
        return records


def snapshot_equivalence(loggers: Any) -> Tuple[bool, str]:
    """The C8 verdict: production recovery (snapshot seed + truncated
    tail) vs replay-from-zero over the union log, for every actor that
    ever logged state, compared with plain ``==`` (bit-for-bit on the
    chaos workload's plain dict/float states).

    Uses ``None`` as the initial state on both sides: the comparison is
    production-vs-baseline, not vs ground truth, so any actor with no
    covered records compares equal trivially.
    """
    union = UnionLogView(loggers)
    actor_ids = sorted(
        {
            record.actor
            for record in union.all_records()
            if getattr(record, "state", None) is not None
            and not isinstance(record, SnapshotRecord)
        },
        key=str,
    )
    mismatches: List[str] = []
    for actor_id in actor_ids:
        production = recover_state_ex(
            actor_id, loggers, None, _raise_on_delta
        )
        baseline = recover_state_ex(
            actor_id, union, None, _raise_on_delta, use_snapshots=False
        )
        if production.state != baseline.state:
            mismatches.append(
                f"{actor_id}: snapshot-recovered {production.state!r} "
                f"(frontier lsn {production.frontier_lsn}, "
                f"{production.replayed} replayed) != baseline "
                f"{baseline.state!r} ({baseline.replayed} replayed)"
            )
    if mismatches:
        return (False, "; ".join(mismatches[:5]))
    return (True, f"{len(actor_ids)} actor(s) compared against "
                  f"replay-from-zero, all bit-identical")


@dataclass
class OracleCheck:
    """One invariant's verdict."""

    name: str
    ok: bool
    detail: str = ""
    violations: List[str] = field(default_factory=list)

    def render(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        lines = [f"[{mark}] {self.name}: {self.detail}"]
        for violation in self.violations[:10]:
            lines.append(f"       - {violation}")
        if len(self.violations) > 10:
            lines.append(f"       ... {len(self.violations) - 10} more")
        return "\n".join(lines)


@dataclass
class OracleReport:
    checks: List[OracleCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def check(self, name: str) -> Optional[OracleCheck]:
        for check in self.checks:
            if check.name == name:
                return check
        return None

    def render(self) -> str:
        return "\n".join(check.render() for check in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "detail": c.detail,
                    "violations": list(c.violations),
                }
                for c in self.checks
            ],
        }


def verify(
    states: Dict[Any, Dict[str, Any]],
    outcomes: Iterable[ChaosOutcome],
    *,
    liveness: Optional[Tuple[bool, str]] = None,
    serializable: Optional[Tuple[bool, str]] = None,
    snapshots: Optional[Tuple[bool, str]] = None,
) -> OracleReport:
    """Run C1–C5 on recovered states; attach harness-fed C6/C7/C8."""
    outcomes = list(outcomes)
    report = OracleReport()

    marker_presence: Dict[str, Dict[Any, Optional[float]]] = {}

    def presence(outcome: ChaosOutcome) -> Dict[Any, Optional[float]]:
        cached = marker_presence.get(outcome.marker)
        if cached is not None:
            return cached
        by_actor: Dict[Any, Optional[float]] = {}
        for actor_id in outcome.touched:
            state = states.get(actor_id)
            applied = state.get("applied", {}) if state else {}
            by_actor[actor_id] = applied.get(outcome.marker)
        marker_presence[outcome.marker] = by_actor
        return by_actor

    def expected_delta(outcome: ChaosOutcome, actor_id: Any) -> float:
        if actor_id == outcome.source:
            return -outcome.amount * len(outcome.destinations)
        return outcome.amount

    # C1: committed work is durable, with exactly the applied deltas.
    violations: List[str] = []
    committed = [o for o in outcomes if classify(o) == "committed"]
    for outcome in committed:
        for actor_id, delta in sorted(presence(outcome).items(), key=str):
            want = expected_delta(outcome, actor_id)
            if delta is None:
                violations.append(
                    f"{outcome.marker} ({outcome.mode}) committed but "
                    f"missing on {actor_id}")
            elif abs(delta - want) > 1e-9:
                violations.append(
                    f"{outcome.marker} on {actor_id}: delta {delta} "
                    f"!= expected {want}")
    report.checks.append(OracleCheck(
        "C1 committed-durable", not violations,
        f"{len(committed)} committed transaction(s) checked",
        violations))

    # C2: definite aborts left nothing behind (presumed abort, §4.3.4).
    violations = []
    definite = [o for o in outcomes if classify(o) == "definite_abort"]
    for outcome in definite:
        for actor_id, delta in sorted(presence(outcome).items(), key=str):
            if delta is not None:
                violations.append(
                    f"{outcome.marker} ({outcome.mode}, "
                    f"aborted: {outcome.reason}) survived on {actor_id}")
    report.checks.append(OracleCheck(
        "C2 aborts-not-durable", not violations,
        f"{len(definite)} definite abort(s) checked",
        violations))

    # C3: every marker is all-or-nothing across its touched set.
    violations = []
    in_doubt = 0
    for outcome in outcomes:
        if classify(outcome) == "in_doubt":
            in_doubt += 1
        by_actor = presence(outcome)
        present = [a for a, d in by_actor.items() if d is not None]
        if present and len(present) != len(by_actor):
            missing = sorted(
                (a for a, d in by_actor.items() if d is None), key=str)
            violations.append(
                f"{outcome.marker} ({outcome.mode}, {outcome.status}) "
                f"on {sorted(present, key=str)} but not {missing}")
    report.checks.append(OracleCheck(
        "C3 atomicity", not violations,
        f"{len(outcomes)} transaction(s) checked ({in_doubt} in doubt)",
        violations))

    # C4: conservation of money across the recovered deployment.
    total = sum(state.get("balance", 0.0) for state in states.values())
    expected_total = INITIAL_BALANCE * len(states)
    conserved = abs(total - expected_total) < 1e-6
    report.checks.append(OracleCheck(
        "C4 conservation", conserved,
        f"recovered total {total:.2f} vs initial {expected_total:.2f}",
        [] if conserved else [f"drift {total - expected_total:+.2f}"]))

    # C5: each balance equals the initial balance plus its applied deltas.
    violations = []
    for actor_id in sorted(states, key=str):
        state = states[actor_id]
        derived = INITIAL_BALANCE + sum(state.get("applied", {}).values())
        if abs(derived - state.get("balance", 0.0)) > 1e-6:
            violations.append(
                f"{actor_id}: balance {state.get('balance')} != initial + "
                f"deltas {derived}")
    report.checks.append(OracleCheck(
        "C5 internal-consistency", not violations,
        f"{len(states)} actor state(s) checked", violations))

    if liveness is not None:
        ok, detail = liveness
        report.checks.append(OracleCheck("C6 liveness", ok, detail))
    if serializable is not None:
        ok, detail = serializable
        report.checks.append(OracleCheck("C7 serializability", ok, detail))
    if snapshots is not None:
        ok, detail = snapshots
        report.checks.append(
            OracleCheck("C8 snapshot-equivalence", ok, detail))
    return report
