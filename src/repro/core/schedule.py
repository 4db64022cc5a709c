"""Per-actor local schedules (§4.2.3, §4.4.1, Figs. 4 and 8).

Each transactional actor maintains a local schedule: a chain of PACT
sub-batches ordered by ``prev_bid``, interleaved with ACT entries that
are appended at the tail when their first invocation arrives.  The
schedule enforces the two hybrid rules of §4.4.1:

1. an ACT may start executing when every earlier batch has *completed*
   its operations on this actor (not necessarily committed);
2. a batch may start executing when every earlier ACT has *committed or
   aborted*.

Within a batch, PACTs execute in ascending ``tid`` order; a PACT's turn
on the actor ends once it has been accessed its declared number of
times.  Sub-batches that arrive before their predecessor (out-of-order
delivery) are parked as *orphans* and spliced in when the predecessor
shows up — the vacancy mechanism of Fig. 4b.

The schedule also answers the BeforeSet/AfterSet evidence queries the
hybrid serializability check needs (§4.4.3): the nearest batch before
and after a given ACT entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.context import SubBatch
from repro.errors import (
    AbortReason,
    SimulationError,
    TransactionAbortedError,
)
from repro.runtime.kernel import Future


class BatchEntry:
    """One sub-batch positioned in the local schedule."""

    WAITING = "waiting"
    EXECUTING = "executing"
    COMPLETED = "completed"

    #: cheap type dispatch for the scheduler loop (no isinstance).
    is_batch = True

    __slots__ = ("sub_batch", "remaining", "order", "cursor", "status",
                 "wrote_state")

    def __init__(self, sub_batch: SubBatch):
        self.sub_batch = sub_batch
        self.remaining: Dict[int, int] = {
            tid: count for tid, count in sub_batch.plans
        }
        #: the batch's dispatch order on this actor, precomputed once at
        #: arrival: ``order[cursor]`` is always the tid whose turn it is.
        self.order: List[int] = [tid for tid, _ in sub_batch.plans]
        self.cursor = 0
        self.status = BatchEntry.WAITING
        #: set by the actor when any PACT in the batch writes its state.
        self.wrote_state = False

    @property
    def bid(self) -> int:
        return self.sub_batch.bid

    @property
    def current_tid(self) -> Optional[int]:
        if self.cursor < len(self.order):
            return self.order[self.cursor]
        return None


class ActEntry:
    """One ACT positioned in the local schedule."""

    WAITING = "waiting"
    ADMITTED = "admitted"
    ENDED = "ended"

    is_batch = False

    __slots__ = ("tid", "status", "admission")

    def __init__(self, tid: int):
        self.tid = tid
        self.status = ActEntry.WAITING
        self.admission: Future = Future(label=f"act-admit:{tid}")


class LocalSchedule:
    """The hybrid transaction schedule of one transactional actor."""

    def __init__(self, actor_label: str = "actor"):
        self.label = actor_label
        self._entries: List[object] = []
        #: O(1) lookup indexes over ``_entries`` (bid -> BatchEntry,
        #: tid -> ActEntry); ``_entries`` itself keeps the schedule order.
        self._batch_index: Dict[int, BatchEntry] = {}
        self._act_index: Dict[int, ActEntry] = {}
        #: sub-batches waiting for their predecessor batch: prev_bid -> batch
        self._orphans: Dict[int, SubBatch] = {}
        #: bids whose sub-batch completed (or committed) on this actor.
        self._done_bids: Set[int] = set()
        self._known_bids: Set[int] = set()
        #: bids a cascading rollback dropped: an access still in flight
        #: when its batch was dropped ends in a cascading abort.
        self._rolled_back_bids: Set[int] = set()
        #: (bid, tid) -> waiters for that PACT's turn.
        self._pact_waiters: Dict[Tuple[int, int], List[Future]] = {}
        #: called synchronously when a sub-batch completes (snapshot point).
        self.on_subbatch_complete: Optional[Callable[[BatchEntry], None]] = None
        #: monotone max over max(BS) of ACTs committed here (§4.4.3 carry).
        self.act_maxbs_carry: Optional[int] = None

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def batch_entries(self) -> List[BatchEntry]:
        return [e for e in self._entries if e.is_batch]

    @property
    def act_entries(self) -> List[ActEntry]:
        return [e for e in self._entries if not e.is_batch]

    def batch_entry(self, bid: int) -> Optional[BatchEntry]:
        return self._batch_index.get(bid)

    def act_entry(self, tid: int) -> Optional[ActEntry]:
        return self._act_index.get(tid)

    def is_empty(self) -> bool:
        return not self._entries and not self._orphans

    # -- batch arrival (BatchMsg) ----------------------------------------------
    def register_batch(self, sub_batch: SubBatch) -> None:
        """Handle an arriving BatchMsg, parking it if its predecessor is
        missing (out-of-order arrival, Fig. 4b)."""
        if sub_batch.bid in self._known_bids:
            return  # duplicate delivery
        self._known_bids.add(sub_batch.bid)
        self._try_place(sub_batch)
        self._pump()

    def _try_place(self, sub_batch: SubBatch) -> None:
        prev = sub_batch.prev_bid
        placeable = (
            prev is None
            or prev in self._done_bids
            or self.batch_entry(prev) is not None
        )
        if not placeable:
            self._orphans[prev] = sub_batch
            return
        entry = BatchEntry(sub_batch)
        self._entries.append(entry)
        self._batch_index[entry.bid] = entry
        # placing this batch may unblock its own orphaned successor
        successor = self._orphans.pop(sub_batch.bid, None)
        if successor is not None:
            self._try_place(successor)

    # -- PACT execution ---------------------------------------------------------
    def await_pact_turn(self, bid: int, tid: int) -> Future:
        """Future resolved when it is ``tid``'s turn within batch ``bid``."""
        fut = Future(label=f"turn:{bid}:{tid}")
        self._pact_waiters.setdefault((bid, tid), []).append(fut)
        self._pump()
        return fut

    def pact_access_done(self, bid: int, tid: int) -> None:
        """Record that one declared access of ``tid`` finished on this actor."""
        entry = self.batch_entry(bid)
        if entry is None:
            if bid in self._rolled_back_bids:
                raise TransactionAbortedError(
                    f"{self.label}: batch {bid} rolled back while txn "
                    f"{tid} was accessing the state",
                    AbortReason.CASCADING,
                )
            raise SimulationError(f"{self.label}: access_done for unknown batch {bid}")
        remaining = entry.remaining.get(tid, 0)
        if remaining <= 0 or entry.current_tid != tid:
            raise TransactionAbortedError(
                f"{self.label}: txn {tid} exceeded its declared accesses "
                f"in batch {bid}",
                AbortReason.USER_ABORT,
            )
        entry.remaining[tid] = remaining - 1
        if entry.remaining[tid] == 0:
            entry.cursor += 1
            if entry.cursor >= len(entry.order):
                self._complete_batch(entry)
        self._pump()

    def _complete_batch(self, entry: BatchEntry) -> None:
        entry.status = BatchEntry.COMPLETED
        self._done_bids.add(entry.bid)
        # Snapshot point: the actor copies its state *synchronously* here,
        # before any later entry gets a chance to run (§4.2.4 logging).
        if self.on_subbatch_complete is not None:
            self.on_subbatch_complete(entry)
        orphan = self._orphans.pop(entry.bid, None)
        if orphan is not None:
            self._try_place(orphan)

    # -- ACT scheduling ----------------------------------------------------------
    def ensure_act(self, tid: int) -> ActEntry:
        """Append an ACT at the schedule tail on first contact (§4.4.1)."""
        entry = self._act_index.get(tid)
        if entry is None:
            entry = self._act_index[tid] = ActEntry(tid)
            self._entries.append(entry)
            self._pump()
        return entry

    def act_ended(self, tid: int) -> None:
        """The ACT committed or aborted: stop gating batches on it."""
        entry = self._act_index.pop(tid, None)
        if entry is None:
            return
        entry.status = ActEntry.ENDED
        self._entries.remove(entry)
        self._pump()

    # -- hybrid evidence (§4.4.3) ---------------------------------------------------
    def before_evidence(self, tid: int) -> Optional[int]:
        """Bid of the nearest batch scheduled before the ACT (or None)."""
        nearest: Optional[int] = None
        for entry in self._entries:
            if entry.is_batch:
                nearest = entry.bid
            elif entry.tid == tid:
                return nearest
        return nearest

    def after_evidence(self, tid: int) -> Optional[int]:
        """Bid of the nearest batch scheduled after the ACT (or None —
        an incomplete AfterSet on this actor)."""
        seen_act = False
        for entry in self._entries:
            if not entry.is_batch and entry.tid == tid:
                seen_act = True
                continue
            if seen_act and entry.is_batch:
                return entry.bid
        return None

    def note_act_commit_carry(self, max_bs: Optional[int]) -> None:
        if max_bs is None:
            return
        if self.act_maxbs_carry is None or max_bs > self.act_maxbs_carry:
            self.act_maxbs_carry = max_bs

    # -- commit / abort ---------------------------------------------------------------
    def batch_committed(self, bid: int) -> None:
        entry = self._batch_index.pop(bid, None)
        if entry is None:
            return
        if entry.status != BatchEntry.COMPLETED:
            self._batch_index[bid] = entry
            raise SimulationError(
                f"{self.label}: batch {bid} committed before completing"
            )
        self._entries.remove(entry)
        self._pump()

    def rollback_batches(self) -> List[int]:
        """Cascading abort (§4.2.4): drop every uncommitted batch.

        Pending PACT turn waiters fail with a cascading abort; ACT
        entries stay (the abort controller dooms the ACTs themselves).
        Returns the bids dropped.
        """
        dropped = [e.bid for e in self.batch_entries]
        self._entries = [e for e in self._entries if not e.is_batch]
        self._batch_index.clear()
        self._orphans.clear()
        self._rolled_back_bids.update(dropped)
        for bid in dropped:
            self._done_bids.discard(bid)
            self._known_bids.discard(bid)
        waiters, self._pact_waiters = self._pact_waiters, {}
        for futures in waiters.values():
            for fut in futures:
                fut.try_set_exception(
                    TransactionAbortedError(
                        f"{self.label}: batch rolled back",
                        AbortReason.CASCADING,
                    )
                )
        self._pump()
        return dropped

    # -- the scheduler ---------------------------------------------------------------
    def _pump(self) -> None:
        """Advance every entry whose gating conditions now hold."""
        progressed = True
        while progressed:
            progressed = False
            incomplete_batch_before = False
            pending_act_before = False
            for entry in self._entries:
                if entry.is_batch:
                    if entry.status == BatchEntry.WAITING:
                        can_start = (
                            not incomplete_batch_before
                            and not pending_act_before
                            and self._predecessor_done(entry)
                        )
                        if can_start:
                            entry.status = BatchEntry.EXECUTING
                            progressed = True
                    if entry.status == BatchEntry.EXECUTING:
                        progressed |= self._release_turn(entry)
                    if entry.status != BatchEntry.COMPLETED:
                        # waiting or executing: later ACTs must hold off
                        incomplete_batch_before = True
                else:  # ActEntry
                    if entry.status == ActEntry.WAITING:
                        if not incomplete_batch_before:
                            entry.status = ActEntry.ADMITTED
                            entry.admission.try_set_result(None)
                            progressed = True
                    if entry.status != ActEntry.ENDED:
                        pending_act_before = True

    def _predecessor_done(self, entry: BatchEntry) -> bool:
        prev = entry.sub_batch.prev_bid
        return prev is None or prev in self._done_bids

    def _release_turn(self, entry: BatchEntry) -> bool:
        tid = entry.current_tid
        if tid is None:
            return False
        waiters = self._pact_waiters.pop((entry.bid, tid), None)
        if not waiters:
            return False
        for fut in waiters:
            fut.try_set_result(None)
        return True
