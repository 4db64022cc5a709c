"""Unit tests for the per-actor local schedule (§4.2.3, §4.4.1)."""

import pytest

from repro.core.context import SubBatch
from repro.core.schedule import LocalSchedule
from repro.errors import AbortReason, SimulationError, TransactionAbortedError

# the schedule creates its turn futures through the kernel dispatch
pytestmark = pytest.mark.usefixtures("sim_backend")


def sub_batch(bid, prev_bid, plans, coordinator_key=0):
    return SubBatch(
        bid=bid, prev_bid=prev_bid, coordinator_key=coordinator_key,
        plans=tuple(plans),
    )


def test_single_batch_executes_tids_in_order():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(10, None, [(10, 1), (11, 1)]))
    turn_first = schedule.await_pact_turn(10, 10)
    turn_second = schedule.await_pact_turn(10, 11)
    assert turn_first.done()
    assert not turn_second.done()
    schedule.pact_access_done(10, 10)
    assert turn_second.done()


def test_multi_access_tid_holds_turn_until_exhausted():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(5, None, [(5, 2), (6, 1)]))
    first = schedule.await_pact_turn(5, 5)
    nxt = schedule.await_pact_turn(5, 6)
    assert first.done() and not nxt.done()
    schedule.pact_access_done(5, 5)
    assert not nxt.done(), "tid 5 declared two accesses"
    again = schedule.await_pact_turn(5, 5)
    assert again.done()
    schedule.pact_access_done(5, 5)
    assert nxt.done()


def test_batch_completion_fires_callback_and_orphan_placement():
    completed = []
    schedule = LocalSchedule()
    schedule.on_subbatch_complete = lambda entry: completed.append(entry.bid)
    # batch 20 arrives before its predecessor 10: parked as an orphan
    schedule.register_batch(sub_batch(20, 10, [(20, 1)]))
    assert schedule.batch_entry(20) is None
    assert not schedule.is_empty()
    schedule.register_batch(sub_batch(10, None, [(10, 1)]))
    assert schedule.batch_entry(20) is not None  # spliced in
    t10 = schedule.await_pact_turn(10, 10)
    t20 = schedule.await_pact_turn(20, 20)
    assert t10.done() and not t20.done()
    schedule.pact_access_done(10, 10)
    assert completed == [10]
    assert t20.done()
    schedule.pact_access_done(20, 20)
    assert completed == [10, 20]


def test_duplicate_batch_delivery_ignored():
    schedule = LocalSchedule()
    sb = sub_batch(7, None, [(7, 1)])
    schedule.register_batch(sb)
    schedule.register_batch(sb)
    assert len(schedule.batch_entries) == 1


def test_extra_access_beyond_declared_raises():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(3, None, [(3, 1)]))
    schedule.await_pact_turn(3, 3)
    schedule.pact_access_done(3, 3)
    with pytest.raises(TransactionAbortedError, match="exceeded"):
        schedule.pact_access_done(3, 3)


def test_act_admission_waits_for_earlier_batch():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1)]))
    entry = schedule.ensure_act(100)
    assert not entry.admission.done()
    schedule.await_pact_turn(1, 1)
    schedule.pact_access_done(1, 1)  # batch completes
    assert entry.admission.done()


def test_act_admitted_immediately_when_no_batches():
    schedule = LocalSchedule()
    entry = schedule.ensure_act(50)
    assert entry.admission.done()


def test_batch_waits_for_earlier_act_to_end():
    schedule = LocalSchedule()
    act = schedule.ensure_act(100)
    assert act.admission.done()
    schedule.register_batch(sub_batch(200, None, [(200, 1)]))
    turn = schedule.await_pact_turn(200, 200)
    assert not turn.done(), "batch gated on the uncommitted ACT"
    schedule.act_ended(100)
    assert turn.done()


def test_concurrent_acts_between_batches_all_admitted():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1)]))
    schedule.await_pact_turn(1, 1)
    schedule.pact_access_done(1, 1)
    a = schedule.ensure_act(10)
    b = schedule.ensure_act(11)
    assert a.admission.done() and b.admission.done()


def test_before_after_evidence():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1)]))
    schedule.await_pact_turn(1, 1)
    schedule.pact_access_done(1, 1)
    schedule.ensure_act(10)
    assert schedule.before_evidence(10) == 1
    assert schedule.after_evidence(10) is None  # incomplete AfterSet
    schedule.register_batch(sub_batch(20, 1, [(20, 1)]))
    assert schedule.after_evidence(10) == 20


def test_before_evidence_none_without_batches():
    schedule = LocalSchedule()
    schedule.ensure_act(10)
    assert schedule.before_evidence(10) is None


def test_act_commit_carry_is_monotone():
    schedule = LocalSchedule()
    schedule.note_act_commit_carry(5)
    schedule.note_act_commit_carry(3)
    assert schedule.act_maxbs_carry == 5
    schedule.note_act_commit_carry(None)
    assert schedule.act_maxbs_carry == 5
    schedule.note_act_commit_carry(9)
    assert schedule.act_maxbs_carry == 9


def test_rollback_drops_batches_and_fails_waiters():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1), (2, 1)]))
    schedule.register_batch(sub_batch(9, 1, [(9, 1)]))
    schedule.ensure_act(100)
    t2 = schedule.await_pact_turn(1, 2)
    dropped = schedule.rollback_batches()
    assert sorted(dropped) == [1, 9]
    assert t2.done()
    with pytest.raises(TransactionAbortedError):
        t2.result()
    # ACT entries survive the rollback
    assert len(schedule.act_entries) == 1
    assert len(schedule.batch_entries) == 0


def test_access_done_after_rollback_is_a_cascading_abort():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1)]))
    assert schedule.await_pact_turn(1, 1).done()
    schedule.rollback_batches()
    # the access was in flight when its batch was dropped
    with pytest.raises(TransactionAbortedError) as info:
        schedule.pact_access_done(1, 1)
    assert info.value.reason == AbortReason.CASCADING
    # a bid the schedule never saw is still a protocol error
    with pytest.raises(SimulationError):
        schedule.pact_access_done(7, 7)


def test_batch_committed_removes_entry_and_unblocks_acts():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1)]))
    schedule.await_pact_turn(1, 1)
    schedule.pact_access_done(1, 1)
    schedule.batch_committed(1)
    assert schedule.is_empty()
    # a successor batch whose prev committed before it arrived still places
    schedule.register_batch(sub_batch(30, 1, [(30, 1)]))
    assert schedule.batch_entry(30) is not None
    assert schedule.await_pact_turn(30, 30).done()


def test_commit_before_completion_is_an_error():
    schedule = LocalSchedule()
    schedule.register_batch(sub_batch(1, None, [(1, 1)]))
    with pytest.raises(Exception, match="before completing"):
        schedule.batch_committed(1)


def test_chain_of_three_batches_via_prev_bid_out_of_order():
    completed = []
    schedule = LocalSchedule()
    schedule.on_subbatch_complete = lambda e: completed.append(e.bid)
    schedule.register_batch(sub_batch(30, 20, [(30, 1)]))
    schedule.register_batch(sub_batch(20, 10, [(20, 1)]))
    schedule.register_batch(sub_batch(10, None, [(10, 1)]))
    for bid in (10, 20, 30):
        schedule.await_pact_turn(bid, bid)
    # turns only release in chain order
    schedule.pact_access_done(10, 10)
    schedule.pact_access_done(20, 20)
    schedule.pact_access_done(30, 30)
    assert completed == [10, 20, 30]
