"""Tests for log records, WAL backends, and logger group-commit."""

import os

import pytest

from repro import sim
from repro.persistence import (
    ActCommitRecord,
    ActPrepareRecord,
    BatchCommitRecord,
    BatchCompleteRecord,
    BatchInfoRecord,
    CoordCommitRecord,
    CoordPrepareRecord,
    FileLogStorage,
    Logger,
    LoggerGroup,
    WriteAheadLog,
)
from repro.persistence.records import RECORD_HEADER_BYTES
from repro.sim import IoDevice, SimLoop


def test_record_sizes_scale_with_state():
    small = BatchCompleteRecord(bid=1, actor="a", state=1.0)
    large = BatchCompleteRecord(bid=1, actor="a", state=list(range(1000)))
    read_only = BatchCompleteRecord(bid=1, actor="a", state=None)
    assert read_only.size_bytes() == RECORD_HEADER_BYTES
    assert small.size_bytes() > read_only.size_bytes()
    assert large.size_bytes() > small.size_bytes()


def test_record_size_is_cached():
    record = ActPrepareRecord(tid=1, actor="a", state={"x": 1})
    assert record.size_bytes() == record.size_bytes()


def test_batch_info_size_scales_with_participants():
    few = BatchInfoRecord(bid=1, coordinator=0, participants=("a",))
    many = BatchInfoRecord(bid=1, coordinator=0, participants=tuple("abcdefgh"))
    assert many.size_bytes() > few.size_bytes()


def test_wal_append_and_scan_order():
    wal = WriteAheadLog()
    records = [
        BatchInfoRecord(bid=1, coordinator=0, participants=("a", "b")),
        BatchCompleteRecord(bid=1, actor="a", state=10),
        BatchCommitRecord(bid=1),
    ]
    for r in records:
        wal.append(r)
    assert list(wal.scan()) == records
    assert len(wal) == 3


def test_wal_rejects_non_records():
    wal = WriteAheadLog()
    with pytest.raises(TypeError):
        wal.append("not a record")


def test_wal_records_of_and_last():
    wal = WriteAheadLog()
    wal.append(BatchCommitRecord(bid=1))
    wal.append(ActCommitRecord(tid=5, actor="a"))
    wal.append(BatchCommitRecord(bid=7))
    commits = list(wal.records_of(BatchCommitRecord))
    assert [c.bid for c in commits] == [1, 7]
    last = wal.last(lambda r: isinstance(r, BatchCommitRecord))
    assert last.bid == 7
    assert wal.last(lambda r: isinstance(r, CoordCommitRecord)) is None


def test_file_storage_round_trip(tmp_path):
    path = str(tmp_path / "wal" / "log0.bin")
    storage = FileLogStorage(path)
    wal = WriteAheadLog(storage)
    wal.append(CoordPrepareRecord(tid=3, coordinator="a", participants=("a", "b")))
    wal.append(CoordCommitRecord(tid=3))
    storage.close()

    # a fresh process re-reads the same records
    recovered = WriteAheadLog(FileLogStorage(path))
    records = list(recovered.scan())
    assert len(records) == 2
    assert records[0].tid == 3
    assert records[0].participants == ("a", "b")
    assert isinstance(records[1], CoordCommitRecord)
    assert len(recovered) == 2


def test_file_storage_truncate(tmp_path):
    path = str(tmp_path / "log.bin")
    storage = FileLogStorage(path)
    storage.append(BatchCommitRecord(bid=1))
    storage.truncate()
    assert len(storage) == 0
    assert list(storage.scan()) == []
    assert os.path.getsize(path) == 0


def test_logger_persist_waits_for_io():
    loop = SimLoop()
    logger = Logger(IoDevice(base_latency=0.01, per_byte=0.0))

    async def main():
        await logger.persist(BatchCommitRecord(bid=1))
        return sim.now()

    assert loop.run_until_complete(main()) == pytest.approx(0.01)
    assert len(logger.wal) == 1
    assert logger.records_persisted == 1


def test_group_commit_amortizes_flushes():
    def run(group_commit):
        loop = SimLoop()
        logger = Logger(
            IoDevice(base_latency=0.005, per_byte=0.0),
            group_commit=group_commit,
        )

        async def main():
            await sim.gather(
                *[
                    sim.spawn(logger.persist(BatchCommitRecord(bid=i)))
                    for i in range(20)
                ]
            )
            return sim.now(), logger.io.flushes

        return loop.run_until_complete(main())

    grouped_time, grouped_flushes = run(True)
    solo_time, solo_flushes = run(False)
    assert grouped_flushes < solo_flushes
    assert grouped_time < solo_time
    # all 20 appends land before the flush task first runs: one flush
    assert grouped_flushes == 1
    assert solo_flushes == 20


def test_group_commit_flush_byte_budget_splits_batches():
    record_size = BatchCommitRecord(bid=0).size_bytes()

    def run(max_flush_bytes):
        loop = SimLoop()
        logger = Logger(
            IoDevice(base_latency=0.005, per_byte=0.0),
            max_flush_bytes=max_flush_bytes,
        )

        async def main():
            await sim.gather(
                *[
                    sim.spawn(logger.persist(BatchCommitRecord(bid=i)))
                    for i in range(20)
                ]
            )

        loop.run_until_complete(main())
        return logger

    capped = run(2 * record_size)
    # 20 queued records, 2 per flush: 10 flushes, 9 of them split points
    assert capped.io.flushes == 10
    assert capped.flush_splits == 9
    # FIFO order survives the slicing
    assert [r.bid for r in capped.wal.scan()] == list(range(20))

    uncapped = run(None)
    assert uncapped.io.flushes == 1
    assert uncapped.flush_splits == 0
    assert [r.bid for r in uncapped.wal.scan()] == list(range(20))

    # a budget smaller than one record still makes progress, one at a time
    tiny = run(1)
    assert tiny.io.flushes == 20
    assert [r.bid for r in tiny.wal.scan()] == list(range(20))


def test_logger_group_stable_assignment(sim_backend):
    group = LoggerGroup(sim_backend.io_device, num_loggers=4)
    for actor in ("a", "b", "c", 1, 2, 3):
        assert group.logger_for(actor) is group.logger_for(actor)


def test_logger_group_disabled_is_free(sim_backend):
    loop = SimLoop()
    group = LoggerGroup(sim_backend.io_device, num_loggers=2, enabled=False)

    async def main():
        await group.persist("a", BatchCommitRecord(bid=1))
        return sim.now()

    assert loop.run_until_complete(main()) == 0.0
    assert group.records_persisted() == 0


def test_logger_group_all_records_merges_logs(sim_backend):
    loop = SimLoop()
    group = LoggerGroup(sim_backend.io_device, num_loggers=3)

    async def main():
        for i in range(9):
            await group.persist(f"actor-{i}", BatchCommitRecord(bid=i))

    loop.run_until_complete(main())
    bids = sorted(r.bid for r in group.all_records())
    assert bids == list(range(9))
    assert group.records_persisted() == 9
    assert group.bytes_written() > 0


def test_logger_group_requires_at_least_one():
    with pytest.raises(ValueError):
        LoggerGroup(IoDevice, num_loggers=0)
