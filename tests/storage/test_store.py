"""Unit tests for the checkpoint store."""

import pytest

from repro.errors import StorageError
from repro.storage import CheckpointStore


def test_put_and_chain():
    store = CheckpointStore(2)
    store.put(0, seq=0, kind="full", nbytes=100)
    store.put(0, seq=1, kind="incremental", nbytes=10)
    store.put(0, seq=2, kind="incremental", nbytes=20)
    chain = store.chain(0)
    assert [o.kind for o in chain] == ["full", "incremental", "incremental"]
    assert [o.seq for o in chain] == [0, 1, 2]


def test_chain_starts_at_latest_full():
    store = CheckpointStore(1)
    store.put(0, 0, "full", 100)
    store.put(0, 1, "incremental", 10)
    store.put(0, 2, "full", 100)
    store.put(0, 3, "incremental", 10)
    chain = store.chain(0)
    assert [o.seq for o in chain] == [2, 3]


def test_chain_upto_seq():
    store = CheckpointStore(1)
    store.put(0, 0, "full", 100)
    store.put(0, 1, "incremental", 10)
    store.put(0, 2, "full", 100)
    chain = store.chain(0, upto_seq=1)
    assert [o.seq for o in chain] == [0, 1]


def test_chain_must_start_with_full():
    store = CheckpointStore(1)
    with pytest.raises(StorageError):
        store.put(0, 0, "incremental", 10)


def test_sequence_must_be_monotonic():
    store = CheckpointStore(1)
    store.put(0, 5, "full", 100)
    with pytest.raises(StorageError):
        store.put(0, 5, "incremental", 10)
    with pytest.raises(StorageError):
        store.put(0, 4, "incremental", 10)


def test_kind_and_size_validation():
    store = CheckpointStore(1)
    with pytest.raises(StorageError):
        store.put(0, 0, "differential", 10)
    with pytest.raises(StorageError):
        store.put(0, 0, "full", -1)
    with pytest.raises(StorageError):
        store.put(3, 0, "full", 10)
    with pytest.raises(StorageError):
        CheckpointStore(0)


def test_commit_requires_all_ranks():
    store = CheckpointStore(2)
    store.put(0, 0, "full", 100)
    with pytest.raises(StorageError):
        store.mark_committed(0)
    store.put(1, 0, "full", 100)
    store.mark_committed(0)
    assert store.latest_committed() == 0


def test_commit_refuses_a_rank_missing_its_piece():
    store = CheckpointStore(3)
    for rank in range(3):
        store.put(rank, 0, "full", 100)
        if rank != 1:
            store.put(rank, 2, "incremental", 10)
        store.put(rank, 3, "incremental", 10)
    with pytest.raises(StorageError, match="rank 1 has no piece for it"):
        store.mark_committed(2)
    store.mark_committed(3)
    assert store.committed_sequences() == [3]


def test_commits_monotonic():
    store = CheckpointStore(1)
    store.put(0, 0, "full", 100)
    store.put(0, 1, "incremental", 10)
    store.mark_committed(1)
    with pytest.raises(StorageError):
        store.mark_committed(0)
    assert store.committed_sequences() == [1]


def test_latest_committed_none_initially():
    assert CheckpointStore(1).latest_committed() is None


def test_truncate_reclaims_bytes():
    store = CheckpointStore(1)
    store.put(0, 0, "full", 100)
    store.put(0, 1, "incremental", 10)
    store.put(0, 2, "full", 100)
    store.put(0, 3, "incremental", 20)
    reclaimed = store.truncate(0, before_seq=2)
    assert reclaimed == 110
    assert [o.seq for o in store.pieces(0)] == [2, 3]


def test_truncate_drops_commit_markers_below_the_boundary():
    """A sequence whose pieces were collected is no longer a restorable
    cut, so its commit marker goes with them."""
    store = CheckpointStore(2)
    for seq, kind in ((0, "full"), (1, "incremental"), (2, "full")):
        for rank in range(2):
            store.put(rank, seq, kind, 10)
        store.mark_committed(seq)
    for rank in range(2):
        store.truncate(rank, before_seq=2)
    assert store.committed_sequences() == [2]
    assert store.latest_committed() == 2
    store.put(0, 3, "incremental", 10)
    store.put(1, 3, "incremental", 10)
    store.mark_committed(3)
    assert store.committed_sequences() == [2, 3]


def test_truncate_cannot_orphan_incrementals():
    store = CheckpointStore(1)
    store.put(0, 0, "full", 100)
    store.put(0, 1, "incremental", 10)
    with pytest.raises(StorageError):
        store.truncate(0, before_seq=1)


def test_accounting():
    store = CheckpointStore(2)
    store.put(0, 0, "full", 100)
    store.put(1, 0, "full", 50)
    assert store.total_bytes() == 150
    assert store.count() == 2
