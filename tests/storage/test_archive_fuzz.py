"""Fuzzing the checkpoint archive reader: ``scan_store`` (and the
``repro ckpt verify`` CLI on top of it) must *report* on any mangled
input -- truncated at an arbitrary byte, bit-flipped anywhere, or
outright garbage -- and never crash, hang, or return nonsense exit
codes."""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.cli import main
from repro.storage import CheckpointStore
from repro.errors import StorageError
from repro.storage import store as store_mod
from repro.storage.archive import (MAGIC, _decode_payload, _frame,
                                   save_store, scan_store)

PAGE = 64


def tiny_store():
    """Small on purpose: the archive stays ~a few KB so exhaustive
    byte-boundary truncation is cheap."""
    store = CheckpointStore(2)
    for rank in range(2):
        for i, seq in enumerate((1, 3)):
            kind = "full" if i == 0 else "incremental"
            ckpt = Checkpoint(
                seq=seq, kind=kind, taken_at=float(seq), page_size=PAGE,
                geometry=(SegmentRecord(sid=1, kind="data", base=0,
                                        npages=2),),
                payloads=(Payload(
                    sid=1, indices=np.arange(2, dtype=np.int64),
                    versions=np.arange(10 * rank + seq, 10 * rank + seq + 2,
                                       dtype=np.uint64)),))
            store.put(rank, seq, kind, ckpt.nbytes, payload=ckpt,
                      stored_at=float(seq))
    store.mark_committed(1)
    store.mark_committed(3)
    return store


@pytest.fixture(scope="module")
def archive_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("arch") / "store.rckpt"
    save_store(tiny_store(), path)
    return path.read_bytes()


def scan_must_report(path):
    """The contract under fuzz: a report comes back, rendering works,
    and the verdict fields are consistent."""
    report = scan_store(path)
    text = report.render()
    assert isinstance(text, str) and text
    if report.error is not None:
        assert not report.ok
    if any(not p.ok for p in report.pieces) or report.chain_problems:
        assert not report.ok
    return report


def test_clean_archive_scans_ok(archive_bytes, tmp_path):
    path = tmp_path / "clean.rckpt"
    path.write_bytes(archive_bytes)
    report = scan_must_report(path)
    assert report.ok and report.n_corrupt == 0


def test_truncation_at_every_byte_boundary(archive_bytes, tmp_path):
    path = tmp_path / "cut.rckpt"
    for cut in range(len(archive_bytes)):
        path.write_bytes(archive_bytes[:cut])
        report = scan_must_report(path)
        # a cut strictly inside the payload region must never pass as
        # fully intact with all pieces present
        if cut < len(MAGIC):
            assert not report.ok
    # cutting nothing is the clean archive again
    path.write_bytes(archive_bytes)
    assert scan_must_report(path).ok


def test_every_header_byte_flip_is_survivable(archive_bytes, tmp_path):
    path = tmp_path / "flip.rckpt"
    header = min(len(archive_bytes), 256)
    for pos in range(header):
        for mask in (0x01, 0x80):
            mangled = bytearray(archive_bytes)
            mangled[pos] ^= mask
            path.write_bytes(bytes(mangled))
            scan_must_report(path)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_mutations_always_produce_a_report(archive_bytes,
                                                 tmp_path_factory, data):
    raw = bytearray(archive_bytes)
    for _ in range(data.draw(st.integers(min_value=1, max_value=8),
                             label="n_mutations")):
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1),
                        label="pos")
        raw[pos] = data.draw(st.integers(min_value=0, max_value=255),
                             label="value")
    path = tmp_path_factory.mktemp("mut") / "m.rckpt"
    path.write_bytes(bytes(raw))
    scan_must_report(path)


@pytest.mark.parametrize("payload", [
    b"", b"\x00", b"not an archive at all", MAGIC, MAGIC + b"\xff" * 40,
    MAGIC + b"\xff\xff\xff\x7f",              # frame length ~2 GiB
])
def test_garbage_archives_report_not_crash(payload, tmp_path):
    path = tmp_path / "garbage.rckpt"
    path.write_bytes(payload)
    report = scan_must_report(path)
    assert not report.ok


def test_cli_verify_exit_codes_stay_in_contract(archive_bytes, tmp_path):
    clean = tmp_path / "ok.rckpt"
    clean.write_bytes(archive_bytes)
    assert main(["ckpt", "verify", str(clean)], out=io.StringIO()) == 0

    cut = tmp_path / "cut.rckpt"
    cut.write_bytes(archive_bytes[: len(archive_bytes) // 2])
    assert main(["ckpt", "verify", str(cut)], out=io.StringIO()) in (1, 2)

    missing = tmp_path / "nope.rckpt"
    assert main(["ckpt", "verify", str(missing)], out=io.StringIO()) == 2


def test_payload_flagging_unit_bytes_is_refused(tmp_path):
    """The third field of a payload entry flags per-unit byte content,
    which the format does not carry: an archive that sets it is refused
    as malformed input, not loaded."""
    meta = {"seq": 1, "kind": "full", "taken_at": 1.0, "page_size": PAGE,
            "geometry": [[1, "data", 0, 2]], "payloads": [[1, 2, True]]}
    blob = b"".join([
        _frame(json.dumps(meta, sort_keys=True).encode()),
        np.arange(2, dtype=np.int64).tobytes(),
        np.arange(1, 3, dtype=np.uint64).tobytes(),
        np.full(2 * PAGE, 0xAB, dtype=np.uint8).tobytes()])
    with pytest.raises(StorageError, match="flags unit byte content"):
        _decode_payload(blob)

    piece = {"rank": 0, "seq": 1, "kind": "full", "nbytes": 2 * PAGE + 64,
             "stored_at": 1.0, "digest": "0" * 32, "prev_digest": None,
             "base_digest": None, "payload_len": len(blob)}
    header = {"nranks": 1, "committed": [1], "pieces": 1}
    path = tmp_path / "flagged.rckpt"
    path.write_bytes(b"".join([
        MAGIC, _frame(json.dumps(header, sort_keys=True).encode()),
        _frame(json.dumps(piece, sort_keys=True).encode()), blob]))
    report = scan_must_report(path)
    assert not report.ok
    (scan,) = report.pieces
    assert scan.status == "unreadable"
    assert "flags unit byte content" in scan.detail

    out = io.StringIO()
    assert main(["ckpt", "verify", str(path)], out=out) == 1
    assert "UNREADABLE" in out.getvalue()


def test_failed_save_leaves_previous_archive_intact(tmp_path, monkeypatch):
    path = tmp_path / "store.rckpt"
    save_store(tiny_store(), path)
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def torn_write(self, data):
        # the disk fills up halfway through the new archive
        write_bytes(self, data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError):
        save_store(tiny_store(), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def two_generation_store():
    """2 ranks, fulls at seqs 1 and 3, deltas at 2 and 4, all committed."""
    store = CheckpointStore(2)
    for rank in range(2):
        for seq, kind in ((1, "full"), (2, "incremental"), (3, "full"),
                          (4, "incremental")):
            ckpt = Checkpoint(
                seq=seq, kind=kind, taken_at=float(seq), page_size=PAGE,
                geometry=(SegmentRecord(sid=1, kind="data", base=0,
                                        npages=1),),
                payloads=(Payload(sid=1, indices=np.zeros(1, np.int64),
                                  versions=np.full(1, seq, np.uint64)),))
            store.put(rank, seq, kind, ckpt.nbytes, payload=ckpt)
            if rank == 1:
                store.mark_committed(seq)
    return store


def test_scan_verifies_every_committed_sequence(tmp_path, monkeypatch):
    """An older committed sequence whose piece is gone is a broken chain
    even though the newest one restores intact; each rank's chain
    verification hashes each piece at most once."""
    store = two_generation_store()
    store.drop_piece(0, 2)
    path = save_store(store, tmp_path / "store.rckpt")
    verified = []
    verify = store_mod.verify_chain

    def counting_verify(rank, chain, *args, **kwargs):
        verified.extend((rank, obj.seq) for obj in chain)
        return verify(rank, chain, *args, **kwargs)

    # the scan verifies committed sequences through store.verify_committed
    monkeypatch.setattr(store_mod, "verify_chain", counting_verify)
    report = scan_must_report(path)
    assert not report.ok and report.n_corrupt == 0
    assert report.chain_problems == (
        "rank 0: seq 2 missing-target; intact prefix ends at seq 1",)
    assert len(verified) == len(set(verified)) == 7


def test_scan_reports_a_lost_older_full_once_per_sequence(tmp_path):
    store = two_generation_store()
    store.drop_piece(1, 1)
    path = save_store(store, tmp_path / "store.rckpt")
    report = scan_must_report(path)
    assert report.chain_problems == (
        "rank 1: seq 1 missing-base; intact prefix ends at nothing",
        "rank 1: seq 2 missing-base; intact prefix ends at nothing")
    store = two_generation_store()
    path = save_store(store, tmp_path / "clean.rckpt")
    assert scan_must_report(path).ok
