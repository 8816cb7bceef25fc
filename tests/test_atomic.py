"""Crash-safe artifact writes: a failed write leaves the old file."""

import os
import stat

import pytest

from repro.atomic import atomic_write
from repro.obs import MetricsRegistry
from repro.storage import CheckpointStore
from repro.storage.archive import save_store


def test_atomic_write_replaces_text_and_bytes(tmp_path):
    path = tmp_path / "out.json"
    assert atomic_write(path, "old\n") == path
    assert path.read_text() == "old\n"
    atomic_write(str(path), b"\x00new")
    assert path.read_bytes() == b"\x00new"
    assert os.listdir(tmp_path) == ["out.json"]


def test_atomic_write_streams_chunks(tmp_path):
    path = tmp_path / "trace.jsonl"
    atomic_write(path, (line for line in ["a\n", b"b\n", "c\n"]))
    assert path.read_bytes() == b"a\nb\nc\n"


def test_a_chunk_source_that_fails_keeps_the_old_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("old\n")

    def lines():
        yield "partial\n"
        raise RuntimeError("writer died mid-dump")

    with pytest.raises(RuntimeError, match="mid-dump"):
        atomic_write(path, lines())
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["trace.jsonl"]


def test_atomic_write_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert atomic_write(link, "new\n") == link
    assert link.is_symlink()
    assert real.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_atomic_write_keeps_the_replaced_files_mode(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("old\n")
    path.chmod(0o640)
    atomic_write(path, "new\n")
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def _crash_on_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", replace)


def test_a_failed_replace_keeps_the_old_file_and_no_temp(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "metrics.json"
    path.write_text("old\n")
    _crash_on_replace(monkeypatch)
    with pytest.raises(OSError, match="simulated crash"):
        atomic_write(path, "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["metrics.json"]


@pytest.mark.parametrize("write", [
    lambda path: MetricsRegistry().dump(path),
    lambda path: save_store(CheckpointStore(1), path),
], ids=["metrics", "archive"])
def test_call_sites_write_atomically(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    _crash_on_replace(monkeypatch)
    with pytest.raises(OSError, match="simulated crash"):
        write(path)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["artifact"]
