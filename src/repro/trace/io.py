"""NPZ + JSON trace serialization."""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.atomic import atomic_write
from repro.errors import ConfigurationError
from repro.instrument.records import TimesliceRecord, TraceLog

_FORMAT_VERSION = 1

_COLUMNS = ("index", "t_start", "t_end", "iws_pages", "iws_bytes",
            "footprint_bytes", "faults", "received_bytes", "overhead_time")


def _normalize(path: Union[str, Path]) -> tuple[Path, Path]:
    """Resolve a trace basename to its ``(npz, json)`` sibling paths.

    Accepts the bare stem or either sibling's full name; only a trailing
    ``.npz``/``.json`` is stripped, so dotted stems like ``run.v2``
    survive intact (``with_suffix`` would have truncated them to
    ``run``).  Directories cannot be trace basenames.
    """
    path = Path(path)
    if path.suffix in (".npz", ".json"):
        path = path.parent / path.name[:-len(path.suffix)]
    if path.is_dir():
        raise ConfigurationError(
            f"{path} is a directory, not a trace basename "
            "(use save_traces/load_traces for per-rank directories)")
    return (path.parent / (path.name + ".npz"),
            path.parent / (path.name + ".json"))


def save_trace(log: TraceLog, path: Union[str, Path]) -> Path:
    """Write one trace to ``<path>.npz`` and ``<path>.json``.

    Returns the npz path.
    """
    npz_path, meta_path = _normalize(path)
    arrays = {}
    for col in _COLUMNS:
        values = [getattr(r, col) for r in log.records]
        arrays[col] = np.asarray(values)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    atomic_write(npz_path, buf.getvalue())
    meta = {
        "format_version": _FORMAT_VERSION,
        "rank": log.rank,
        "timeslice": log.timeslice,
        "page_size": log.page_size,
        "app_name": log.app_name,
        "n_slices": len(log.records),
    }
    atomic_write(meta_path, json.dumps(meta, indent=2))
    return npz_path


def load_trace(path: Union[str, Path]) -> TraceLog:
    """Reload a trace saved by :func:`save_trace`."""
    npz_path, meta_path = _normalize(path)
    if not meta_path.exists() or not npz_path.exists():
        raise ConfigurationError(
            f"no trace at {npz_path.with_suffix('')} (.npz + .json expected)")
    meta = json.loads(meta_path.read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported trace format {meta.get('format_version')!r}")
    log = TraceLog(rank=int(meta["rank"]), timeslice=float(meta["timeslice"]),
                   page_size=int(meta["page_size"]),
                   app_name=meta.get("app_name", ""))
    n = int(meta["n_slices"])
    with np.load(npz_path) as data:
        # materialize each column once: NpzFile.__getitem__ decompresses
        # the whole array on every access, so indexing inside the record
        # loop would decompress n times per column
        cols = {col: data[col] for col in _COLUMNS}
    for i in range(n):
        log.append(TimesliceRecord(
            index=int(cols["index"][i]),
            t_start=float(cols["t_start"][i]),
            t_end=float(cols["t_end"][i]),
            iws_pages=int(cols["iws_pages"][i]),
            iws_bytes=int(cols["iws_bytes"][i]),
            footprint_bytes=int(cols["footprint_bytes"][i]),
            faults=int(cols["faults"][i]),
            received_bytes=int(cols["received_bytes"][i]),
            overhead_time=float(cols["overhead_time"][i]),
        ))
    return log


def save_traces(logs: dict[int, TraceLog], directory: Union[str, Path],
                prefix: str = "rank") -> list[Path]:
    """Save one trace per rank under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [save_trace(log, directory / f"{prefix}{rank:04d}")
            for rank, log in sorted(logs.items())]


def load_traces(directory: Union[str, Path],
                prefix: str = "rank") -> dict[int, TraceLog]:
    """Load every per-rank trace from ``directory``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"no trace directory {directory}")
    logs = {}
    for meta_path in sorted(directory.glob(f"{prefix}*.json")):
        log = load_trace(meta_path)  # _normalize strips the .json
        logs[log.rank] = log
    if not logs:
        raise ConfigurationError(f"no traces under {directory}")
    return logs
