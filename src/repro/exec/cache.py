"""Persistent on-disk result cache.

One cache entry per experiment run, keyed by
:func:`repro.exec.keys.cache_key` (config + workload spec + code
version).  An entry is a directory holding ``meta.json`` (run metadata
and the canonical config, for human inspection) plus the per-rank traces
in the npz+json format of :mod:`repro.trace` -- the same serialization
``run --save-trace`` uses, so cached entries are also analyzable with
``repro analyze``.

Writes are atomic (tempdir + rename), so a killed run never leaves a
half-written entry, and concurrent writers of the same key simply race
to publish identical bytes.  Loaded results are *detached*: the derived
statistics (IB, IWS, footprint, period) are all available, the live
simulation objects (app, library, job) are not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.exec.keys import cache_key, canonical, CACHE_FORMAT_VERSION

#: environment variable naming the default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_META_NAME = "meta.json"


def default_cache(directory: Union[str, Path, None] = None,
                  ) -> "Optional[ResultCache]":
    """The cache at ``directory``, falling back to ``$REPRO_CACHE_DIR``;
    None when neither names a directory (caching disabled)."""
    if directory is None:
        directory = os.environ.get(CACHE_DIR_ENV) or None
    if directory is None:
        return None
    return ResultCache(directory)


class ResultCache:
    """Filesystem-backed cache of :class:`ExperimentResult` runs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- key plumbing ---------------------------------------------------------

    def key_for(self, config) -> str:
        """The cache key this store files ``config`` under."""
        return cache_key(config)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key[2:]

    # -- read -----------------------------------------------------------------

    def get(self, config):
        """The cached :class:`ExperimentResult` for ``config``, or None.

        Corrupt or partially deleted entries count as misses and are
        removed so the next run rewrites them.
        """
        from repro.cluster.experiment import ExperimentResult
        from repro.trace import load_trace

        key = self.key_for(config)
        entry = self._entry_dir(key)
        meta_path = entry / _META_NAME
        if not meta_path.exists():
            self.misses += 1
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("format_version") != CACHE_FORMAT_VERSION:
                raise ConfigurationError("cache format mismatch")
            logs = {int(r): load_trace(entry / f"rank{int(r):04d}")
                    for r in meta["ranks"]}
            tstats = meta.get("transport_stats")
            if tstats is not None:
                from repro.checkpoint.transport import TransportStats
                tstats = TransportStats(**tstats)
            result = ExperimentResult(
                config=config,
                logs=logs,
                init_end_time=float(meta["init_end_time"]),
                iterations=int(meta["iterations"]),
                iteration_starts=[float(t) for t in meta["iteration_starts"]],
                final_time=float(meta["final_time"]),
                transport_stats=tstats,
                ckpt_commits=int(meta.get("ckpt_commits", 0)),
            )
        except Exception:
            shutil.rmtree(entry, ignore_errors=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    # -- write ----------------------------------------------------------------

    def put(self, config, result) -> Path:
        """Persist one run; returns the entry directory."""
        from repro.trace import save_traces

        key = self.key_for(config)
        entry = self._entry_dir(key)
        if (entry / _META_NAME).exists():
            return entry
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = entry.parent / f".tmp-{os.getpid()}-{key[2:10]}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            save_traces(result.logs, tmp)
            meta = {
                "format_version": CACHE_FORMAT_VERSION,
                "key": key,
                "config": canonical(config),
                "ranks": sorted(result.logs),
                "init_end_time": result.init_end_time,
                "iterations": result.iterations,
                "iteration_starts": list(result.iteration_starts),
                "final_time": result.final_time,
                "transport_stats": (
                    None if result.transport_stats is None
                    else dataclasses.asdict(result.transport_stats)),
                "ckpt_commits": result.ckpt_commits,
            }
            (tmp / _META_NAME).write_text(json.dumps(meta, indent=2))
            try:
                os.replace(tmp, entry)
            except OSError:
                # a concurrent writer published the same key first; its
                # entry is byte-identical (same key -> same run)
                shutil.rmtree(tmp, ignore_errors=True)
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return entry

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> list[str]:
        """All cached keys."""
        if not self.root.is_dir():
            return []
        return sorted(
            prefix.name + entry.name
            for prefix in self.root.iterdir() if prefix.is_dir()
            for entry in prefix.iterdir()
            if (entry / _META_NAME).exists())

    def clear(self) -> None:
        """Drop every entry."""
        shutil.rmtree(self.root, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultCache {str(self.root)!r} entries={len(self.entries())} "
                f"hits={self.hits} misses={self.misses}>")
