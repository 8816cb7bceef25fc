"""The false-sharing ablation: pages written versus bytes changed.

Page-granular incremental checkpointing (the paper's scheme) charges a
whole page to stable storage for every dirty byte.  The gap between
the *pages-written* cost and the *actually-changed* bytes is false
sharing at the page boundary, and it is the quantity the dcp mode
(sub-page differential blocks, :mod:`repro.checkpoint.dcp`) exists to
recover.  This module measures it directly: the same workload is run
once per (page size, block size) pair, the page size itself first (the
page-granular incremental baseline); the checkpoint store's delta bytes
give both sides of the comparison from real captures, not a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.units import fmt_bytes


@dataclass(frozen=True)
class FalseSharingCell:
    """One point of the ablation grid."""

    page_size: int
    #: dcp block granularity; equal to ``page_size`` for the
    #: page-granular incremental baseline row
    block_size: int
    #: delta bytes a page-granular incremental run wrote
    page_mode_bytes: int
    #: delta bytes the dcp run at this block size wrote
    dcp_bytes: int
    #: delta captures behind both measurements
    captures: int

    @property
    def ratio(self) -> float:
        """dcp bytes as a fraction of page-mode bytes (1.0 = no win)."""
        if self.page_mode_bytes == 0:
            return 1.0
        return self.dcp_bytes / self.page_mode_bytes

    @property
    def waste(self) -> float:
        """Fraction of the page-mode delta traffic that was false
        sharing at this block granularity."""
        return 1.0 - self.ratio


def delta_bytes(result, rank: int = 0) -> tuple[int, int]:
    """(delta bytes, delta captures) one rank's chain stored -- the
    store ledger records piece sizes even when payload objects are
    dropped (``keep_payloads=False``)."""
    ckpt = result.ckpt
    if ckpt is None:
        raise ValueError("run had no checkpoint engine "
                         "(config.ckpt_transport unset)")
    deltas = [o for o in ckpt.store.pieces(rank) if o.kind != "full"]
    return sum(o.nbytes for o in deltas), len(deltas)


def false_sharing_ablation(
        config: ExperimentConfig,
        page_sizes: Sequence[int],
        block_sizes: Sequence[int]) -> list[FalseSharingCell]:
    """Sweep the grid: one run per (page size, block size), where the
    block sizes are the page size itself -- the page-granular
    incremental baseline, the ``block_size == page_size`` cell -- and
    every given ``block_size < page_size`` that divides it.
    """
    if config.ckpt_transport is None:
        config = config.scaled(ckpt_transport="estimate")
    cells = []
    for page_size in page_sizes:
        page_mode = None
        for block_size in [page_size] + [b for b in block_sizes
                                         if b < page_size
                                         and page_size % b == 0]:
            nbytes, n = delta_bytes(run_experiment(config.scaled(
                page_size=page_size, ckpt_block_size=block_size)))
            if page_mode is None:
                page_mode = nbytes
            cells.append(FalseSharingCell(
                page_size=page_size, block_size=block_size,
                page_mode_bytes=page_mode, dcp_bytes=nbytes, captures=n))
    return cells


def markdown_table(cells: Sequence[FalseSharingCell],
                   title: Optional[str] = None) -> str:
    """The ablation grid as a GitHub-flavoured markdown table."""
    lines = []
    if title:
        lines.append(title)
        lines.append("")
    lines.append("| page size | block size | page-mode delta | "
                  "dcp delta | dcp/page | false sharing |")
    lines.append("|---:|---:|---:|---:|---:|---:|")
    for c in cells:
        block = ("= page" if c.block_size == c.page_size
                 else fmt_bytes(c.block_size))
        lines.append(
            f"| {fmt_bytes(c.page_size)} | {block} "
            f"| {fmt_bytes(c.page_mode_bytes)} | {fmt_bytes(c.dcp_bytes)} "
            f"| {c.ratio:.3f} | {c.waste:.1%} |")
    return "\n".join(lines)
