"""Differential suite: the batched engine vs the per-item reference.

The TimerHub promises a *bit-identical* simulation: same per-rank
timeslice boundaries, same fault and reprotect accounting, same
checkpoint piece order.  These tests run the paper workloads on the
production :class:`~repro.sim.Engine` and on the per-item
:class:`tests.sim.reference.ReferenceEngine` (one event per timer
expiry, wake-up and delivery) and assert the full event streams agree
-- the contract everything in ``repro.sim.timers`` rests on.

Runs are short (a handful of timeslices) so the 64-rank cases stay
cheap; identity is exact, so duration adds confidence, not coverage.
"""

import pytest

from repro.cluster.experiment import paper_config, run_experiment
from repro.obs import Observability, Tracer
from tests.sim.reference import run_reference


def _pair(monkeypatch, name, nranks, **overrides):
    """Run both engines on one config; returns (batched, reference)."""
    cfg = paper_config(name, nranks=nranks, timeslice=1.0,
                       run_duration=10.0, **overrides)
    return run_experiment(cfg), run_reference(monkeypatch, cfg)


@pytest.mark.parametrize("name", ["sage-50MB", "sweep3d", "bt"])
@pytest.mark.parametrize("nranks", [8, 64])
def test_streams_identical_across_apps_and_scales(name, nranks,
                                                  monkeypatch):
    new, ref = _pair(monkeypatch, name, nranks)
    assert new.final_time == ref.final_time
    assert new.init_end_time == ref.init_end_time
    assert new.iterations == ref.iterations
    assert new.iteration_starts == ref.iteration_starts
    assert set(new.logs) == set(ref.logs) == set(range(nranks))
    for rank in range(nranks):
        a, b = new.logs[rank].records, ref.logs[rank].records
        assert a == b, (
            f"{name} rank {rank}: batched and reference engines diverge; "
            f"first differing record: "
            f"{next((p for p in zip(a, b) if p[0] != p[1]), None)}")


def test_reprotect_charges_and_slice_boundaries_match(monkeypatch):
    """Per-slice overhead (fault cost + reprotect charge) and the slice
    boundary times are part of the record stream; spot-check them
    explicitly so a future record-layout change cannot silently drop
    them from the comparison above."""
    new, ref = _pair(monkeypatch, "sage-50MB", 8)
    for rank in (0, 7):
        for ra, rb in zip(new.logs[rank].records, ref.logs[rank].records):
            assert (ra.t_start, ra.t_end) == (rb.t_start, rb.t_end)
            assert ra.overhead_time == rb.overhead_time
            assert ra.faults == rb.faults
            assert ra.iws_pages == rb.iws_pages


def test_checkpoint_piece_order_identical(monkeypatch):
    """With a checkpoint transport attached, the epoch-listener batching
    seam must emit pieces in the exact order of per-timer events."""
    cfg = paper_config("sage-50MB", nranks=8, timeslice=1.0,
                       run_duration=12.0, ckpt_transport="estimate")
    new_obs = Observability(tracer=Tracer(wall_clock=None))
    ref_obs = Observability(tracer=Tracer(wall_clock=None))
    new = run_experiment(cfg, obs=new_obs)
    ref = run_reference(monkeypatch, cfg, obs=ref_obs)
    assert new.ckpt_commits == ref.ckpt_commits > 0
    assert new.final_time == ref.final_time
    # the traced stream includes every ckpt piece/frame span in emission
    # order; bit-identical streams mean identical piece order
    assert new_obs.tracer.events == ref_obs.tracer.events
    ckpt_events = [e for e in new_obs.tracer.events
                   if e.get("cat") == "checkpoint"]
    assert ckpt_events, "expected checkpoint events in the trace"


def test_traced_streams_identical_without_checkpointing(monkeypatch):
    cfg = paper_config("sweep3d", nranks=8, timeslice=1.0, run_duration=10.0)
    new_obs = Observability(tracer=Tracer(wall_clock=None))
    ref_obs = Observability(tracer=Tracer(wall_clock=None))
    run_experiment(cfg, obs=new_obs)
    run_reference(monkeypatch, cfg, obs=ref_obs)
    assert new_obs.tracer.events == ref_obs.tracer.events
