"""Differential tests: the transport pipeline against the seed estimate.

Two claims pin the tentpole down:

1. **Estimate mode is the seed.**  Routing checkpoint write-out through
   :class:`~repro.checkpoint.transport.EstimateTransport` reproduces the
   flat per-sink duration estimate exactly: a checkpointed run's
   application-visible sim stream (timeslice boundaries and network
   messages) is identical to the same run with no checkpoint engine at
   all, and byte-identical across repeats.  Verified with the same
   ``--same-sim-as`` comparison ``tools/validate_trace.py`` ships.

2. **Network mode only delays.**  With ``charge_overhead`` off the
   application's send sequence is fixed, so every ``net.send`` span in a
   network-transport run matches the estimate run's pairwise -- and
   checkpoint frames sharing the injection links can only push message
   start times and completions *later*, never earlier.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.apps.synthetic import small_spec
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.feasibility import TechnologyEnvelope
from repro.obs import Observability, Tracer

TOOL = Path(__file__).resolve().parents[2] / "tools" / "validate_trace.py"

#: the application-visible sim stream: slice boundaries + messages.
#: Checkpoint/storage events are deliberately excluded -- the estimate
#: run *has* checkpoint traffic, the baseline run has none.
SIM_CATEGORIES = frozenset({"timeslice", "net"})

#: communication-heavy enough that checkpoint frames and application
#: messages genuinely share injection links (the monotone test below
#: asserts the contention is nonzero, not just permitted)
SPEC = small_spec(name="differential", footprint_mb=24, main_mb=12,
                  period=0.5, passes=2.0, comm_mb=2.0, sub_bursts=2)


def _config(transport):
    return ExperimentConfig(spec=SPEC, nranks=4, timeslice=0.25,
                            run_duration=6.0, ckpt_transport=transport,
                            ckpt_interval_slices=1, ckpt_full_every=4)


def _run(transport):
    tracer = Tracer(wall_clock=None, categories=SIM_CATEGORIES)
    result = run_experiment(_config(transport),
                            obs=Observability(tracer=tracer))
    return result, tracer


def _sends(tracer):
    """``net.send`` spans with the tid resolved back to its track name
    (tids are allocated in registration order, which differs once the
    checkpoint transport registers frame tracks of its own)."""
    names = {tid: track for track, tid in tracer._tracks.items()}
    return [dict(e, track=names[e["tid"]]) for e in tracer.events
            if e["name"] == "net.send"]


@pytest.fixture(scope="module")
def vt():
    spec = importlib.util.spec_from_file_location("validate_trace", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    return _run(None)


@pytest.fixture(scope="module")
def estimate():
    return _run("estimate")


@pytest.fixture(scope="module")
def network():
    return _run("network")


def test_estimate_mode_sim_identical_to_uncheckpointed(vt, baseline,
                                                       estimate):
    _, tr_base = baseline
    _, tr_est = estimate
    problems = vt.compare_sim_streams(tr_base.events, tr_est.events)
    assert problems == []


def test_estimate_mode_same_sim_as_cli(vt, baseline, estimate, tmp_path,
                                       capsys):
    _, tr_base = baseline
    _, tr_est = estimate
    a = tr_base.export(tmp_path / "baseline.json")
    b = tr_est.export(tmp_path / "estimate.json")
    assert vt.main([str(a), "--same-sim-as", str(b)]) == 0
    assert "sim-identical" in capsys.readouterr().out


def test_estimate_mode_byte_identical_across_repeats(estimate, tmp_path):
    _, tr_est = estimate
    again_result, tr_again = _run("estimate")
    a = (tmp_path / "est_a.json")
    b = (tmp_path / "est_b.json")
    tr_est.export(a)
    tr_again.export(b)
    assert a.read_bytes() == b.read_bytes()
    assert again_result.ckpt_commits > 0


def test_estimate_mode_reports_no_measured_feasibility(estimate):
    result, _ = estimate
    stats = result.transport_stats
    assert stats is not None and stats.mode == "estimate"
    assert not stats.measured
    assert result.measured_feasibility() is None


def test_network_mode_only_delays_messages(estimate, network):
    _, tr_est = estimate
    result, tr_net = network
    sends_est = _sends(tr_est)
    sends_net = _sends(tr_net)
    # same application, same compute timing: the send sequence matches
    assert len(sends_est) == len(sends_net) > 0
    pushed = 0
    for a, b in zip(sends_est, sends_net):
        assert a["track"] == b["track"]      # same sender track
        assert a["args"]["dst"] == b["args"]["dst"]
        assert a["args"]["size"] == b["args"]["size"]
        assert a["args"]["tag"] == b["args"]["tag"]
        assert b["ts"] >= a["ts"] - 1e-9
        end_a = a["ts"] + a["dur"]
        end_b = b["ts"] + b["dur"]
        assert end_b >= end_a - 1e-9
        if end_b > end_a + 1e-9:
            pushed += 1
    # the config is tuned so the sharing is real, not hypothetical
    assert pushed > 0
    stats = result.transport_stats
    assert stats.contended_messages > 0
    assert stats.contention_delay > 0.0


def test_network_mode_measured_verdict_is_bounded(network):
    result, _ = network
    stats = result.transport_stats
    assert stats.measured
    assert stats.bytes_drained == stats.bytes_submitted > 0
    assert stats.in_flight_bytes == 0
    verdict = result.measured_feasibility()
    assert verdict is not None
    envelope = TechnologyEnvelope()
    assert verdict.achieved_bandwidth <= envelope.sustainable_bandwidth
    assert 0.0 < verdict.fraction_of_sustainable <= 1.0


def test_diskless_measured_verdict_is_bounded_by_the_network():
    # diskless frames land in buddy memory, never on a disk: they drain
    # faster than the disk-bound sustainable rate, so the verdict must
    # measure them against the wire they actually cross
    from repro.cluster.experiment import paper_config

    result = run_experiment(paper_config(
        "lu", nranks=4, timeslice=0.5, run_duration=8.0,
        ckpt_transport="diskless"))
    verdict = result.measured_feasibility()
    envelope = TechnologyEnvelope()
    assert verdict.mode == "diskless"
    assert verdict.achieved_bandwidth > envelope.sustainable_bandwidth
    assert verdict.drain_bound == envelope.network_bandwidth
    assert 0.0 < verdict.fraction_of_sustainable <= 1.0


def test_network_trace_includes_frames_and_validates(vt, network, tmp_path,
                                                     capsys):
    _, tr_net = network
    frames = [e for e in tr_net.events if e["name"] == "ckpt.frame"]
    assert frames, "network transport should trace checkpoint frames"
    path = tr_net.export(tmp_path / "network.json")
    assert vt.main([str(path)]) == 0
    capsys.readouterr()


def test_network_mode_deterministic_sim_stream(vt, network):
    _, tr_net = network
    _, tr_again = _run("network")
    assert vt.compare_sim_streams(tr_net.events, tr_again.events) == []
    assert json.dumps(tr_net.events, sort_keys=True) == \
        json.dumps(tr_again.events, sort_keys=True)
