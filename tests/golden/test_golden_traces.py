"""Golden-trace regression: the simulator's output is pinned exactly.

The committed JSON files are bit-exact references (the simulator is
deterministic; no tolerances).  If an intentional change shifts them,
regenerate with ``PYTHONPATH=src python tests/golden/make_golden.py``
and review the diff -- an *unintentional* shift here means the physics
of the reproduction changed.
"""

import json
from pathlib import Path

from repro.obs import Observability, Tracer
from repro.cluster.experiment import run_experiment
from repro.faults import run_with_failures
from tests.golden.make_golden import (CORRUPTION_CATEGORIES,
                                      CORRUPTION_PLAN, DCP_CONFIG,
                                      TRANSPORT_CATEGORIES,
                                      TRANSPORT_CONFIG,
                                      TRANSPORT_DISKLESS_CONFIG,
                                      canonical_events,
                                      corruption_payload, dcp_payload,
                                      faults_payload, metrics_payload,
                                      trace_payload, transport_payload)

HERE = Path(__file__).parent


def load(name):
    return json.loads((HERE / name).read_text())


def test_trace_matches_golden_exactly():
    golden = load("golden_trace.json")
    current = json.loads(json.dumps(trace_payload()))  # normalize types
    assert current["final_time"] == golden["final_time"]
    assert current["iterations"] == golden["iterations"]
    assert current["init_end_time"] == golden["init_end_time"]
    assert sorted(current["ranks"]) == sorted(golden["ranks"])
    for rank, records in golden["ranks"].items():
        got = current["ranks"][rank]
        assert len(got) == len(records), f"rank {rank} slice count"
        for i, (g, w) in enumerate(zip(got, records)):
            assert g == w, f"rank {rank} slice {i}"


def test_fault_run_matches_golden_exactly():
    golden = load("golden_faults.json")
    current = json.loads(json.dumps(faults_payload()))
    assert current["planned_events"] == golden["planned_events"]
    assert current["n_lives"] == golden["n_lives"]
    assert current["final_time"] == golden["final_time"]
    assert len(current["failures"]) == len(golden["failures"])
    for i, (g, w) in enumerate(zip(current["failures"],
                                   golden["failures"])):
        assert g == w, f"failure {i}"
    assert current["metrics"] == golden["metrics"]


def test_transport_run_matches_golden_exactly():
    golden = load("golden_transport.json")
    current = json.loads(json.dumps(transport_payload()))
    assert current == golden


def test_diskless_transport_run_matches_golden_exactly():
    golden = load("golden_transport_diskless.json")
    current = json.loads(json.dumps(
        transport_payload(TRANSPORT_DISKLESS_CONFIG)))
    assert current == golden


def test_golden_diskless_transport_shares_the_buddy_links():
    # guard against the golden being regenerated into a run where the
    # buddy receive links carry only checkpoint frames
    golden = load("golden_transport_diskless.json")
    t = golden["transport"]
    assert golden["nranks"] == 8 and golden["app"] == "ft"
    assert t["mode"] == "diskless"
    assert t["frames"] > t["pieces"] > 0
    assert t["bytes_drained"] == t["bytes_submitted"] > 0
    assert t["contended_messages"] > 0 and t["contention_delay"] > 0.0
    assert 0.0 < golden["measured"]["fraction_of_sustainable"] <= 1.0


def test_transport_run_is_deterministic_byte_for_byte():
    # two same-seed runs, compared as exported bytes after stripping
    # wall times (wall_clock=None means there are none to begin with,
    # so the canonical stream IS the exported stream)
    streams = []
    for _ in range(2):
        tracer = Tracer(wall_clock=None, categories=TRANSPORT_CATEGORIES)
        run_experiment(TRANSPORT_CONFIG, obs=Observability(tracer=tracer))
        streams.append(canonical_events(tracer).encode())
    assert streams[0] == streams[1]


def test_golden_transport_actually_measures():
    # guard against the golden being regenerated into a trivial run
    golden = load("golden_transport.json")
    t = golden["transport"]
    assert golden["nranks"] == 8 and golden["app"].startswith("sage")
    assert golden["ckpt_commits"] > 0
    assert t["mode"] == "network"
    assert t["frames"] > t["pieces"] > 0       # real framed traffic
    assert t["bytes_drained"] == t["bytes_submitted"] > 0
    assert 0.0 < t["achieved_bandwidth"] <= 320 * 2**20  # disk-bound
    assert 0.0 < golden["measured"]["fraction_of_sustainable"] <= 1.0


def test_corruption_recovery_matches_golden_exactly():
    golden = load("golden_corruption.json")
    current = json.loads(json.dumps(corruption_payload()))
    assert current == golden


def test_golden_corruption_actually_walks_back():
    # guard against the golden being regenerated into a trivial run:
    # the crash must see five committed pieces, the silent flip must be
    # piece 3 of them, and recovery must walk back past it and finish
    golden = load("golden_corruption.json")
    assert golden["nranks"] == 8 and golden["app"].startswith("sage")
    assert golden["committed_at_crash"] == [1, 3, 5, 7, 9]
    assert golden["failure"]["recovered_seq"] == 3
    assert [c["rejected_seq"] for c in golden["corruptions"]] == [9, 7, 5]
    assert all(c["reason"] == "digest-mismatch" and c["rank"] == 3
               and c["seq"] == 5 for c in golden["corruptions"])
    assert golden["metrics"]["corruptions_detected"] == 3
    assert golden["metrics"]["integrity_walkbacks"] == 3
    assert golden["n_lives"] == 2 and golden["final_iterations"] > 0
    assert golden["n_events"] > 500
    assert len(golden["events_sha256"]) == 64


def test_dcp_recovery_matches_golden_exactly():
    golden = load("golden_dcp.json")
    current = json.loads(json.dumps(dcp_payload()))
    assert current == golden


def test_golden_dcp_actually_walks_back_block_pieces():
    # guard against the golden being regenerated into a trivial run:
    # the chain must really be block-granular, the flip must hit a dcp
    # piece, and recovery must walk back over block pieces and finish
    golden = load("golden_dcp.json")
    assert golden["nranks"] == 8 and golden["app"].startswith("sage")
    assert golden["block_size"] == 256
    assert golden["committed_at_crash"] == [1, 3, 5, 7, 9]
    chain = golden["victim_chain"]
    assert [p["kind"] for p in chain] == ["full", "dcp", "dcp", "dcp",
                                          "dcp"]
    full = chain[0]["nbytes"]
    assert all(0 < p["nbytes"] < full for p in chain[1:])
    assert golden["failure"]["recovered_seq"] == 3
    assert [c["rejected_seq"] for c in golden["corruptions"]] == [9, 7, 5]
    assert all(c["reason"] == "digest-mismatch" for c in
               golden["corruptions"])
    assert golden["n_lives"] == 2 and golden["final_iterations"] > 0
    assert len(golden["events_sha256"]) == 64


def test_dcp_corruption_run_is_deterministic_byte_for_byte():
    streams = []
    for _ in range(2):
        tracer = Tracer(wall_clock=None, categories=CORRUPTION_CATEGORIES)
        run_with_failures(DCP_CONFIG, CORRUPTION_PLAN, interval_slices=2,
                          full_every=5, ckpt_transport="network",
                          obs=Observability(tracer=tracer))
        streams.append(canonical_events(tracer).encode())
    assert streams[0] == streams[1]


def test_golden_fault_run_actually_recovers():
    # guard against the golden being regenerated into a trivial run
    golden = load("golden_faults.json")
    assert len(golden["failures"]) >= 2
    assert golden["n_lives"] == len(golden["failures"]) + 1
    assert golden["metrics"]["availability"] < 1.0


def test_metrics_registry_matches_golden_exactly():
    # every counter and gauge, every series window: --metrics-out and
    # --series-out of four runs, pinned name for name
    golden = load("golden_metrics.json")
    current = json.loads(json.dumps(metrics_payload()))
    assert sorted(current) == sorted(golden)
    for run in golden:
        assert current[run] == golden[run], run


def test_golden_metrics_cover_every_source():
    # guard against the golden being regenerated into trivial runs
    golden = load("golden_metrics.json")
    for run in golden.values():
        assert run["net.messages_sent"]["value"] > 0
        assert run["instrument.iws_bytes"]["windows"]
    assert golden["network"]["checkpoint.transport.frames"]["value"] > 0
    assert golden["diskless_dcp"]["ckpt.dcp.blocks_hashed"]["value"] > 0
    integrity = golden["faults_integrity"]
    assert integrity["ckpt.integrity.walkbacks"]["value"] == 1
    assert "sim.engine.life1.pending" in integrity
    assert golden["faults_mtbf"]["faults.failures"]["value"] >= 2
