"""Regenerate the golden reference files in this directory.

Run from the repository root after an *intentional* behaviour change:

    PYTHONPATH=src python tests/golden/make_golden.py

The goldens pin down two things end to end: the instrumented IWS/IB
trace of one small synthetic configuration, and the failure records +
metrics of one seeded fault-injection run on it.  Every value is exact
(the simulator is deterministic); the tests assert equality, not
tolerance.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.apps.registry import paper_spec
from repro.apps.synthetic import small_spec
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_with_failures
from repro.obs import (MetricsRegistry, Observability, Tracer,
                       strip_wall_times)

HERE = Path(__file__).parent

SPEC = small_spec(name="golden", footprint_mb=6, main_mb=3, period=1.0,
                  passes=1.5, comm_mb=0.25, sub_bursts=1)
CONFIG = ExperimentConfig(spec=SPEC, nranks=2, timeslice=0.5,
                          run_duration=8.0)
PLAN = FaultPlan.exponential(mtbf=4.0, nranks=2, horizon=25.0, seed=9)

#: the transport golden: a small 8-rank Sage run whose checkpoints are
#: real scheduled traffic (network transport).  The full event stream
#: is ~1.4 MB, so the golden pins its length and sha256 (canonical
#: JSON, wall times stripped) plus the scalar outcomes.
TRANSPORT_CONFIG = ExperimentConfig(
    spec=paper_spec("sage-50MB"), nranks=8, timeslice=0.5,
    run_duration=6.0, ckpt_transport="network",
    ckpt_interval_slices=2, ckpt_full_every=3)
TRANSPORT_CATEGORIES = frozenset(
    {"timeslice", "net", "checkpoint", "storage"})

#: the diskless golden: the same shape with frames landing in buddy
#: memory, so they serialize on the buddies' receive links instead of
#: one storage port.  FT's all-to-all puts application messages on
#: those links too, so the golden pins how the two interleave.
TRANSPORT_DISKLESS_CONFIG = dataclasses.replace(
    TRANSPORT_CONFIG, spec=paper_spec("ft"), ckpt_transport="diskless")

#: the corruption golden: the same 8-rank Sage shape, full_every=5 so
#: committed seqs 1..9 share one chain; a bit-flip silently poisons
#: piece 3 of the 5 committed pieces (rank 3, seq 5) and a crash
#: follows.  Pinned: the walk-back (reject 9, 7, 5; recover at 3), the
#: restored run completing, and the sha256 of the full event stream.
CORRUPTION_CONFIG = ExperimentConfig(
    spec=paper_spec("sage-50MB"), nranks=8, timeslice=0.5,
    run_duration=6.0, ckpt_transport="network",
    ckpt_interval_slices=2, ckpt_full_every=5)
CORRUPTION_PLAN = FaultPlan([
    FaultEvent(5.2, FaultKind.FLIP, 3, seq=5),
    FaultEvent(5.6, FaultKind.CRASH, 0)])
CORRUPTION_CATEGORIES = frozenset(
    {"timeslice", "checkpoint", "fault", "recovery"})

#: the dcp golden: the corruption scenario replayed with sub-page
#: differential checkpoints -- the bit-flip lands inside a 256-byte
#: block piece, chain verification walks back over block pieces, and
#: the recovered run completes.  Pinned: the walk-back outcome, the
#: victim chain's per-piece kind and size (dcp deltas must stay no
#: larger than their committed page-mode counterparts), and the sha256
#: of the full event stream.
DCP_CONFIG = ExperimentConfig(
    spec=paper_spec("sage-50MB"), nranks=8, timeslice=0.5,
    run_duration=6.0, ckpt_transport="network",
    ckpt_interval_slices=2, ckpt_full_every=5,
    ckpt_block_size=256)


#: the metrics golden: the whole ``--metrics-out`` registry of four
#: small lu runs -- network transport; diskless at 256-byte dcp blocks
#: (the ``ckpt.dcp.*`` counters); a network-transport fault run under
#: the CI integrity plan, a bit-flip in rank 1's seq 9 and then a crash
#: (the per-life engine gauges, ``faults.*``, ``ckpt.integrity.*`` and
#: a stopped life's in-flight gauges); and the CI observability smoke's
#: seeded exponential fault run (several lives, estimate transport)
METRICS_CONFIG = ExperimentConfig(
    spec=paper_spec("lu"), nranks=2, timeslice=0.5, run_duration=8.0,
    ckpt_transport="network")
METRICS_DISKLESS_CONFIG = dataclasses.replace(
    METRICS_CONFIG, ckpt_transport="diskless", ckpt_block_size=256)
METRICS_FAULT_PLAN = FaultPlan([
    FaultEvent(5.1, FaultKind.FLIP, 1, seq=9),
    FaultEvent(5.3, FaultKind.CRASH, 0)])
METRICS_MTBF_PLAN = FaultPlan.exponential(mtbf=6.0, nranks=2,
                                          horizon=24.0, seed=3)


def canonical_events(tracer: Tracer) -> str:
    """The comparable stream: wall times stripped, keys sorted."""
    return json.dumps(strip_wall_times(tracer.events), sort_keys=True)


def trace_payload() -> dict:
    result = run_experiment(CONFIG)
    return {
        "final_time": result.final_time,
        "init_end_time": result.init_end_time,
        "iterations": result.iterations,
        "ranks": {
            str(rank): [
                {"index": r.index, "t_start": r.t_start, "t_end": r.t_end,
                 "iws_bytes": r.iws_bytes, "footprint_bytes": r.footprint_bytes,
                 "faults": r.faults, "received_bytes": r.received_bytes}
                for r in log.records
            ]
            for rank, log in sorted(result.logs.items())
        },
    }


def faults_payload() -> dict:
    res = run_with_failures(CONFIG, PLAN, interval_slices=2, full_every=3)
    m = res.metrics
    return {
        "planned_events": [e.as_dict() for e in PLAN],
        "final_time": res.final_time,
        "n_lives": len(res.lives),
        "failures": [
            {"time": r.time, "kind": r.kind, "victims": list(r.victims),
             "recovered_seq": r.recovered_seq,
             "recovery_life": r.recovery_life, "lost_work": r.lost_work,
             "restore_time": r.restore_time, "downtime": r.downtime,
             "restarted_at": r.restarted_at}
            for r in res.failures
        ],
        "metrics": {"wall_time": m.wall_time, "n_failures": m.n_failures,
                    "total_lost_work": m.total_lost_work,
                    "total_downtime": m.total_downtime,
                    "total_restore_time": m.total_restore_time,
                    "from_scratch": m.from_scratch,
                    "availability": m.availability,
                    "efficiency": m.efficiency},
    }


def transport_payload(config: ExperimentConfig = TRANSPORT_CONFIG) -> dict:
    tracer = Tracer(wall_clock=None, categories=TRANSPORT_CATEGORIES)
    result = run_experiment(config, obs=Observability(tracer=tracer))
    canon = canonical_events(tracer)
    stats = result.transport_stats
    verdict = result.measured_feasibility()
    return {
        "app": config.spec.name,
        "nranks": config.nranks,
        "final_time": result.final_time,
        "ckpt_commits": result.ckpt_commits,
        "n_events": len(tracer.events),
        "events_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "transport": {
            "mode": stats.mode,
            "pieces": stats.pieces,
            "frames": stats.frames,
            "bytes_submitted": stats.bytes_submitted,
            "bytes_drained": stats.bytes_drained,
            "peak_queue_bytes": stats.peak_queue_bytes,
            "stalls": stats.stalls,
            "stall_time": stats.stall_time,
            "busy_time": stats.busy_time,
            "achieved_bandwidth": stats.achieved_bandwidth,
            "contention_delay": stats.contention_delay,
            "contended_messages": stats.contended_messages,
        },
        "measured": {
            "fraction_of_sustainable": verdict.fraction_of_sustainable,
            "keeping_up": verdict.keeping_up,
        },
    }


def corruption_payload() -> dict:
    tracer = Tracer(wall_clock=None, categories=CORRUPTION_CATEGORIES)
    res = run_with_failures(CORRUPTION_CONFIG, CORRUPTION_PLAN,
                            interval_slices=2, full_every=5,
                            ckpt_transport="network",
                            obs=Observability(tracer=tracer))
    canon = canonical_events(tracer)
    m = res.metrics
    rec = res.failures[0]
    return {
        "app": CORRUPTION_CONFIG.spec.name,
        "nranks": CORRUPTION_CONFIG.nranks,
        "planned_events": [e.as_dict() for e in CORRUPTION_PLAN],
        "final_time": res.final_time,
        "n_lives": len(res.lives),
        "committed_at_crash": [g.seq for g in res.lives[0].committed],
        "failure": {
            "time": rec.time, "kind": rec.kind,
            "victims": list(rec.victims),
            "recovered_seq": rec.recovered_seq,
            "recovery_life": rec.recovery_life,
            "lost_work": rec.lost_work,
            "restore_time": rec.restore_time,
            "downtime": rec.downtime,
            "restarted_at": rec.restarted_at,
        },
        "corruptions": [
            {"detected_at": c.detected_at, "life": c.life, "rank": c.rank,
             "seq": c.seq, "reason": c.reason,
             "rejected_seq": c.rejected_seq}
            for c in res.corruptions
        ],
        "metrics": {"wall_time": m.wall_time,
                    "availability": m.availability,
                    "corruptions_detected": m.corruptions_detected,
                    "integrity_walkbacks": m.integrity_walkbacks},
        "final_iterations": res.lives[-1].iterations,
        "n_events": len(tracer.events),
        "events_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


def dcp_payload() -> dict:
    tracer = Tracer(wall_clock=None, categories=CORRUPTION_CATEGORIES)
    res = run_with_failures(DCP_CONFIG, CORRUPTION_PLAN,
                            interval_slices=2, full_every=5,
                            ckpt_transport="network",
                            obs=Observability(tracer=tracer))
    canon = canonical_events(tracer)
    m = res.metrics
    rec = res.failures[0]
    victim = next(e for e in CORRUPTION_PLAN if e.seq is not None).rank
    store = res.lives[0].store
    return {
        "app": DCP_CONFIG.spec.name,
        "nranks": DCP_CONFIG.nranks,
        "block_size": DCP_CONFIG.ckpt_block_size,
        "planned_events": [e.as_dict() for e in CORRUPTION_PLAN],
        "final_time": res.final_time,
        "n_lives": len(res.lives),
        "committed_at_crash": [g.seq for g in res.lives[0].committed],
        "victim_chain": [
            {"seq": o.seq, "kind": o.kind, "nbytes": o.nbytes}
            for o in store.pieces(victim)
        ],
        "failure": {
            "time": rec.time, "kind": rec.kind,
            "victims": list(rec.victims),
            "recovered_seq": rec.recovered_seq,
            "recovery_life": rec.recovery_life,
            "lost_work": rec.lost_work,
            "restore_time": rec.restore_time,
            "downtime": rec.downtime,
            "restarted_at": rec.restarted_at,
        },
        "corruptions": [
            {"detected_at": c.detected_at, "life": c.life, "rank": c.rank,
             "seq": c.seq, "reason": c.reason,
             "rejected_seq": c.rejected_seq}
            for c in res.corruptions
        ],
        "metrics": {"wall_time": m.wall_time,
                    "availability": m.availability,
                    "corruptions_detected": m.corruptions_detected,
                    "integrity_walkbacks": m.integrity_walkbacks},
        "final_iterations": res.lives[-1].iterations,
        "n_events": len(tracer.events),
        "events_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


def registry_payload(metrics: MetricsRegistry) -> dict:
    """Every counter, gauge and series of a registry, each series with
    its retained windows; histograms hold wall-clock durations, so they
    are left out."""
    out = {}
    for name, entry in metrics.snapshot().items():
        if entry["kind"] == "histogram":
            continue
        if entry["kind"] == "series":
            entry = dict(entry, windows=metrics.series(
                name, window=entry["window"]).windows())
        out[name] = entry
    return out


def metrics_payload() -> dict:
    runs = {}
    for name, config in (("network", METRICS_CONFIG),
                         ("diskless_dcp", METRICS_DISKLESS_CONFIG)):
        obs = Observability(metrics=MetricsRegistry())
        run_experiment(config, obs=obs)
        runs[name] = registry_payload(obs.metrics)
    obs = Observability(metrics=MetricsRegistry())
    run_with_failures(METRICS_CONFIG, METRICS_FAULT_PLAN,
                      interval_slices=2, full_every=4,
                      ckpt_transport="network", obs=obs)
    runs["faults_integrity"] = registry_payload(obs.metrics)
    obs = Observability(metrics=MetricsRegistry())
    run_with_failures(dataclasses.replace(METRICS_CONFIG,
                                          ckpt_transport=None),
                      METRICS_MTBF_PLAN, obs=obs)
    runs["faults_mtbf"] = registry_payload(obs.metrics)
    return runs


def main() -> None:
    for name, payload in (("golden_trace.json", trace_payload()),
                          ("golden_faults.json", faults_payload()),
                          ("golden_transport.json", transport_payload()),
                          ("golden_transport_diskless.json",
                           transport_payload(TRANSPORT_DISKLESS_CONFIG)),
                          ("golden_corruption.json", corruption_payload()),
                          ("golden_dcp.json", dcp_payload()),
                          ("golden_metrics.json", metrics_payload())):
        path = HERE / name
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
