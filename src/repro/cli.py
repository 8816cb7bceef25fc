"""Command-line interface: ``python -m repro <command>``.

Commands:

``list-apps``
    The nine calibrated paper workloads with their reference values.
``run``
    Run one instrumented experiment and print footprint/IB statistics
    (optionally save the per-rank traces).
``sweep``
    IB versus timeslice for one application (the Fig 2 view).
``feasibility``
    Measure every application at a 1 s timeslice and print the section
    6.3 verdict table, plus the trend extrapolation.
``table1``
    Print the abstraction-level taxonomy.
``faults run``
    Fault-injection experiment: run under a seeded stochastic or
    explicit fault plan, recover from the checkpoint chain, and report
    lost-work/downtime/availability against the Young/Daly model.
    ``--corrupt KIND@TIME:RANK[:SEQ]`` adds silent store corruption
    (flip/truncate/drop) on top of -- or instead of -- the crash plan;
    integrity verification detects it at recovery time and walks the
    rollback past the poisoned checkpoint.
``ckpt verify``
    Verify an archived checkpoint store file (written with
    ``run --store-out``): recompute every piece digest, check every
    chain link, and report -- a mangled file yields a report, never a
    crash.
``obs view``
    Summarize a trace file written with ``--trace-out`` (span totals,
    instant counts, burst structure) without re-running anything.
``obs top``
    Render a host-time profile written with ``--profile-out``: wall
    time per event kind x subsystem x rank group.
``obs critpath``
    Per-timeslice critical-path verdicts from a trace: app compute vs
    drain backpressure vs network contention.
``obs diff``
    Compare two metrics/profile artifacts; exit 1 when any
    deterministic value moved beyond the threshold.

``run``, ``sweep``, and ``faults run`` all accept ``--trace-out FILE``
(Chrome/Perfetto JSON, or JSONL with a ``.jsonl`` suffix),
``--metrics-out FILE`` (text with ``.txt``, JSON otherwise),
``--profile-out FILE`` (host wall-time attribution),
``--series-out FILE`` (per-window JSONL of the sim-time metric
series), and ``--progress`` (live line on stderr).  Tracing never
perturbs the simulation: timestamps are virtual time, identical across
same-seed runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.apps import PAPER_APPS, paper_spec
from repro.cluster.experiment import paper_config, run_experiment, sweep_timeslices
from repro.feasibility import FeasibilityAnalyzer, TechnologyEnvelope, TrendModel
from repro.feasibility.taxonomy import render_table1
from repro.units import MiB


def _positive_int(text: str) -> int:
    """argparse type for flags that need a count of at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for flags that need a strictly positive value."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_floats(text: str) -> list[float]:
    """argparse type for a comma-separated list of positive values."""
    return [_positive_float(t) for t in text.split(",") if t]


def _nonneg_float(text: str) -> float:
    """argparse type for flags that need a value >= 0."""
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_block_size_flag(cmd: argparse.ArgumentParser) -> None:
    """The checkpoint delta granularity of run/faults-run."""
    cmd.add_argument("--ckpt-block-size", type=_positive_int, default=None,
                     metavar="BYTES",
                     help="delta unit size; must divide the page size "
                          "(default: the page size, whole dirty pages; "
                          "smaller saves sub-page differential blocks)")


def _add_obs_flags(cmd: argparse.ArgumentParser) -> None:
    """The shared observability surface of run/sweep/faults-run."""
    grp = cmd.add_argument_group("observability")
    grp.add_argument("--trace-out", metavar="FILE", default=None,
                     help="write a Chrome/Perfetto trace (.jsonl for the "
                          "compact line stream)")
    grp.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="dump the metrics registry (.txt for text, "
                          "JSON otherwise)")
    grp.add_argument("--profile-out", metavar="FILE", default=None,
                     help="write the host wall-time profile (view with "
                          "'obs top'; in-process runs only)")
    grp.add_argument("--series-out", metavar="FILE", default=None,
                     help="dump the sim-time-windowed metric series as "
                          "per-window JSONL")
    grp.add_argument("--progress", action="store_true",
                     help="live progress line on stderr")


def _make_obs(args):
    """An :class:`~repro.obs.Observability` for the requested flags, or
    None when none were given (the zero-cost path)."""
    if not (args.trace_out or args.metrics_out or args.progress
            or args.profile_out or args.series_out):
        return None
    from repro.obs import (EngineProfiler, MetricsRegistry, Observability,
                           ProgressReporter, Tracer)
    return Observability(
        tracer=Tracer() if args.trace_out else None,
        metrics=MetricsRegistry(),
        progress=ProgressReporter() if args.progress else None,
        profiler=EngineProfiler() if args.profile_out else None)


def _finish_obs(obs, args, out) -> None:
    """Flush whatever the flags asked for after a run completes."""
    if obs is None:
        return
    if obs.progress is not None:
        obs.progress.close()
    if args.profile_out:
        # first: the profile's wall window closes at export time, and
        # the trace/metrics serialization below is not simulation work
        profile = obs.profiler.export(args.profile_out)
        print(f"profile written to {args.profile_out} "
              f"({profile['events']} events, "
              f"{profile['coverage'] * 100.0:.1f}% of "
              f"{profile['wall_total_s']:.2f}s wall attributed)", file=out)
    if args.trace_out:
        obs.tracer.export(args.trace_out)
        print(f"trace written to {args.trace_out} "
              f"({len(obs.tracer.events)} events)", file=out)
    if args.metrics_out:
        obs.metrics.dump(args.metrics_out)
        print(f"metrics written to {args.metrics_out} "
              f"({len(obs.metrics.names())} series)", file=out)
    if args.series_out:
        obs.metrics.dump_series(args.series_out)
        print(f"series written to {args.series_out} "
              f"({len(obs.metrics.all_series())} series)", file=out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On the Feasibility of Incremental "
                    "Checkpointing for Scientific Computing' (IPDPS 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the calibrated paper workloads")

    run = sub.add_parser("run", help="run one instrumented experiment")
    run.add_argument("--app", required=True, choices=sorted(PAPER_APPS))
    run.add_argument("--timeslice", type=_positive_float, default=1.0)
    run.add_argument("--ranks", type=_positive_int, default=4)
    run.add_argument("--duration", type=_positive_float, default=None,
                     help="simulated seconds after initialization")
    run.add_argument("--save-trace", metavar="DIR", default=None,
                     help="write per-rank traces (npz+json) to DIR")
    run.add_argument("--ckpt-transport",
                     choices=("estimate", "network", "diskless"),
                     default=None,
                     help="checkpoint while running, with this data "
                          "path: 'estimate' (flat-duration sink writes), "
                          "'network' (frames through the shared fabric "
                          "to a storage port), or 'diskless' (frames to "
                          "a buddy rank's memory); default: no "
                          "checkpointing")
    run.add_argument("--ckpt-interval", type=_positive_int, default=2,
                     help="checkpoint every N timeslices (with "
                          "--ckpt-transport)")
    run.add_argument("--ckpt-full-every", type=_positive_int, default=4,
                     help="full checkpoint every N captures (with "
                          "--ckpt-transport)")
    _add_block_size_flag(run)
    run.add_argument("--store-out", metavar="FILE", default=None,
                     help="archive the final checkpoint store to FILE "
                          "(verifiable with 'ckpt verify'; needs "
                          "--ckpt-transport)")
    _add_obs_flags(run)

    sweep = sub.add_parser("sweep", help="IB vs timeslice for one app")
    sweep.add_argument("--app", required=True, choices=sorted(PAPER_APPS))
    sweep.add_argument("--timeslices", type=_positive_floats,
                       default="1,2,5,10,15,20",
                       help="comma-separated seconds")
    sweep.add_argument("--ranks", type=_positive_int, default=2)
    sweep.add_argument("--duration", type=_positive_float, default=None,
                       help="simulated seconds after initialization")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the sweep (default 1: "
                            "serial; results are identical at any count)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache (default: "
                            "$REPRO_CACHE_DIR if set, else no cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore any configured result cache")
    _add_obs_flags(sweep)

    feas = sub.add_parser("feasibility",
                          help="full Table 4 + section 6.3 verdicts")
    feas.add_argument("--ranks", type=_positive_int, default=2)
    feas.add_argument("--years", type=int, default=6,
                      help="trend-extrapolation horizon")

    sub.add_parser("table1", help="print the abstraction-level taxonomy")

    val = sub.add_parser("validate",
                         help="check every workload's calibration against "
                              "the paper's tables")
    val.add_argument("--tolerance", type=float, default=0.15)
    val.add_argument("--app", default=None, choices=sorted(PAPER_APPS),
                     help="validate one application (detailed rows)")

    faults = sub.add_parser("faults",
                            help="fault injection and recovery experiments")
    fsub = faults.add_subparsers(dest="faults_command", required=True)
    frun = fsub.add_parser("run",
                           help="run one experiment under a fault plan, "
                                "recovering from the checkpoint chain")
    frun.add_argument("--app", required=True, choices=sorted(PAPER_APPS))
    frun.add_argument("--ranks", type=_positive_int, default=4)
    frun.add_argument("--timeslice", type=_positive_float, default=1.0)
    frun.add_argument("--duration", type=_positive_float, default=None,
                      help="simulated seconds after initialization")
    src = frun.add_mutually_exclusive_group()
    src.add_argument("--mtbf", type=_positive_float, default=None,
                     help="per-node mean time between failures, seconds "
                          "(seeded stochastic plan)")
    src.add_argument("--plan", metavar="FILE", default=None,
                     help="explicit JSON fault plan")
    frun.add_argument("--corrupt", metavar="KIND@TIME:RANK[:SEQ]",
                      action="append", default=None,
                      help="inject silent store corruption: KIND is "
                           "flip, truncate, or drop; SEQ picks the "
                           "stored piece (default: newest at TIME); "
                           "repeatable")
    frun.add_argument("--no-verify-integrity", action="store_true",
                      help="trust checkpoint chains without digest "
                           "verification (the pre-integrity behaviour: "
                           "corruption restores garbage)")
    frun.add_argument("--integrity-bandwidth", type=_positive_float,
                      default=None, metavar="BPS",
                      help="charge digest recomputation at this "
                           "bandwidth into restore time (default: "
                           "uncharged)")
    frun.add_argument("--seed", type=int, default=0,
                      help="stochastic plan seed (same seed, same plan)")
    frun.add_argument("--model", choices=("exponential", "weibull"),
                      default="exponential")
    frun.add_argument("--shape", type=_positive_float, default=0.7,
                      help="Weibull shape (only with --model weibull)")
    frun.add_argument("--interval", type=_positive_int, default=2,
                      help="checkpoint every N timeslices")
    frun.add_argument("--full-every", type=_positive_int, default=4,
                      help="full checkpoint every N captures")
    frun.add_argument("--detect-latency", type=_nonneg_float, default=0.25,
                      help="failure-detection latency, seconds")
    frun.add_argument("--max-faults", type=_positive_int, default=None,
                      help="cap the stochastic plan's event count")
    frun.add_argument("--ckpt-transport",
                      choices=("estimate", "network", "diskless"),
                      default="estimate",
                      help="checkpoint data path (default: estimate, "
                           "the flat-duration sink writes)")
    _add_block_size_flag(frun)
    _add_obs_flags(frun)

    ckpt = sub.add_parser("ckpt", help="checkpoint store utilities")
    csub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    cver = csub.add_parser("verify",
                           help="verify an archived checkpoint store "
                                "(digests + chain links)")
    cver.add_argument("store", metavar="FILE",
                      help="archive written with 'run --store-out'")
    cver.add_argument("--json", action="store_true",
                      help="machine-readable report")

    obs = sub.add_parser("obs", help="observability utilities")
    osub = obs.add_subparsers(dest="obs_command", required=True)
    oview = osub.add_parser("view",
                            help="summarize a trace written with --trace-out")
    oview.add_argument("trace", metavar="TRACE",
                       help="Chrome JSON or JSONL trace file")
    oview.add_argument("--top", type=_positive_int, default=10,
                       help="span rows to show (default 10)")

    otop = osub.add_parser("top",
                           help="render a host-time profile written with "
                                "--profile-out")
    otop.add_argument("profile", metavar="PROFILE",
                      help="profile.json written with --profile-out")
    otop.add_argument("--top", type=_positive_int, default=20,
                      help="category rows to show (default 20)")
    otop.add_argument("--by", choices=("self", "cum", "count"),
                      default="self",
                      help="sort key (default: self time)")

    ocrit = osub.add_parser("critpath",
                            help="per-timeslice critical-path verdicts "
                                 "from a trace")
    ocrit.add_argument("trace", metavar="TRACE",
                       help="Chrome JSON or JSONL trace file")
    ocrit.add_argument("--limit", type=_positive_int, default=30,
                       help="slice rows to show (default 30)")
    ocrit.add_argument("--json", action="store_true",
                       help="machine-readable result")

    odiff = osub.add_parser("diff",
                            help="compare two metrics/profile artifacts "
                                 "(exit 1 on regressions)")
    odiff.add_argument("a", metavar="A", help="baseline artifact")
    odiff.add_argument("b", metavar="B", help="candidate artifact")
    odiff.add_argument("--threshold", type=_nonneg_float, default=0.0,
                       help="relative change tolerated before a value "
                            "counts as a regression (default 0: exact)")
    odiff.add_argument("--strict", action="store_true",
                       help="gate wall-time values too (same-machine "
                            "A/B timing comparisons)")
    odiff.add_argument("--report", metavar="FILE", default=None,
                       help="also write the machine-readable report "
                            "as JSON")

    ana = sub.add_parser("analyze",
                         help="compute IWS/IB statistics from saved traces "
                              "(no re-simulation)")
    ana.add_argument("--trace", required=True, metavar="DIR",
                     help="directory written by 'run --save-trace'")
    ana.add_argument("--skip", type=float, default=0.0,
                     help="drop timeslices starting before this time "
                          "(the initialization burst)")
    return parser


def cmd_list_apps(out) -> int:
    """``list-apps``: print the calibrated workload table."""
    print(f"{'name':14s} {'footprint':>10s} {'period':>8s} "
          f"{'avg IB@1s':>10s} {'max IB@1s':>10s}  pattern", file=out)
    for name in PAPER_APPS:
        spec = paper_spec(name)
        print(f"{name:14s} {spec.paper_footprint_max_mb:8.1f}MB "
              f"{spec.iteration_period:7.2f}s "
              f"{spec.paper_avg_ib_1s:8.1f}MB/s {spec.paper_max_ib_1s:8.1f}MB/s"
              f"  {spec.comm_pattern}", file=out)
    return 0


def cmd_run(args, out) -> int:
    """``run``: one instrumented experiment, stats to stdout."""
    from repro.errors import ConfigurationError
    try:
        config = paper_config(args.app, nranks=args.ranks,
                              timeslice=args.timeslice,
                              run_duration=args.duration,
                              ckpt_transport=args.ckpt_transport,
                              ckpt_interval_slices=args.ckpt_interval,
                              ckpt_full_every=args.ckpt_full_every,
                              ckpt_block_size=args.ckpt_block_size)
    except ConfigurationError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    obs = _make_obs(args)
    result = run_experiment(config, obs=obs)
    _finish_obs(obs, args, out)
    print(f"{args.app}: {result.final_time:.1f} s simulated, "
          f"{result.iterations} iterations, {args.ranks} ranks", file=out)
    print(f"footprint: {result.footprint().as_row()}", file=out)
    print(f"IB:        {result.ib().as_row()}", file=out)
    n = len(result.iteration_starts)
    if n < 2:
        print(f"period:    n/a ({n} iteration{'' if n == 1 else 's'} "
              "observed)", file=out)
    else:
        print(f"period:    {result.measured_period():.2f} s measured "
              f"({config.spec.iteration_period:.2f} s configured)", file=out)
    stats = result.transport_stats
    if stats is not None:
        from repro.units import fmt_bytes
        print(f"checkpoint: {result.ckpt_commits} commit(s), "
              f"{fmt_bytes(stats.bytes_drained)} drained via "
              f"{stats.mode} transport, {stats.stalls} stall(s)", file=out)
        measured = result.measured_feasibility()
        if measured is not None:
            print(f"measured:  {measured.as_row()}", file=out)
    if args.save_trace:
        from repro.trace import save_traces
        paths = save_traces(result.logs, args.save_trace)
        print(f"saved {len(paths)} traces under {args.save_trace}", file=out)
    if args.store_out:
        if result.ckpt is None:
            print("--store-out needs --ckpt-transport (no checkpoint "
                  "store to archive)", file=sys.stderr)
            return 2
        from repro.storage.archive import save_store
        path = save_store(result.ckpt.store, args.store_out)
        print(f"checkpoint store archived to {path} "
              f"({result.ckpt.store.count()} piece(s))", file=out)
    return 0


def cmd_sweep(args, out) -> int:
    """``sweep``: IB versus timeslice for one application, optionally
    fanned across worker processes and backed by the persistent cache."""
    import time

    from repro.exec import default_cache

    if not args.timeslices:
        print("no timeslices given", file=sys.stderr)
        return 2
    if args.jobs > 1 and args.profile_out:
        # the profiler attributes in-process engine events; pool workers
        # would leave it profiling only the parent
        print("--profile-out is incompatible with --jobs > 1: the profiler "
              "attributes this process's engine events", file=sys.stderr)
        return 2
    cache = None if args.no_cache else default_cache(args.cache_dir)
    config = paper_config(args.app, nranks=args.ranks,
                          run_duration=args.duration)
    obs = _make_obs(args)
    t0 = time.perf_counter()
    results = sweep_timeslices(config, args.timeslices, jobs=args.jobs,
                               cache=cache, obs=obs)
    elapsed = time.perf_counter() - t0
    _finish_obs(obs, args, out)
    print(f"{args.app}: average/maximum IB vs timeslice", file=out)
    for ts in sorted(results):
        print("  " + results[ts].ib().as_row(), file=out)
    status = f"{len(results)} runs in {elapsed:.2f}s with {args.jobs} job(s)"
    if cache is not None:
        status += (f"; cache {cache.root}: {cache.hits} hit(s), "
                   f"{cache.misses} miss(es)")
    print(status, file=out)
    return 0


def cmd_feasibility(args, out) -> int:
    """``feasibility``: measure all apps and print verdicts + trends."""
    analyzer = FeasibilityAnalyzer()
    verdicts = []
    for name in PAPER_APPS:
        result = run_experiment(paper_config(name, nranks=args.ranks,
                                             timeslice=1.0))
        verdicts.append(analyzer.assess(name, result.ib()))
    print(analyzer.report(verdicts), file=out)
    heaviest = max(verdicts, key=lambda v: v.avg_demand)
    print(f"\ntrend extrapolation for the most demanding application "
          f"({heaviest.app_name}):", file=out)
    for year, margin in TrendModel().margin_trajectory(
            heaviest.avg_demand, TechnologyEnvelope(), years=args.years):
        print(f"  {year}: demand is {margin:.1%} of the bottleneck",
              file=out)
    return 0


def _parse_corrupt_spec(spec: str):
    """``KIND@TIME:RANK[:SEQ]`` -> a corruption FaultEvent."""
    from repro.faults import FaultEvent, FaultKind
    try:
        kind_text, rest = spec.split("@", 1)
        kind = FaultKind(kind_text.strip().lower())
        parts = rest.split(":")
        if len(parts) not in (2, 3):
            raise ValueError("expected TIME:RANK or TIME:RANK:SEQ")
        time, rank = float(parts[0]), int(parts[1])
        seq = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise ValueError(f"{spec!r}: {exc}") from exc
    if not kind.corrupting:
        raise ValueError(
            f"{spec!r}: {kind.value} is not a corruption kind "
            f"(use flip, truncate, or drop)")
    return FaultEvent(time=time, kind=kind, rank=rank, seq=seq)


def cmd_ckpt_verify(args, out) -> int:
    """``ckpt verify``: scan an archived store; exit 0 when every piece
    and chain verifies, 1 on corruption, 2 on an unreadable file."""
    from repro.storage.archive import scan_store
    try:
        report = scan_store(args.store)
    except OSError as exc:
        print(f"cannot read {args.store}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps({
            "path": report.path,
            "ok": report.ok,
            "error": report.error,
            "nranks": report.nranks,
            "committed": list(report.committed),
            "pieces": [{"index": p.index, "status": p.status,
                        "rank": p.rank, "seq": p.seq, "kind": p.kind,
                        "detail": p.detail} for p in report.pieces],
            "chain_problems": list(report.chain_problems),
        }, indent=2), file=out)
    else:
        print(report.render(), file=out)
    if report.error is not None:
        return 2
    return 0 if report.ok else 1


def cmd_faults_run(args, out) -> int:
    """``faults run``: one fault-injection experiment with recovery."""
    from repro.errors import ConfigurationError, FaultPlanError, RecoveryError
    from repro.faults import FaultPlan, run_with_failures
    from repro.feasibility import FailureModel, observed_efficiency, \
        predicted_vs_observed

    try:
        config = paper_config(args.app, nranks=args.ranks,
                              timeslice=args.timeslice,
                              run_duration=args.duration,
                              ckpt_block_size=args.ckpt_block_size)
    except ConfigurationError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    if args.mtbf is None and args.plan is None and not args.corrupt:
        print("need a fault source: --mtbf, --plan, or --corrupt",
              file=sys.stderr)
        return 2
    if args.plan is not None:
        try:
            plan = FaultPlan.from_file(args.plan)
            plan.validate_for(args.ranks)
        except FaultPlanError as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    elif args.mtbf is not None:
        # failures stretch the run; draw events past the nominal end too
        horizon = 3.0 * config.duration
        if args.model == "weibull":
            plan = FaultPlan.weibull(args.mtbf, args.ranks, horizon,
                                     seed=args.seed, shape=args.shape,
                                     max_faults=args.max_faults)
        else:
            plan = FaultPlan.exponential(args.mtbf, args.ranks, horizon,
                                         seed=args.seed,
                                         max_faults=args.max_faults)
    else:
        plan = FaultPlan.none()
    if args.corrupt:
        try:
            corruptions = [_parse_corrupt_spec(spec)
                           for spec in args.corrupt]
            plan = FaultPlan(list(plan.events) + corruptions)
            plan.validate_for(args.ranks)
        except (FaultPlanError, ValueError) as exc:
            print(f"bad --corrupt spec: {exc}", file=sys.stderr)
            return 2
    obs = _make_obs(args)
    try:
        result = run_with_failures(
            config, plan, interval_slices=args.interval,
            full_every=args.full_every,
            detection_latency=args.detect_latency,
            verify_integrity=not args.no_verify_integrity,
            integrity_bandwidth=args.integrity_bandwidth,
            ckpt_transport=args.ckpt_transport, obs=obs)
    except FaultPlanError as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    _finish_obs(obs, args, out)
    metrics = result.metrics
    print(f"{args.app}: {len(plan)} planned fault(s), "
          f"{len(result.failures)} recovery(ies), "
          f"{len(result.lives)} life(s), "
          f"{result.final_time:.1f} s simulated", file=out)
    for rec in result.failures:
        target = ("from scratch" if rec.recovered_seq is None
                  else f"seq {rec.recovered_seq} (life {rec.recovery_life})")
        print(f"  t={rec.time:8.2f}s {rec.kind:5s} rank(s) "
              f"{','.join(map(str, rec.victims))}: rolled back to {target}, "
              f"lost {rec.lost_work:.2f}s, down {rec.downtime:.2f}s",
              file=out)
    for c in result.corruptions:
        print(f"  integrity: life {c.life} rank {c.rank} seq {c.seq} "
              f"{c.reason} -- rejected committed seq {c.rejected_seq}",
              file=out)
    if any(e.kind.corrupting for e in plan):
        bad = []
        for life in result.lives:
            latest = life.store.latest_committed()
            if latest is None:
                continue
            for rank in range(args.ranks):
                o = life.store.verify_chain(rank, upto_seq=latest,
                                            require_seq=latest)
                if not o.intact:
                    bad.append(f"life {life.index} {o.summary()}")
        state = "all committed chains intact" if not bad else "; ".join(bad)
        print(f"integrity scan: {state}", file=out)
    print(metrics.as_row(), file=out)
    cost = result.mean_commit_latency()
    if args.mtbf is not None and cost is not None and result.failures:
        comparison = predicted_vs_observed(
            interval=args.interval * args.timeslice, cost=cost,
            failures=FailureModel(node_mtbf=args.mtbf, nnodes=args.ranks,
                                  restart_time=metrics.total_downtime
                                  / metrics.n_failures),
            observed=observed_efficiency(metrics.wall_time,
                                         metrics.total_downtime,
                                         metrics.total_lost_work))
        print(f"Young/Daly model: predicted efficiency "
              f"{comparison['predicted_efficiency']:.2%}, observed "
              f"{comparison['observed_efficiency']:.2%} "
              f"(gap {comparison['gap']:+.2%})", file=out)
    return 0


def cmd_obs_view(args, out) -> int:
    """``obs view``: summarize a saved trace (exit 2 on a bad file)."""
    from repro.errors import ObservabilityError
    from repro.obs import load_trace_events, summarize_trace

    try:
        events = load_trace_events(args.trace)
    except ObservabilityError as exc:
        print(f"bad trace: {exc}", file=sys.stderr)
        return 2
    print(summarize_trace(events, top=args.top), file=out)
    return 0


def cmd_obs_top(args, out) -> int:
    """``obs top``: render a saved profile (exit 2 on a bad file)."""
    from repro.errors import ObservabilityError
    from repro.obs import load_profile, render_profile

    try:
        profile = load_profile(args.profile)
    except ObservabilityError as exc:
        print(f"bad profile: {exc}", file=sys.stderr)
        return 2
    print(render_profile(profile, top=args.top, by=args.by), file=out)
    return 0


def cmd_obs_critpath(args, out) -> int:
    """``obs critpath``: per-timeslice verdicts (exit 2 on a bad file)."""
    from repro.errors import ObservabilityError
    from repro.obs import load_trace_events
    from repro.obs.critpath import extract_critical_path, render_critpath

    try:
        events = load_trace_events(args.trace)
    except ObservabilityError as exc:
        print(f"bad trace: {exc}", file=sys.stderr)
        return 2
    result = extract_critical_path(events)
    if args.json:
        import json
        print(json.dumps(result, indent=2), file=out)
    else:
        print(render_critpath(result, limit=args.limit), file=out)
    return 0


def cmd_obs_diff(args, out) -> int:
    """``obs diff``: compare two artifacts; exit 0 when they agree on
    every gated value, 1 on regressions, 2 on unreadable/mixed input."""
    from repro.errors import ObservabilityError
    from repro.obs.diff import diff_artifacts, render_diff

    try:
        report = diff_artifacts(args.a, args.b, threshold=args.threshold,
                                strict=args.strict)
    except ObservabilityError as exc:
        print(f"cannot diff: {exc}", file=sys.stderr)
        return 2
    if args.report:
        import json

        from repro.atomic import atomic_write
        atomic_write(args.report, json.dumps(report, indent=2) + "\n")
    print(render_diff(report), file=out)
    return 1 if report["regressions"] else 0


def cmd_validate(args, out) -> int:
    """``validate``: calibration drift check (exit 1 on drift)."""
    from repro.apps.validation import summarize, validate_all, validate_app
    if args.app is not None:
        report = validate_app(args.app)
        print(report.render(), file=out)
        return 0 if report.passed(args.tolerance) else 1
    reports = validate_all()
    print(summarize(reports, tolerance=args.tolerance), file=out)
    return 0 if all(r.passed(args.tolerance) for r in reports.values()) else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    if args.command == "list-apps":
        return cmd_list_apps(out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "sweep":
        return cmd_sweep(args, out)
    if args.command == "feasibility":
        return cmd_feasibility(args, out)
    if args.command == "table1":
        print(render_table1(), file=out)
        return 0
    if args.command == "faults":
        return cmd_faults_run(args, out)
    if args.command == "ckpt":
        return cmd_ckpt_verify(args, out)
    if args.command == "obs":
        handlers = {"view": cmd_obs_view, "top": cmd_obs_top,
                    "critpath": cmd_obs_critpath, "diff": cmd_obs_diff}
        return handlers[args.obs_command](args, out)
    if args.command == "validate":
        return cmd_validate(args, out)
    if args.command == "analyze":
        return cmd_analyze(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


def cmd_analyze(args, out) -> int:
    """``analyze``: statistics from saved traces, no re-simulation."""
    from repro.metrics import ib_stats, iws_ratio
    from repro.metrics.period import estimate_period_from_log
    from repro.metrics.stats import footprint_stats
    from repro.trace import load_traces

    logs = load_traces(args.trace)
    for rank, log in sorted(logs.items()):
        stats = ib_stats(log, skip_until=args.skip)
        fp = footprint_stats(log, skip_until=args.skip)
        line = (f"rank {rank} ({log.app_name}): {stats.as_row()}  "
                f"footprint {fp.as_row()}  "
                f"iws/footprint {iws_ratio(log, skip_until=args.skip):.1%}")
        try:
            period = estimate_period_from_log(log, skip_until=args.skip)
            line += f"  period {period:.2f} s"
        except Exception:
            pass  # short or aperiodic trace: no period to report
        print(line, file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
