"""Benchmark of the simulator: one named workload, measured end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scale_skeleton --seed 1 \\
        --seconds 30 --trace 0

The parent process starts the workload again and again, each time in a
fresh interpreter, for about ``--seconds``.  Every child times
itself from its own start, runs the workload through the simulator's
public entry points with the speed probe of :mod:`speedprobe` sampling
alongside, and reports its output digest, its exact work counts and its
timings, scaled to the probe's reference speed, as one JSON line.  The parent compares each
digest with the reference recorded for the workload and seed (see
``references.json``), checks that the work counts repeat exactly, and
prints the medians as the last line of its standard output.

With ``--trace 1`` every other child runs with the per-layer span
recorder of :mod:`tracing` installed, and the parent reports per-layer
counts and self times instead, plus the tracing overhead (traced over
untraced wall time).  Each traced child writes its spans to
``perfbench/.work/spans-<workload>/`` when it ends.

``--record`` reruns a workload for a list of seeds and writes their
digests into ``references.json``; use it only when a change is meant to
alter the simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"

#: name -> unit, as BENCHMARK.json lists them
END_TO_END = {"wall_s": "s", "setup_s": "s", "rank_sim_s_per_wall_s": "1/s",
              "peak_rss_mb": "MiB", "ok_rate": "ratio"}
#: operations one child attempts, per workload (for children that die)
OPERATIONS = {"scale_skeleton": 1, "ckpt_write": 1, "crash_recovery": 5,
              "fig2_sweep": 72}
#: a run starts no child that would likely end past this many seconds,
#: and kills one still running 30 s later, so that it ends inside three
#: minutes however slow the machine is
HARD_STOP_S = 120.0
#: children per run at the least, whatever ``--seconds`` says
MIN_CHILDREN = 3


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- child --------------------------------------------------------------------


def child_main(workload: str, seed: int, spawned: float, traced: bool) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    import speedprobe
    probe = speedprobe.SpeedProbe(work)
    probe.start()
    import workloads

    marks = workloads.Marks()
    marks.install()
    rec = None
    if traced:
        import tracing
        rec = tracing.SpanRecorder(work)
        tracing.install(rec, marks)
    try:
        outcome = workloads.WORKLOADS[workload](seed, work, marks)
        done = clock()
        probe.stop()
        probe.collect()
        first = marks.first_event or done
        # host seconds less the probe's own, at the reference speed
        factor = probe.factor()
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report = {
            "wall_s": (done - spawned - probe.spent(done)) * factor,
            "setup_s": (first - spawned - probe.spent(first)) * factor,
            "raw_wall_s": done - spawned,
            "probe_ms": probe.median_ms(),
            "peak_rss_mb": (usage_self + usage_kids) / 1024.0,
            "rank_sim_s": outcome.rank_sim_s,
            "digest": outcome.digest,
            "counts": outcome.counts,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "traced": traced,
        }
        if rec is not None:
            import layers
            report["layers"] = layers.layer_metrics(rec, outcome, marks, work)
            keep = WORK / f"spans-{workload}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir(parents=True)
            rec.dump(keep / "main.spans")
            for p in work.glob("worker-*"):
                shutil.move(str(p), keep / p.name)
        print(json.dumps(report))
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    return 0


# -- parent -------------------------------------------------------------------


def run_child(workload: str, seed: int, traced: bool,
              timeout: float = HARD_STOP_S) -> dict:
    """One fresh process; returns its report, or a failure record."""
    spawned = clock()
    failure = {"attempted": OPERATIONS[workload],
               "failed": OPERATIONS[workload], "traced": traced}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", workload,
             "--seed", str(seed), "--spawned", repr(spawned),
             "--trace", "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**failure, "error": f"child killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        return {**failure, "error": f"child exited {proc.returncode}:\n{tail}"}
    return json.loads(lines[-1])


def reference_for(workload: str, seed: int) -> str | None:
    """The recorded digest for this workload and seed, if any."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    by_seed = refs.get(workload, {})
    return by_seed.get("any", by_seed.get(str(seed)))


def check(children: list[dict], workload: str, seed: int) -> list[str]:
    """Mark children whose output or work counts are wrong as failed;
    returns what went wrong."""
    problems: list[str] = []
    ok = [c for c in children if "error" not in c]
    for c in children:
        if "error" in c:
            problems.append(c["error"])
    if not ok:
        return problems
    want = reference_for(workload, seed)
    if want is None:
        want = ok[0]["digest"]
        print(f"note: no recorded reference for {workload} seed {seed}; "
              f"checking that every process agrees", file=sys.stderr)
    counts = ok[0]["counts"]
    for c in ok:
        problems.extend(c["problems"])
        wrong = []
        if c["digest"] != want:
            wrong.append(f"digest {c['digest'][:16]} != reference "
                         f"{want[:16]}")
        if c["counts"] != counts:
            diff = {k: (counts.get(k), v) for k, v in c["counts"].items()
                    if counts.get(k) != v}
            wrong.append(f"work counts differ from the first run: {diff}")
        if wrong:
            c["failed"] = c["attempted"]
            problems.extend(wrong)
    return problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(children: list[dict]) -> dict:
    ok = [c for c in children if "error" not in c and not c["traced"]]
    attempted = sum(c["attempted"] for c in children if not c["traced"])
    failed = sum(c["failed"] for c in children if not c["traced"])
    per_wall = [c["rank_sim_s"] / (c["wall_s"] - c["setup_s"]) for c in ok]
    values = {
        "wall_s": median([c["wall_s"] for c in ok]),
        "setup_s": median([c["setup_s"] for c in ok]),
        "rank_sim_s_per_wall_s": median(per_wall),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in ok]),
        "ok_rate": 1.0 - failed / attempted if attempted else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(children: list[dict]) -> dict:
    import layers
    traced = [c for c in children if "error" not in c and c["traced"]]
    plain = [c for c in children if "error" not in c and not c["traced"]]
    out = {}
    for name, unit in layers.PER_LAYER.items():
        values = [c["layers"][name] for c in traced]
        out[name] = {"value": median(values), "unit": unit}
    traced_wall = median([c["wall_s"] for c in traced])
    plain_wall = median([c["wall_s"] for c in plain])
    out["trace.traced_wall_s"]["value"] = traced_wall
    out["trace.untraced_wall_s"]["value"] = plain_wall
    out["trace.overhead_ratio"]["value"] = (traced_wall / plain_wall
                                            if plain_wall else 0.0)
    out["host.raw_wall_s"]["value"] = median([c["raw_wall_s"] for c in plain])
    out["host.probe_ms"]["value"] = median([c["probe_ms"] for c in plain])
    return out


def report(metrics: dict, children: list[dict], traced: bool) -> None:
    """Human-readable summary on stderr (stdout's last line is the JSON)."""
    ok = [c for c in children if "wall_s" in c]
    print(f"{len(children)} process(es), "
          f"{sum(c['traced'] for c in children)} traced\n"
          f"  host wall s:   {[round(c['raw_wall_s'], 3) for c in ok]}\n"
          f"  probe ms:      {[round(c['probe_ms'], 3) for c in ok]}\n"
          f"  scaled wall s: {[round(c['wall_s'], 3) for c in ok]}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if traced:
        import layers
        print(layers.shares(metrics), file=sys.stderr)


def record(workload: str, seeds: list[int]) -> int:
    """Write reference digests for ``seeds`` (one fresh process each)."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    entry = {}
    for seed in seeds:
        c = run_child(workload, seed, traced=False)
        if "error" in c or c["failed"]:
            print(c.get("error") or c["problems"], file=sys.stderr)
            return 1
        entry[str(seed)] = c["digest"]
        print(f"{workload} seed {seed}: {c['digest']}", file=sys.stderr)
    if len(entry) > 1 and len(set(entry.values())) == 1:
        # the seed does not reach the output: one digest for every seed
        refs[workload] = {"any": next(iter(entry.values()))}
    else:
        kept = {k: v for k, v in refs.get(workload, {}).items() if k != "any"}
        refs[workload] = {**kept, **entry}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="record reference digests, e.g. 0-99")
    parser.add_argument("--child", choices=sorted(OPERATIONS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.child, args.seed, args.spawned,
                          bool(args.trace))
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        lo, _, hi = args.record.partition("-")
        return record(args.workload, list(range(int(lo), int(hi or lo) + 1)))

    started = clock()
    children: list[dict] = []
    traced = bool(args.trace)
    least = MIN_CHILDREN * (2 if traced else 1)
    while True:
        # in a traced run, traced and untraced processes alternate so the
        # overhead ratio compares neighbours in time
        elapsed = clock() - started
        children.append(run_child(args.workload, args.seed,
                                  traced and len(children) % 2 == 1,
                                  timeout=HARD_STOP_S + 30.0 - elapsed))
        elapsed = clock() - started
        mean = elapsed / len(children)
        # stop where the run ends closest to ``--seconds``: before a child
        # that would end more than half its length past them
        if ((len(children) >= least and elapsed + mean / 2 > args.seconds)
                or elapsed + mean > HARD_STOP_S):
            break
    problems = check(children, args.workload, args.seed)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    metrics = per_layer(children) if traced else end_to_end(children)
    report(metrics, children, traced)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
