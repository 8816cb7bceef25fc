"""CLI surface contract: --help availability, exit codes, and the
observability flags on run/sweep/faults-run plus ``obs view``."""

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# -- --help for every subcommand ----------------------------------------------

@pytest.mark.parametrize("argv", [
    ["--help"],
    ["list-apps", "--help"],
    ["run", "--help"],
    ["sweep", "--help"],
    ["feasibility", "--help"],
    ["table1", "--help"],
    ["validate", "--help"],
    ["ckpt", "verify", "--help"],
    ["faults", "--help"],
    ["faults", "run", "--help"],
    ["obs", "--help"],
    ["obs", "view", "--help"],
    ["analyze", "--help"],
])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_obs_flags_documented_in_help(capsys):
    for sub in (["run"], ["sweep"], ["faults", "run"]):
        with pytest.raises(SystemExit):
            main(sub + ["--help"])
        text = capsys.readouterr().out
        assert "--trace-out" in text
        assert "--metrics-out" in text
        assert "--progress" in text


# -- argparse error exit codes -------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    [],
    ["run"],                      # --app is required
    ["run", "--app", "bogus"],
    ["obs"],                      # needs a subcommand
    ["ckpt"],                     # needs a subcommand
    ["sweep", "--app", "lu", "--jobs", "0"],
    ["report", "--help"],         # the second rendering is gone
])
def test_bad_usage_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()  # swallow the usage message


@pytest.mark.parametrize("argv", [
    ["run", "--app", "lu", "--ranks", "0"],
    ["run", "--app", "lu", "--timeslice", "0"],
    ["sweep", "--app", "lu", "--ranks", "0"],
    ["sweep", "--app", "lu", "--timeslices", "1,0"],
    ["sweep", "--app", "lu", "--timeslices", "1,x"],
    ["feasibility", "--ranks", "0"],
    ["faults", "run", "--app", "lu", "--ranks", "0"],
])
def test_non_positive_or_malformed_counts_exit_two(argv, capsys):
    # rejected while parsing, before any simulation (or any traceback)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_faults_run_needs_a_fault_source(capsys):
    # not an argparse error any more (--corrupt alone is a valid
    # source), but still exit code 2 with a pointer at the flags
    assert main(["faults", "run", "--app", "lu"]) == 2
    assert "--corrupt" in capsys.readouterr().err


# -- observability flags end to end -------------------------------------------

def test_run_writes_trace_and_metrics(tmp_path):
    trace = tmp_path / "run.json"
    metrics = tmp_path / "run-metrics.json"
    code, out = run_cli("run", "--app", "lu", "--ranks", "2",
                        "--duration", "6",
                        "--trace-out", str(trace),
                        "--metrics-out", str(metrics))
    assert code == 0
    assert f"trace written to {trace}" in out
    data = json.loads(trace.read_text())
    assert data["traceEvents"]
    snap = json.loads(metrics.read_text())
    assert snap["instrument.slices"]["value"] > 0


def test_faults_run_trace_then_obs_view(tmp_path):
    trace = tmp_path / "faults.json"
    code, _ = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                      "--duration", "8", "--timeslice", "0.5",
                      "--mtbf", "6", "--seed", "3",
                      "--trace-out", str(trace))
    assert code == 0
    code, out = run_cli("obs", "view", str(trace))
    assert code == 0
    assert "trace:" in out
    assert "timeslice" in out


def test_obs_view_top_flag(tmp_path):
    trace = tmp_path / "t.json"
    run_cli("run", "--app", "lu", "--ranks", "2", "--duration", "6",
            "--trace-out", str(trace))
    code, out = run_cli("obs", "view", str(trace), "--top", "1")
    assert code == 0


def test_obs_view_bad_file_exits_two(tmp_path, capsys):
    code, _ = run_cli("obs", "view", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run_cli("obs", "view", str(bad))
    assert code == 2


def test_sweep_metrics_out(tmp_path):
    metrics = tmp_path / "sweep.txt"
    code, out = run_cli("sweep", "--app", "lu", "--ranks", "2",
                        "--duration", "6", "--timeslices", "1,2",
                        "--no-cache", "--metrics-out", str(metrics))
    assert code == 0
    text = metrics.read_text()
    assert "exec.runs" in text
    assert "exec.run " in text or "exec.run\t" in text or "exec.run" in text


def test_progress_flag_writes_stderr(tmp_path, capsys):
    code, _ = run_cli("run", "--app", "lu", "--ranks", "2",
                      "--duration", "6", "--progress")
    assert code == 0
    err = capsys.readouterr().err
    assert "slices" in err


def test_trace_out_same_seed_sim_identical(tmp_path):
    from repro.obs import load_trace_events, strip_wall_times

    paths = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.json"
        code, _ = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                          "--duration", "8", "--timeslice", "0.5",
                          "--mtbf", "6", "--seed", "3",
                          "--trace-out", str(trace))
        assert code == 0
        paths.append(trace)
    a, b = (strip_wall_times(load_trace_events(p)) for p in paths)
    assert a == b


# -- checkpoint-mode flags ------------------------------------------------------

def test_ckpt_mode_flags_documented_in_help(capsys):
    for sub in (["run"], ["faults", "run"]):
        with pytest.raises(SystemExit):
            main(sub + ["--help"])
        text = capsys.readouterr().out
        assert "--ckpt-block-size" in text


def test_run_dcp_mode_end_to_end():
    code, out = run_cli("run", "--app", "lu", "--ranks", "2",
                        "--duration", "6", "--ckpt-transport", "estimate",
                        "--ckpt-block-size", "512")
    assert code == 0
    assert "commit(s)" in out


@pytest.mark.parametrize("sub", [
    ["run"],
    ["faults", "run", "--mtbf", "6", "--seed", "3"],
], ids=["run", "faults-run"])
def test_invalid_dcp_block_size_exits_two(sub, capsys):
    # 300 does not divide the page size: a configuration error, not an
    # argparse one -- reported to stderr with exit code 2
    code = main(sub + ["--app", "lu", "--ranks", "2", "--duration", "6",
                       "--ckpt-block-size", "300"])
    assert code == 2
    assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--app", "lu", "--ckpt-mode", "dcp"],
    ["run", "--app", "lu", "--ckpt-block-size", "0"],
    ["run", "--app", "lu", "--ckpt-block-size", "-8"],
    ["faults", "run", "--app", "lu", "--ckpt-mode", "dcp"],
], ids=["bad-mode", "zero-block", "negative-block", "faults-bad-mode"])
def test_bad_ckpt_mode_arguments_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


# -- performance-attribution commands ------------------------------------------

@pytest.mark.parametrize("argv", [
    ["obs", "top", "--help"],
    ["obs", "critpath", "--help"],
    ["obs", "diff", "--help"],
])
def test_obs_analytics_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_profile_and_series_flags_documented(capsys):
    for sub in (["run"], ["sweep"], ["faults", "run"]):
        with pytest.raises(SystemExit):
            main(sub + ["--help"])
        text = capsys.readouterr().out
        assert "--profile-out" in text
        assert "--series-out" in text


def test_run_profile_out_then_obs_top(tmp_path):
    profile = tmp_path / "p.json"
    code, out = run_cli("run", "--app", "lu", "--ranks", "2",
                        "--duration", "6", "--profile-out", str(profile))
    assert code == 0
    assert "profile written to" in out
    assert "% of" in out                       # coverage in the summary line
    code, out = run_cli("obs", "top", str(profile))
    assert code == 0
    assert "process.resume" in out
    code, out = run_cli("obs", "top", str(profile), "--by", "count",
                        "--top", "3")
    assert code == 0


def test_run_series_out_writes_jsonl(tmp_path):
    series = tmp_path / "s.jsonl"
    code, _ = run_cli("run", "--app", "lu", "--ranks", "2",
                      "--duration", "6", "--series-out", str(series))
    assert code == 0
    lines = [json.loads(l) for l in series.read_text().splitlines()]
    assert lines
    assert {"series", "index", "count", "sum"} <= set(lines[0])
    assert any(l["series"] == "instrument.iws_bytes" for l in lines)


def test_obs_top_bad_inputs_exit_two(tmp_path, capsys):
    code, _ = run_cli("obs", "top", str(tmp_path / "missing.json"))
    assert code == 2
    assert "bad profile" in capsys.readouterr().err
    not_profile = tmp_path / "np.json"
    not_profile.write_text('{"schema": "other"}')
    code, _ = run_cli("obs", "top", str(not_profile))
    assert code == 2
    capsys.readouterr()


def test_obs_critpath_on_real_trace(tmp_path):
    trace = tmp_path / "t.json"
    code, _ = run_cli("run", "--app", "lu", "--ranks", "2",
                      "--duration", "6", "--trace-out", str(trace))
    assert code == 0
    code, out = run_cli("obs", "critpath", str(trace))
    assert code == 0
    assert "critical path over" in out
    assert "verdicts:" in out
    code, out = run_cli("obs", "critpath", str(trace), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "repro.obs.critpath/1"
    assert data["slices"]


def test_obs_critpath_edge_inputs(tmp_path, capsys):
    code, _ = run_cli("obs", "critpath", str(tmp_path / "missing.json"))
    assert code == 2
    assert "bad trace" in capsys.readouterr().err
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}')
    code, out = run_cli("obs", "critpath", str(empty))
    assert code == 0
    assert "no timeslice instants" in out


def test_obs_diff_identical_runs_exit_zero(tmp_path):
    paths = []
    for tag in ("a", "b"):
        m = tmp_path / f"{tag}.json"
        code, _ = run_cli("run", "--app", "lu", "--ranks", "2",
                          "--duration", "6", "--metrics-out", str(m))
        assert code == 0
        paths.append(m)
    report = tmp_path / "report.json"
    code, out = run_cli("obs", "diff", str(paths[0]), str(paths[1]),
                        "--report", str(report))
    assert code == 0
    assert "0 regression(s)" in out
    assert json.loads(report.read_text())["regressions"] == []


def test_obs_diff_detects_a_changed_counter(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"c": {"kind": "counter", "value": 5}}))
    b.write_text(json.dumps({"c": {"kind": "counter", "value": 7}}))
    code, out = run_cli("obs", "diff", str(a), str(b))
    assert code == 1
    assert "c: 5 -> 7" in out
    # a generous threshold swallows the change
    code, _ = run_cli("obs", "diff", str(a), str(b), "--threshold", "0.5")
    assert code == 0


def test_obs_diff_bad_inputs_exit_two(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"c": {"kind": "counter", "value": 5}}))
    code, _ = run_cli("obs", "diff", str(a), str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot diff" in capsys.readouterr().err
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps(
        {"schema": "repro.obs.profile/1", "events": 0, "sections": 0,
         "categories": [], "subsystems": {}}))
    code, _ = run_cli("obs", "diff", str(a), str(profile))
    assert code == 2
    assert "mixed artifact schemas" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["obs", "diff", str(a), str(a), "--threshold", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_profile_out_rejected_with_worker_modes(tmp_path, capsys):
    code, _ = run_cli("sweep", "--app", "lu", "--ranks", "2",
                      "--duration", "4", "--timeslices", "1,2",
                      "--jobs", "2", "--no-cache",
                      "--profile-out", str(tmp_path / "p.json"))
    assert code == 2
    assert "this process's engine events" in capsys.readouterr().err


def test_run_refuses_removed_rank_group_option(capsys):
    """Runs execute in-process only; the old rank-group worker option is
    an unknown argument now (spelled in pieces to keep the retired name
    out of the source tree)."""
    removed = "--" + "sh" + "ards"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--app", "lu", "--ranks", "4", "--duration", "4",
              removed, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {removed} 2" in capsys.readouterr().err


def test_obs_top_classifies_batched_dispatch_into_known_subsystems(tmp_path):
    """Batched wake/delivery dispatch rides inside shared ``_run_batch``
    engine events; the profiler must re-classify them into the existing
    subsystem table -- no batch or unknown buckets in the top view."""
    profile = tmp_path / "p.json"
    code, _ = run_cli("run", "--app", "sage-50MB", "--ranks", "8",
                      "--duration", "40", "--profile-out", str(profile))
    assert code == 0
    code, out = run_cli("obs", "top", str(profile), "--by", "self")
    assert code == 0
    assert "unknown" not in out
    assert "_run_batch" not in out
    assert "batch.dispatch" not in out
    # the batched paths report under the same names as the seed paths
    code, out = run_cli("obs", "top", str(profile), "--by", "count")
    assert code == 0
    assert "process.resume" in out
    assert "message.delivery" in out
    data = json.loads(profile.read_text())
    kinds = {c["kind"] for c in data["categories"]}
    assert "process.resume" in kinds and "message.delivery" in kinds
    assert not any(k in kinds for k in ("batch.dispatch", "_run_batch",
                                        "unknown"))
