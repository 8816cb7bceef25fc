"""``repro faults run``: argument validation and output."""

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_faults_run_with_mtbf():
    code, text = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                         "--duration", "8", "--timeslice", "0.5",
                         "--mtbf", "6", "--seed", "3")
    assert code == 0
    assert "planned fault(s)" in text
    assert "availability=" in text
    assert "efficiency=" in text


def test_faults_run_same_seed_same_output():
    args = ("faults", "run", "--app", "lu", "--ranks", "2",
            "--duration", "8", "--timeslice", "0.5",
            "--mtbf", "6", "--seed", "3")
    assert run_cli(*args) == run_cli(*args)


def test_faults_run_with_plan_file(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"events": [
        {"time": 3.0, "kind": "crash", "rank": 1}]}))
    code, text = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                         "--duration", "8", "--timeslice", "0.5",
                         "--plan", str(plan))
    assert code == 0
    assert "1 planned fault(s)" in text
    assert "rolled back to" in text


def test_faults_run_reports_a_refused_restore(tmp_path, capsys):
    # without integrity verification the flipped newest piece is
    # restored, and the restore's own digest check refuses it: exit 1
    # with one line on stderr, not a traceback
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"events": [
        {"time": 5.3, "kind": "crash", "rank": 0}]}))
    code, _ = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                      "--duration", "8", "--timeslice", "0.5",
                      "--plan", str(plan), "--corrupt", "flip@5.1:1:9",
                      "--no-verify-integrity")
    assert code == 1
    assert capsys.readouterr().err == (
        "recovery failed: rank 1: restored state differs from the "
        "checkpoint captured at seq 9\n")


def test_faults_run_missing_plan_file(tmp_path, capsys):
    code, _ = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                      "--plan", str(tmp_path / "nope.json"))
    assert code == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_faults_run_invalid_plan_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                      "--plan", str(bad))
    assert code == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_faults_run_plan_rank_out_of_range(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"events": [
        {"time": 1.0, "kind": "crash", "rank": 9}]}))
    code, _ = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                      "--plan", str(plan))
    assert code == 2
    assert "only 2 ranks" in capsys.readouterr().err


def test_faults_run_refuses_a_disk_fault_under_diskless(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"events": [
        {"time": 2.1, "kind": "disk", "rank": 1}]}))
    argv = ("faults", "run", "--app", "lu", "--ranks", "2",
            "--duration", "6", "--plan", str(plan))
    code, _ = run_cli(*argv, "--ckpt-transport", "diskless")
    assert code == 2
    err = capsys.readouterr().err
    assert "bad fault plan" in err and "diskless" in err
    assert "Traceback" not in err
    code, text = run_cli(*argv, "--ckpt-transport", "network")
    assert code == 0 and "planned fault(s)" in text


def test_faults_run_corrupt_detects_and_walks_back(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"events": [
        {"time": 5.3, "kind": "crash", "rank": 0}]}))
    args = ("faults", "run", "--app", "lu", "--ranks", "2",
            "--duration", "8", "--timeslice", "0.5",
            "--plan", str(plan), "--corrupt", "flip@5.1:1:9")
    code, text = run_cli(*args)
    assert code == 0
    assert "digest-mismatch" in text
    assert "rejected committed seq 9" in text
    assert "corruptions=1 walkbacks=1" in text
    assert run_cli(*args) == (code, text)    # same flip, same run


def test_faults_run_corrupt_only_scans_the_store():
    code, text = run_cli("faults", "run", "--app", "lu", "--ranks", "2",
                         "--duration", "8", "--timeslice", "0.5",
                         "--corrupt", "flip@5.1:1:9")
    assert code == 0
    # no crash: the corruption is harmless, but the scan reports it
    assert "integrity scan:" in text
    assert "digest-mismatch" in text


def test_run_store_out_then_ckpt_verify(tmp_path):
    store = tmp_path / "store.rckpt"
    code, text = run_cli("run", "--app", "lu", "--ranks", "2",
                         "--duration", "8", "--timeslice", "0.5",
                         "--ckpt-transport", "network",
                         "--store-out", str(store))
    assert code == 0
    assert "archived to" in text
    code, text = run_cli("ckpt", "verify", str(store))
    assert code == 0
    assert "OK" in text


@pytest.mark.parametrize("spec", [
    "crash@1:0",              # not a corrupting kind
    "flip",                   # no position at all
    "flip@oops:0",            # malformed time
    "flip@1.0:zero",          # malformed rank
    "flip@1.0:0:x",           # malformed seq
    "warp@1.0:0",             # unknown kind
])
def test_bad_corrupt_specs_exit_two(spec, capsys):
    code = main(["faults", "run", "--app", "lu", "--ranks", "2",
                 "--corrupt", spec])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # both at once
    ("faults", "run", "--app", "lu", "--mtbf", "5", "--plan", "x.json"),
    # non-positive or malformed numbers
    ("faults", "run", "--app", "lu", "--mtbf", "0"),
    ("faults", "run", "--app", "lu", "--mtbf", "-3"),
    ("faults", "run", "--app", "lu", "--mtbf", "soon"),
    ("faults", "run", "--app", "lu", "--mtbf", "5", "--seed", "1.5"),
    ("faults", "run", "--app", "lu", "--mtbf", "5", "--interval", "0"),
    ("faults", "run", "--app", "lu", "--mtbf", "5", "--full-every", "0"),
    ("faults", "run", "--app", "lu", "--mtbf", "5",
     "--detect-latency", "-0.1"),
    ("faults", "run", "--app", "lu", "--mtbf", "5", "--timeslice", "0"),
    # unknown app / missing subcommand
    ("faults", "run", "--app", "nosuchapp", "--mtbf", "5"),
    ("faults",),
])
def test_faults_run_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
