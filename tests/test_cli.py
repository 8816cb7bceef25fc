"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_apps():
    code, text = run_cli("list-apps")
    assert code == 0
    for name in ("sage-1000MB", "sweep3d", "ft"):
        assert name in text
    assert "MB/s" in text


def test_run_command():
    code, text = run_cli("run", "--app", "lu", "--ranks", "2",
                         "--duration", "5")
    assert code == 0
    assert "footprint" in text
    assert "IB:" in text
    assert "period" in text


def test_run_saves_traces(tmp_path):
    code, text = run_cli("run", "--app", "lu", "--ranks", "2",
                         "--duration", "5",
                         "--save-trace", str(tmp_path / "traces"))
    assert code == 0
    assert "saved 2 traces" in text
    from repro.trace import load_traces
    logs = load_traces(tmp_path / "traces")
    assert sorted(logs) == [0, 1]
    assert logs[0].app_name == "lu"


def test_sweep_command():
    code, text = run_cli("sweep", "--app", "lu", "--timeslices", "1,5")
    assert code == 0
    assert text.count("timeslice=") == 2


def test_sweep_empty_timeslices_fails():
    code, _ = run_cli("sweep", "--app", "lu", "--timeslices", "")
    assert code == 2


def test_analyze_command(tmp_path):
    # a timeslice fine enough to resolve LU's burst/gap rhythm (0.7 s
    # period, ~0.4 s of it writing) so the analyzer can detect it
    code, _ = run_cli("run", "--app", "lu", "--ranks", "2",
                      "--duration", "8", "--timeslice", "0.1",
                      "--save-trace", str(tmp_path / "t"))
    assert code == 0
    code, text = run_cli("analyze", "--trace", str(tmp_path / "t"),
                         "--skip", "0.5")
    assert code == 0
    assert text.count("rank ") == 2
    assert "iws/footprint" in text
    assert "period" in text


def test_analyze_missing_dir_fails():
    import pytest
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        run_cli("analyze", "--trace", "/nonexistent/dir")


def test_table1_command():
    code, text = run_cli("table1")
    assert code == 0
    assert "Operating system" in text


def test_unknown_app_rejected_by_argparse():
    with pytest.raises(SystemExit):
        run_cli("run", "--app", "linpack")


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        run_cli()


def test_run_shorter_than_two_iterations_reports_no_period():
    code, text = run_cli("run", "--app", "sage-100MB", "--ranks", "2",
                         "--duration", "20", "--timeslice", "1",
                         "--ckpt-transport", "network")
    assert code == 0
    assert "period:    n/a (1 iteration observed)" in text
    assert "checkpoint:" in text and "measured:" in text
