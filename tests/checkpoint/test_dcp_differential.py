"""Differential tests: dcp mode against page-granular incremental mode.

Three claims pin the dcp tentpole down on a real 8-rank Sage run:

1. **Block == page is incremental.**  ``block_size == page_size``
   stores the same pieces as the default page mode -- same kind, same
   size -- on every checkpoint of every rank.
2. **Sim streams are identical.**  The application-visible sim stream
   (timeslice boundaries and network messages) of a dcp run matches
   the incremental run exactly, at any block size: block hashing is an
   observability cost, never charged to sim time.  Verified with the
   same ``--same-sim-as`` comparison ``tools/validate_trace.py``
   ships.
3. **Sub-page blocks only shrink the delta.**  At 256-byte blocks
   every delta piece is no larger than its page-mode counterpart, and
   the run total is strictly smaller -- the recovered false sharing.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.apps.registry import paper_spec
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.mem import Layout
from repro.obs import Observability, Tracer

pytestmark = pytest.mark.slow

TOOL = Path(__file__).resolve().parents[2] / "tools" / "validate_trace.py"

#: the application-visible sim stream (checkpoint/storage categories
#: are mode-specific by construction and deliberately excluded)
SIM_CATEGORIES = frozenset({"timeslice", "net"})

PAGE = Layout().page_size
NRANKS = 8


def _config(block_size):
    return ExperimentConfig(spec=paper_spec("sage-100MB"), nranks=NRANKS,
                            timeslice=0.5, run_duration=6.0,
                            ckpt_transport="estimate",
                            ckpt_interval_slices=2, ckpt_full_every=4,
                            ckpt_block_size=block_size)


def _run(block_size):
    tracer = Tracer(wall_clock=None, categories=SIM_CATEGORIES)
    result = run_experiment(_config(block_size),
                            obs=Observability(tracer=tracer))
    return result, tracer


def _rows(result, rank):
    return [(o.seq, o.kind, o.nbytes)
            for o in result.ckpt.store.pieces(rank)]


@pytest.fixture(scope="module")
def vt():
    spec = importlib.util.spec_from_file_location("validate_trace", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def incremental():
    return _run(None)


@pytest.fixture(scope="module")
def dcp_page():
    return _run(PAGE)


@pytest.fixture(scope="module")
def dcp_small():
    return _run(256)


def test_block_equals_page_is_byte_identical(incremental, dcp_page):
    inc, _ = incremental
    dcp, _ = dcp_page
    for rank in range(NRANKS):
        assert _rows(dcp, rank) == _rows(inc, rank), f"rank {rank}"


def test_dcp_sim_identical_to_incremental(vt, incremental, dcp_page,
                                          dcp_small):
    _, tr_inc = incremental
    for _, tr_dcp in (dcp_page, dcp_small):
        assert vt.compare_sim_streams(tr_inc.events, tr_dcp.events) == []


def test_dcp_same_sim_as_cli(vt, incremental, dcp_small, tmp_path, capsys):
    _, tr_inc = incremental
    _, tr_dcp = dcp_small
    a = tr_inc.export(tmp_path / "incremental.json")
    b = tr_dcp.export(tmp_path / "dcp.json")
    assert vt.main([str(a), "--same-sim-as", str(b)]) == 0
    assert "sim-identical" in capsys.readouterr().out


def test_small_blocks_never_exceed_page_mode(incremental, dcp_small):
    inc, _ = incremental
    dcp, _ = dcp_small
    total_inc = total_dcp = 0
    for rank in range(NRANKS):
        rows_inc = _rows(inc, rank)
        rows_dcp = _rows(dcp, rank)
        assert [r[0] for r in rows_dcp] == [r[0] for r in rows_inc]
        for (seq, kind_i, n_inc), (_, kind_d, n_dcp) in zip(rows_inc,
                                                            rows_dcp):
            if kind_i == "full":
                assert kind_d == "full" and n_dcp == n_inc
            else:
                assert kind_d == "dcp"
                assert n_dcp <= n_inc, f"rank {rank} seq {seq}"
                total_inc += n_inc
                total_dcp += n_dcp
    # the acceptance bar: real false sharing was recovered
    assert 0 < total_dcp < total_inc


def test_dcp_chains_verify_intact(dcp_small):
    dcp, _ = dcp_small
    assert dcp.ckpt_commits > 0
    for rank in range(NRANKS):
        outcome = dcp.ckpt.store.verify_chain(rank)
        assert outcome.intact, f"rank {rank}: {outcome}"
