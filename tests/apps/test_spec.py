"""Unit tests for workload specs and the paper registry."""

import pytest

from repro.apps import PAPER_APPS, WorkloadSpec, paper_spec
from repro.apps.nas import NAS_BENCHMARKS, nas_spec
from repro.apps.sage import SAGE_SIZES, sage_spec
from repro.apps.synthetic import small_spec
from repro.errors import ConfigurationError
from repro.units import MiB


def test_all_paper_specs_construct():
    for name in PAPER_APPS:
        spec = paper_spec(name)
        assert spec.footprint_mb > 0
        assert spec.paper_avg_ib_1s > 0


def test_unknown_app_rejected():
    with pytest.raises(ConfigurationError):
        paper_spec("linpack")
    with pytest.raises(ConfigurationError):
        sage_spec(123)
    with pytest.raises(ConfigurationError):
        nas_spec("cg")


def test_paper_table_ordering_ib():
    """Table 4 ordering: FT > Sage-1000 > BT > Sage-500 ~ Sweep3D > SP >
    Sage-100 > LU > Sage-50 (by average IB at 1 s)."""
    avg = {name: paper_spec(name).paper_avg_ib_1s for name in PAPER_APPS}
    assert avg["ft"] > avg["sage-1000MB"] > avg["bt"]
    assert avg["sage-500MB"] > avg["sp"] > avg["sage-100MB"]
    assert avg["lu"] > avg["sage-50MB"]


def test_sage_footprint_oscillation_consistent():
    """static + temp == paper max; static + hold*temp == paper avg."""
    for size in SAGE_SIZES:
        spec = sage_spec(size)
        assert spec.temp_mb > 0
        assert spec.footprint_mb + spec.temp_mb == pytest.approx(
            spec.paper_footprint_max_mb, rel=1e-6)
        avg = spec.footprint_mb + spec.temp_hold_fraction * spec.temp_mb
        assert avg == pytest.approx(spec.paper_footprint_avg_mb, rel=1e-6)


def test_sage_is_dynamic_f90():
    spec = sage_spec(1000)
    assert spec.main_allocation == "dynamic"
    assert spec.alloc_style.value == "fortran90"


def test_nas_are_static_f77():
    for bench in NAS_BENCHMARKS:
        spec = nas_spec(bench)
        assert spec.main_allocation == "static"
        assert spec.alloc_style.value == "fortran77"
        assert spec.temp_mb == 0


def test_ft_uses_alltoall():
    assert nas_spec("ft").comm_pattern == "alltoall"
    assert nas_spec("bt").comm_pattern == "grid2d"


def test_calibration_identity_long_period_apps():
    """For the long-period apps, the peak-slice write rate equals the
    paper's maximum IB and per-iteration volume / period equals the
    paper's average IB (the calibration rule the models are built on).

    For monolithic bursts (Sage) the peak-slice rate is the sweep rate;
    for the pipelined octant structure (Sweep3D) a peak slice holds
    sweep and exchange time in proportion, so the effective rate is
    V / (T * (f_burst + f_comm)).
    """
    for name in ("sage-1000MB", "sage-500MB"):
        spec = paper_spec(name)
        rate = (spec.passes * spec.main_region_mb) / spec.burst_duration
        assert rate == pytest.approx(spec.paper_max_ib_1s, rel=0.05)
        volume = (spec.passes * spec.main_region_mb + spec.temp_mb
                  + spec.comm_mb_per_iteration)
        assert volume / spec.iteration_period == pytest.approx(
            spec.paper_avg_ib_1s, rel=0.05)

    spec = paper_spec("sweep3d")
    busy = spec.burst_fraction + spec.comm_fraction
    eff_rate = (spec.passes * spec.main_region_mb) / (
        spec.iteration_period * busy)
    assert eff_rate == pytest.approx(spec.paper_max_ib_1s, rel=0.05)
    volume = spec.passes * spec.main_region_mb + spec.comm_mb_per_iteration
    assert volume / spec.iteration_period == pytest.approx(
        spec.paper_avg_ib_1s, rel=0.05)


def test_calibration_identity_short_period_apps():
    """For the sub-second NAS kernels, working set + receive buffer per
    1 s slice approximates the paper average IB."""
    for name in ("sp", "lu", "bt"):
        spec = paper_spec(name)
        per_second_unique = spec.main_region_mb + spec.recv_buffer_bytes / MiB
        assert per_second_unique == pytest.approx(spec.paper_avg_ib_1s,
                                                  rel=0.10)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        small_spec(footprint_mb=0)
    with pytest.raises(ConfigurationError):
        small_spec(main_mb=10, footprint_mb=5)
    with pytest.raises(ConfigurationError):
        small_spec(period=0)
    with pytest.raises(ConfigurationError):
        small_spec(passes=0)
    with pytest.raises(ConfigurationError):
        small_spec(burst_fraction=0.9, comm_fraction=0.5)
    with pytest.raises(ConfigurationError):
        small_spec(comm_rounds=0)
    with pytest.raises(ConfigurationError):
        small_spec(pattern="hypercube")
    with pytest.raises(ConfigurationError):
        small_spec(main_allocation="magic")


def test_derived_quantities():
    spec = small_spec(footprint_mb=8, main_mb=4, period=2.0, passes=3,
                      comm_mb=1.0, comm_rounds=4)
    assert spec.footprint_bytes == 8 * MiB
    assert spec.main_region_bytes == 4 * MiB
    assert spec.burst_duration == pytest.approx(1.0)
    assert spec.recv_buffer_bytes == 256 * 1024
    assert spec.init_duration == pytest.approx(8 / 64)


def test_scaled_copy():
    spec = small_spec()
    bigger = spec.scaled(footprint_mb=16.0)
    assert bigger.footprint_mb == 16.0
    assert bigger.name == spec.name
    assert spec.footprint_mb == 4.0  # original untouched
