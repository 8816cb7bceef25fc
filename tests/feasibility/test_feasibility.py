"""Unit tests for the feasibility analysis."""

import pytest

from repro.errors import ConfigurationError
from repro.feasibility import (
    ABSTRACTION_LEVELS,
    FeasibilityAnalyzer,
    TechnologyEnvelope,
    TrendModel,
)
from repro.feasibility.taxonomy import Rating, render_table1
from repro.units import MiB


def test_default_envelope_matches_paper():
    env = TechnologyEnvelope()
    assert env.network_bandwidth == 900 * MiB
    assert env.disk_bandwidth == 320 * MiB
    assert env.bottleneck_bandwidth == 320 * MiB
    assert env.year == 2004


def test_paper_headline_fractions():
    """Sage-1000MB at 78.8 MB/s: ~9% of the network and ~25% of the disk
    (the section 6.3 quote)."""
    analyzer = FeasibilityAnalyzer()
    v = analyzer.assess_rates("sage-1000MB", 78.8 * MiB, 274.9 * MiB)
    assert v.avg_fraction_of_network == pytest.approx(0.0876, abs=0.002)
    assert v.avg_fraction_of_disk == pytest.approx(0.246, abs=0.005)
    assert v.feasible  # even the max (274.9) fits under 320 MB/s


def test_infeasible_when_demand_exceeds_bottleneck():
    analyzer = FeasibilityAnalyzer()
    v = analyzer.assess_rates("hog", 100 * MiB, 400 * MiB)
    assert not v.feasible


def test_headroom_requirement():
    analyzer = FeasibilityAnalyzer(headroom_required=0.5)
    v = analyzer.assess_rates("app", 100 * MiB, 200 * MiB)
    assert not v.feasible  # 200 > 0.5 * 320
    v2 = analyzer.assess_rates("app", 100 * MiB, 150 * MiB)
    assert v2.feasible


def test_analyzer_validation():
    with pytest.raises(ConfigurationError):
        FeasibilityAnalyzer(headroom_required=0.0)
    analyzer = FeasibilityAnalyzer()
    with pytest.raises(ConfigurationError):
        analyzer.assess_rates("x", 10.0, 5.0)  # max < avg


def test_report_formatting():
    analyzer = FeasibilityAnalyzer()
    verdicts = [analyzer.assess_rates("a", 10 * MiB, 20 * MiB),
                analyzer.assess_rates("b", 100 * MiB, 500 * MiB)]
    report = analyzer.report(verdicts)
    assert "FEASIBLE" in report and "INFEASIBLE" in report
    assert "1/2 applications feasible" in report


# -- trends ------------------------------------------------------------------------

def test_trend_projection_grows_bandwidth():
    trends = TrendModel()
    env = TechnologyEnvelope()
    future = trends.project(env, 5)
    assert future.network_bandwidth > env.network_bandwidth
    assert future.disk_bandwidth > env.disk_bandwidth
    assert future.year == 2009


def test_trend_projection_zero_years_identity():
    trends = TrendModel()
    env = TechnologyEnvelope()
    same = trends.project(env, 0)
    assert same.network_bandwidth == env.network_bandwidth


def test_trend_margin_improves_over_time():
    """Section 6.6's conclusion: networks/storage outgrow application
    write rates, so the demand/bandwidth margin shrinks every year."""
    trends = TrendModel()
    trajectory = trends.margin_trajectory(78.8 * MiB, TechnologyEnvelope(),
                                          years=6)
    margins = [m for _, m in trajectory]
    assert all(b < a for a, b in zip(margins, margins[1:]))


def test_trend_validation():
    with pytest.raises(ConfigurationError):
        TrendModel(network_growth=-0.1)
    trends = TrendModel()
    with pytest.raises(ConfigurationError):
        trends.project(TechnologyEnvelope(), -1)
    with pytest.raises(ConfigurationError):
        trends.project_write_rate(10.0, -2)


# -- taxonomy (Table 1) ------------------------------------------------------------

def test_table1_has_five_levels():
    assert len(ABSTRACTION_LEVELS) == 5
    names = [l.name for l in ABSTRACTION_LEVELS]
    assert names[0].startswith("Application with library")
    assert names[-1] == "Hardware"


def test_table1_key_orderings():
    """The qualitative relations the paper's argument rests on."""
    by_name = {l.name: l for l in ABSTRACTION_LEVELS}
    os_level = by_name["Operating system"]
    app_level = by_name["Application with library support"]
    hw = by_name["Hardware"]
    assert os_level.transparency > app_level.transparency
    assert os_level.flexibility > app_level.flexibility
    assert app_level.checkpoint_size < os_level.checkpoint_size
    assert hw.portability < os_level.portability < app_level.portability


def test_os_level_tradeoff():
    # the row the paper argues for
    lvl = next(l for l in ABSTRACTION_LEVELS if l.name == "Operating system")
    assert lvl.granularity == "Memory Page"
    assert lvl.transparency is Rating.HIGH


def test_render_table1():
    text = render_table1()
    assert "Operating system" in text
    assert "Cache line" in text
    assert len(text.splitlines()) == 7  # header + rule + 5 rows
