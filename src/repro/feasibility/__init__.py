"""Feasibility analysis: the paper's headline argument.

Compares measured incremental-bandwidth requirements against what the
technology provides -- QsNet II at 900 MB/s and Ultra320 SCSI at
320 MB/s in 2004 -- and extrapolates the technology trends of section
6.6 (processors +60 %/yr, memory +7 %/yr, networks and storage growing
faster than application write rates), concluding that incremental
checkpointing only gets *more* feasible over time.

Also carries Table 1's qualitative taxonomy of checkpointing abstraction
levels (:mod:`~repro.feasibility.taxonomy`).
"""

from repro.feasibility.technology import TechnologyEnvelope, TrendModel
from repro.feasibility.analyzer import (FeasibilityAnalyzer,
                                        FeasibilityVerdict, MeasuredVerdict)
from repro.feasibility.taxonomy import ABSTRACTION_LEVELS, AbstractionLevel
from repro.feasibility.falsesharing import (FalseSharingCell,
                                            false_sharing_ablation,
                                            markdown_table)
from repro.feasibility.availability import (
    CheckpointCostModel,
    FailureModel,
    efficiency,
    efficiency_curve,
    observed_efficiency,
    optimal_efficiency,
    predicted_vs_observed,
    scale_study,
    young_interval,
)

__all__ = [
    "ABSTRACTION_LEVELS",
    "AbstractionLevel",
    "CheckpointCostModel",
    "FailureModel",
    "FalseSharingCell",
    "FeasibilityAnalyzer",
    "FeasibilityVerdict",
    "MeasuredVerdict",
    "TechnologyEnvelope",
    "TrendModel",
    "efficiency",
    "efficiency_curve",
    "false_sharing_ablation",
    "markdown_table",
    "observed_efficiency",
    "optimal_efficiency",
    "predicted_vs_observed",
    "scale_study",
    "young_interval",
]
