"""Physical operators (Volcano iterator model).

Scans (sequential, data-index, any derived structure's probe), joins
(nested-loop and index nested-loop, both summary-aware), and the
tuple-at-a-time transforms (σ, S, F, π, sort/O, group, distinct, limit).
"""

from repro.query.physical.base import ExecContext, PhysicalOperator
from repro.query.physical.scans import DerivedIndexScan, IndexScan, SeqScan
from repro.query.physical.joins import (
    IndexNestedLoopJoin,
    NestedLoopJoin,
    SummaryIndexNestedLoopJoin,
)
from repro.query.physical.transforms import (
    DistinctOp,
    FilterOp,
    GroupOp,
    LimitOp,
    ProjectOp,
    SortOp,
    SummaryFilterOp,
    SummarySelectOp,
)

__all__ = [
    "ExecContext",
    "PhysicalOperator",
    "SeqScan",
    "IndexScan",
    "DerivedIndexScan",
    "NestedLoopJoin",
    "IndexNestedLoopJoin",
    "SummaryIndexNestedLoopJoin",
    "FilterOp",
    "SummarySelectOp",
    "SummaryFilterOp",
    "ProjectOp",
    "SortOp",
    "GroupOp",
    "DistinctOp",
    "LimitOp",
]
