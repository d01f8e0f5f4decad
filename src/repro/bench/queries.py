"""Query templates and selectivity tooling shared by the benchmark files.

The paper's query-performance experiments (Figures 10–15) all run a small
set of query shapes at controlled selectivities; this module centralizes
them so every bench issues exactly the queries §6 describes.
"""

from __future__ import annotations

from collections import Counter

from repro.core.database import Database

CLASS_EXPR = "$.getSummaryObject('ClassBird1').getLabelValue"
SNIPPET_EXPR = "$.getSummaryObject('TextSummary1')"


def label_distribution(db: Database, table: str, label: str) -> Counter:
    """count-value -> number of tuples, from the de-normalized storage."""
    dist: Counter = Counter()
    for _oid, objects in db.manager.storage_for(table).scan():
        obj = objects.get("ClassBird1")
        if obj is not None:
            dist[dict(obj.rep()).get(label, 0)] += 1
    return dist


def equality_constant(
    db: Database, label: str, selectivity: float, table: str = "birds"
) -> int:
    """The count value whose ``label = value`` selectivity is closest to
    the target (the paper reports the 1% point of Figure 10)."""
    dist = label_distribution(db, table, label)
    total = sum(dist.values())
    if not total:
        raise ValueError(f"no summaries on {table!r}")
    return min(
        dist, key=lambda v: abs(dist[v] / total - selectivity)
    )


def range_bounds(
    db: Database, label: str, selectivity: float, table: str = "birds"
) -> tuple[int, int]:
    """[lo, hi] bounds on ``label`` covering ≈ the target tuple fraction."""
    dist = label_distribution(db, table, label)
    total = sum(dist.values())
    target = max(1, round(total * selectivity))
    lo = min(dist)
    covered = 0
    hi = lo
    for value in sorted(dist):
        covered += dist[value]
        hi = value
        if covered >= target:
            break
    return lo, hi


def sp_equality_query(label: str, constant: int) -> str:
    """Figure 10's Select-Project query."""
    return (
        f"Select common_name From birds r Where r.{CLASS_EXPR}('{label}') "
        f"= {constant}"
    )


def two_predicate_query(lo: int, hi: int, *keywords: str) -> str:
    """Figure 11's conjunctive range + keyword-search query."""
    kws = ", ".join(f"'{k}'" for k in keywords)
    return (
        f"Select common_name From birds r Where "
        f"r.{CLASS_EXPR}('Anatomy') in [{lo}, {hi}] And "
        f"r.{SNIPPET_EXPR}.containsUnion({kws})"
    )


def example4_query(threshold: int = 5) -> str:
    """§5's Example 4: data join + summary selection + summary sort."""
    return (
        "Select r.common_name, s.synonym From birds r, synonyms s "
        "Where r.oid = s.bird_id And "
        f"r.{CLASS_EXPR}('Disease') > {threshold} "
        f"Order By r.{CLASS_EXPR}('Disease')"
    )
