"""The served benchmark under ``benchmarks/perf`` reaches into the engine
by name: its tracer wraps the entry points in ``SERVER_WRAPS`` and its
server reads page counts off the Summary-BTrees.  That code is frozen
while the engine changes under it, so these checks keep every name it
uses resolving, and keep ``index.maintain`` meaning Summary-BTree
maintenance."""

from __future__ import annotations

import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.serve_bench import _page_counts  # noqa: E402
from benchmarks.perf.trace import SERVER_WRAPS, Tracer  # noqa: E402
from repro.index.summary_btree import SummaryBTreeIndex  # noqa: E402
from repro.workload import WorkloadConfig  # noqa: E402
from repro.workload.generator import build_database  # noqa: E402


@pytest.mark.parametrize(
    "module_name, class_name, attr, span", SERVER_WRAPS,
    ids=[f"{m}.{c or ''}.{a}" for m, c, a, _ in SERVER_WRAPS],
)
def test_server_wrap_target_resolves(module_name, class_name, attr, span):
    owner = import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr))


@pytest.fixture(scope="module")
def db():
    return build_database(WorkloadConfig(
        num_birds=6, annotations_per_tuple=3, indexes="summary_btree",
    ))


def test_page_counts_runs_on_a_built_database(db):
    pages = _page_counts(db)
    index = db.derived[("summary", "birds", "ClassBird1")]
    assert pages["index"] == index.pages_used() > 0
    assert pages["summaries"] > 0


def test_index_maintain_spans_cover_summary_btree_maintenance(db):
    """Annotating, deleting an annotation and deleting a tuple each reach
    the Summary-BTree through one of its wrapped delta methods."""
    tracer = Tracer()
    for _, class_name, attr, span in SERVER_WRAPS:
        if class_name == "SummaryBTreeIndex" and span == "index.maintain":
            tracer.wrap(SummaryBTreeIndex, attr, span)
    try:
        oid = db.insert("birds", {"scientific_name": "Ardea alba"})
        first = db.add_annotation("flu infection outbreak", table="birds",
                                  oid=oid)
        db.add_annotation("wing beak plumage", table="birds", oid=oid)
        db.delete_annotation(first.ann_id)
        db.delete_tuple("birds", oid)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["index.maintain"] * 4
    assert db.check_integrity().ok
