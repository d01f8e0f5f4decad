"""Figure 7 — storage overhead of the two indexing schemes.

Paper: the Baseline scheme replicates the summary objects in normalized
form (≈2× storage); the Summary-BTree scheme indexes the de-normalized
storage directly, saving up to 65%, and the overhead stays flat as the
raw-annotation count grows (summary size is density-independent).
"""

import pytest

from repro.bench import FigureTable, cached_database

PAGE_KB = 8  # DiskManager's 8 KiB pages


def _schemes(db):
    """Pages each scheme adds on top of the shared de-normalized
    R_SummaryStorage (the paper's "storage overhead" y-axis): the
    Summary-BTree adds only its index nodes; the Baseline adds a full
    normalized replica of the classifier primitives plus its B-Trees."""
    summary_index = db.derived[("summary", "birds", "ClassBird1")]
    baseline_index = db.derived[("baseline", "birds", "ClassBird1")]
    return {
        "Summary-BTree": summary_index.pages_used(),
        "Baseline": baseline_index.pages_used(),
    }


@pytest.mark.benchmark(group="fig07-storage")
@pytest.mark.parametrize("density", [10, 25, 50, 100, 200])
def test_storage_overhead(benchmark, density, preset, figure_writer):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    db = cached_database(
        num_birds=preset.num_birds, annotations_per_tuple=density,
        indexes="both",
    )
    pages = benchmark.pedantic(lambda: _schemes(db), rounds=1, iterations=1)

    table = figure_writer.setdefault(
        "fig07_storage",
        FigureTable("Figure 7 — storage overhead", unit="KB"),
    )
    x = preset.label(density)
    for scheme, page_count in pages.items():
        table.add(scheme, x, page_count * PAGE_KB)
    if density == max(d for d in preset.densities):
        saved = 1 - table.mean_ratio("Summary-BTree", "Baseline")
        table.note(
            f"Summary-BTree scheme saves {saved:.0%} of Baseline storage"
            "  [paper: up to 65%]"
        )
        first, last = table.x_order[0], table.x_order[-1]
        drift = (
            table.value("Summary-BTree", last)
            / max(table.value("Summary-BTree", first), 1e-9)
        )
        table.note(
            f"Summary-BTree storage grows only {drift:.2f}x across the "
            "sweep  [paper: almost fixed]"
        )
