"""Ablation — trigram keyword index for snippet search (no paper figure).

§3.1 cites a studied trade-off between searching the snippets vs the raw
annotations; this extension accelerates the snippet side: in snippet-only
mode (``search_raw=False``) a trigram index pre-filters candidates for
``containsUnion`` predicates before the exact residual re-check, instead
of scanning every tuple and substring-searching its snippets.
"""

import pytest

from repro.bench import FigureTable, fresh_database

_DBS: dict[tuple[int, int], object] = {}

QUERY = (
    "Select common_name From birds r Where "
    "r.$.getSummaryObject('TextSummary1')"
    ".containsUnion('experiment', 'wikipedia')"
)


def _indexed_db(preset, density):
    key = (preset.num_birds, density)
    if key in _DBS:
        return _DBS[key]
    db = fresh_database(
        num_birds=preset.num_birds, annotations_per_tuple=density,
        indexes="none", cell_fraction=0.0,
    )
    db.create_keyword_index("birds", "TextSummary1")
    db.analyze("birds")
    _DBS[key] = db
    return db


@pytest.mark.benchmark(group="ablation-keyword-index")
@pytest.mark.parametrize("mode", ["Snippet-Scan", "Trigram-Index"])
@pytest.mark.parametrize("density", [10, 50, 200])
def test_keyword_search(
    benchmark, case, mode, density, preset, figure_writer
):
    if density not in preset.densities:
        pytest.skip(f"density {density} not in preset {preset.name}")
    db = _indexed_db(preset, density)
    db.options.search_raw = False  # the snippet side of the §3.1 trade-off
    db.options.force_access = "index" if mode == "Trigram-Index" else None
    # disable the candidate path entirely for the scan series
    key = ("keyword", "birds", "TextSummary1")
    if mode == "Snippet-Scan":
        saved = db.derived.pop(key)
    try:
        m = case(db, lambda: db.sql(QUERY))
    finally:
        if mode == "Snippet-Scan":
            db.derived[key] = saved
        db.options.search_raw = True
        db.options.force_access = None

    table = figure_writer.setdefault(
        "ablation_keyword_index",
        FigureTable(
            "Ablation — snippet keyword search: scan vs trigram index",
            unit="ms",
        ),
    )
    table.add_measurement(mode, preset.label(density), m)
    active = [d for d in (10, 50, 200) if d in preset.densities]
    if len(table.cells) == 2 * len(active):
        table.note_ratio("Snippet-Scan", "Trigram-Index",
                         "pre-filtering beats scanning")
