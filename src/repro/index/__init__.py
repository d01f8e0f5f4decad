"""Summary-based indexing schemes (§4).

Two implementations of the Classifier-type indexing scheme:

* :class:`SummaryBTreeIndex` — the paper's proposal: itemized
  ``label:count`` keys over the *de-normalized* summary storage, with
  *backward pointers* straight to the annotated data tuples.
* :class:`BaselineClassifierIndex` — the straw-man: a normalized
  classifier-primitives table with a standard B-Tree on a derived
  ``label-count`` column (Figure 4(c)), requiring extra joins at query time
  and doubling storage.

Both, and the keyword index and snippet replica of Figures 11–12, are
:class:`DerivedIndex` structures: pure functions of the summary storage
that share one event channel and one build/verify/rebuild path.
"""

from repro.index.derived import DerivedIndex
from repro.index.itemize import extend_count, itemize, parse_item, probe_range
from repro.index.summary_btree import SummaryBTreeIndex, IndexPointer
from repro.index.baseline import BaselineClassifierIndex

__all__ = [
    "DerivedIndex",
    "itemize",
    "extend_count",
    "parse_item",
    "probe_range",
    "SummaryBTreeIndex",
    "IndexPointer",
    "BaselineClassifierIndex",
]
