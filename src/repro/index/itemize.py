"""Itemization of Classifier Rep[] arrays into index keys (§4.1.1).

``(classLabel, annotationCnt)`` pairs become text keys of the form
``"classLabel:ExtendedAnnotationCnt"`` where the count is zero-padded to a
fixed width (3 characters initially) so that lexicographic key order matches
numeric count order. When a count outgrows the width, the index is rebuilt
with a wider format (the paper's footnote 1 — "a very rare operation").
"""

from __future__ import annotations

from repro.errors import IndexError_

DEFAULT_WIDTH = 3
SEPARATOR = ":"


def max_count(width: int) -> int:
    """Largest count representable at ``width`` characters (999 for 3)."""
    return 10**width - 1


def extend_count(count: int, width: int = DEFAULT_WIDTH) -> str:
    """Zero-padded, order-preserving string form of ``count``."""
    if count < 0:
        raise IndexError_(f"negative annotation count {count}")
    if count > max_count(width):
        raise IndexError_(
            f"count {count} exceeds {width}-character format"
        )
    return f"{count:0{width}d}"


def itemize(label: str, count: int, width: int = DEFAULT_WIDTH) -> str:
    """One indexed key: e.g. ``itemize("Disease", 8)`` -> ``"Disease:008"``."""
    if SEPARATOR in label:
        raise IndexError_(f"label {label!r} may not contain {SEPARATOR!r}")
    return f"{label}{SEPARATOR}{extend_count(count, width)}"


def itemize_object(rep: list[tuple[str, int]], width: int = DEFAULT_WIDTH) -> list[str]:
    """Itemize a whole classifier Rep[] array (Figure 4(d) step 1)."""
    return [itemize(label, count, width) for label, count in rep]


def parse_item(item: str) -> tuple[str, int]:
    """Inverse of :func:`itemize`."""
    label, _, count = item.rpartition(SEPARATOR)
    if not label:
        raise IndexError_(f"malformed itemized key {item!r}")
    return label, int(count)


def clamp_probe(
    lo: int | None,
    hi: int | None,
    lo_inclusive: bool,
    hi_inclusive: bool,
    width: int = DEFAULT_WIDTH,
) -> tuple[int | None, int | None, bool, bool] | None:
    """A count range cut to what an index at ``width`` can hold,
    ``0..max_count(width)``: a bound outside it does not itemize (a
    ``> -1`` predicate is every count).  None when no count can match."""
    top = max_count(width)
    if (hi is not None and hi < 0) or (lo is not None and lo > top):
        return None
    if lo is not None and lo < 0:
        lo, lo_inclusive = None, True
    if hi is not None and hi > top:
        hi, hi_inclusive = None, True
    return lo, hi, lo_inclusive, hi_inclusive


def probe_range(
    label: str,
    lo: int | None,
    hi: int | None,
    width: int = DEFAULT_WIDTH,
) -> tuple[str, str]:
    """Starting and stopping probe keys for a range predicate (§4.1.2).

    Missing bounds are substituted with ``label:000...`` / ``label:999...``
    exactly as the paper describes.
    """
    lo_key = itemize(label, 0 if lo is None else lo, width)
    hi_key = itemize(label, max_count(width) if hi is None else hi, width)
    return lo_key, hi_key
