"""Text utilities shared by the mining algorithms.

Tokenization is deliberately simple (lowercase word extraction with a small
stop-word list) — the paper's annotations are short free-text notes, and the
downstream algorithms only need stable, deterministic features.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z']+")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

STOP_WORDS = frozenset(
    """a an and are as at be been but by for from had has have in is it its
    of on or that the their this to was were which will with not no they we
    you i he she his her our your these those there then than very can could
    would should may might must also into over under about after before
    during between both each few more most other some such only own same so
    too just once here when where why how all any nor if while do does did
    doing am being""".split()
)


def tokenize(text: str, drop_stop_words: bool = True) -> list[str]:
    """Lowercase word tokens of ``text``, optionally stop-word filtered."""
    tokens = [t.lower() for t in _WORD_RE.findall(text)]
    if drop_stop_words:
        tokens = [t for t in tokens if t not in STOP_WORDS]
    return tokens


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation."""
    parts = [s.strip() for s in _SENTENCE_RE.split(text)]
    return [s for s in parts if s]


def _token_bucket(token: str, dim: int) -> int:
    """Stable hash bucket for ``token`` (crc32 so runs are reproducible)."""
    return zlib.crc32(token.encode("utf-8")) % dim


def hashed_tf_vector(tokens: list[str], dim: int = 64) -> np.ndarray:
    """Hashed term-frequency vector (the "hashing trick").

    Used by CluStream to embed annotation texts in a fixed-dimension space
    without maintaining a vocabulary.
    """
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        vec[_token_bucket(token, dim)] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec
