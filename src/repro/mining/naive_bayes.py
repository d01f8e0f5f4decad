"""Multinomial Naive Bayes text classifier (paper reference [10]).

The classifier is trained on seed examples per class label and then applied
to every incoming annotation by the Classifier summary-instance maintenance
path. Laplace (add-one) smoothing keeps unseen tokens from zeroing a class.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.errors import SummaryError
from repro.mining.text import tokenize


class NaiveBayesClassifier:
    """Multinomial NB over word tokens with Laplace smoothing.

    Parameters
    ----------
    labels:
        The closed set of class labels, in the order they were declared when
        the summary instance was created (the paper keys ``getLabelName(i)``
        off this order).
    fallback_label:
        Label assigned when a document has no known tokens; defaults to the
        last label (conventionally "Other").
    """

    def __init__(self, labels: list[str], fallback_label: str | None = None):
        if not labels:
            raise SummaryError("classifier needs at least one label")
        self.labels = list(labels)
        self.fallback_label = fallback_label or self.labels[-1]
        if self.fallback_label not in self.labels:
            raise SummaryError(
                f"fallback label {self.fallback_label!r} not in labels"
            )
        self._token_counts: dict[str, Counter] = {l: Counter() for l in labels}
        self._total_tokens: dict[str, int] = defaultdict(int)
        self._doc_counts: dict[str, int] = defaultdict(int)
        self._vocabulary: set[str] = set()
        #: ``(label, log prior, token -> log likelihood)`` per label, built
        #: on first use after training; derived, so never pickled.
        self._tables: list | None = None

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_tables"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _tables=None)

    @property
    def is_trained(self) -> bool:
        return sum(self._doc_counts.values()) > 0

    def train(self, examples: list[tuple[str, str]]) -> None:
        """Add ``(text, label)`` training examples (incremental)."""
        for text, label in examples:
            if label not in self._token_counts:
                raise SummaryError(f"unknown label {label!r}")
            tokens = tokenize(text)
            self._token_counts[label].update(tokens)
            self._total_tokens[label] += len(tokens)
            self._doc_counts[label] += 1
            self._vocabulary.update(tokens)
        self._tables = None

    def _scores(self, tokens: list[str]) -> dict[str, float]:
        """Per-label log posterior of in-vocabulary ``tokens``: the tables
        hold the per-token terms, so scores and ties are bit-identical."""
        tables = self._tables
        if tables is None:
            total_docs = sum(self._doc_counts.values())
            vocab_size = len(self._vocabulary)
            tables = []
            for label in self.labels:
                # Smoothed prior keeps labels with no seed docs representable.
                prior = (self._doc_counts[label] + 1) / (total_docs + len(self.labels))
                denom = self._total_tokens[label] + vocab_size
                counts = self._token_counts[label]
                tables.append((label, math.log(prior), {
                    t: math.log((counts[t] + 1) / denom) for t in self._vocabulary
                }))
            self._tables = tables
        scores: dict[str, float] = {}
        for label, score, table in tables:
            for token in tokens:
                score += table[token]
            scores[label] = score
        return scores

    def log_scores(self, text: str) -> dict[str, float]:
        """Per-label log posterior (unnormalized) for ``text``."""
        if not self.is_trained:
            raise SummaryError("classifier has not been trained")
        return self._scores([t for t in tokenize(text) if t in self._vocabulary])

    def classify(self, text: str) -> str:
        """Most likely label for ``text``."""
        tokens = [t for t in tokenize(text) if t in self._vocabulary]
        if not tokens:
            return self.fallback_label
        scores = self._scores(tokens)
        return max(self.labels, key=lambda l: scores[l])
