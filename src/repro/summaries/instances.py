"""Summary instances: configured summarization techniques bound to tables.

A summary instance customizes one of the three summary types for a domain
(§2.1): e.g. ``ClassBird1`` is a Classifier instance with labels
{Disease, Anatomy, Behavior, Other}; ``TextSummary1`` is a Snippet instance
summarizing annotations larger than 1,000 characters into 400-character
snippets. Each user relation can be linked to any number of instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SummaryError
from repro.mining.clustream import CluStream
from repro.mining.lsa import LsaSummarizer
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.summaries.objects import (
    ClassifierObject,
    ClusterObject,
    SnippetObject,
    SummaryObject,
    SummaryType,
)


@dataclass
class SummaryInstance:
    """Base class; use the concrete factories below."""

    name: str

    @property
    def summary_type(self) -> SummaryType:
        raise NotImplementedError

    def new_object(self, tuple_id: int) -> SummaryObject:
        """An empty summary object of this instance for one data tuple."""
        raise NotImplementedError


@dataclass
class ClassifierInstance(SummaryInstance):
    """Naive-Bayes-backed Classifier instance with a closed label set."""

    labels: list[str] = field(default_factory=list)
    classifier: NaiveBayesClassifier | None = None

    def __post_init__(self) -> None:
        if not self.labels:
            raise SummaryError(f"classifier instance {self.name!r} needs labels")
        if self.classifier is None:
            self.classifier = NaiveBayesClassifier(self.labels)

    @property
    def summary_type(self) -> SummaryType:
        return SummaryType.CLASSIFIER

    def train(self, examples: list[tuple[str, str]]) -> None:
        """Seed-train the backing Naive Bayes model."""
        assert self.classifier is not None
        self.classifier.train(examples)

    def classify(self, text: str) -> str:
        assert self.classifier is not None
        if not self.classifier.is_trained:
            return self.classifier.fallback_label
        return self.classifier.classify(text)

    def new_object(self, tuple_id: int) -> ClassifierObject:
        return ClassifierObject(
            instance_name=self.name, tuple_id=tuple_id, labels=self.labels
        )


@dataclass
class SnippetInstance(SummaryInstance):
    """LSA-backed Snippet instance.

    Annotations longer than ``min_chars`` are summarized to at most
    ``max_chars`` characters (the paper's experiments use 1,000 → 400).
    """

    min_chars: int = 1000
    max_chars: int = 400
    summarizer: LsaSummarizer | None = None

    def __post_init__(self) -> None:
        if self.summarizer is None:
            self.summarizer = LsaSummarizer(max_chars=self.max_chars)

    @property
    def summary_type(self) -> SummaryType:
        return SummaryType.SNIPPET

    def snippet_for(self, text: str) -> str | None:
        """Snippet for ``text``, or None when it is below the threshold."""
        if len(text) <= self.min_chars:
            return None
        assert self.summarizer is not None
        return self.summarizer.summarize(text)

    def new_object(self, tuple_id: int) -> SnippetObject:
        return SnippetObject(instance_name=self.name, tuple_id=tuple_id)


@dataclass
class ClusterInstance(SummaryInstance):
    """CluStream-backed Cluster instance (per-tuple micro-clustering)."""

    dim: int = 64
    max_clusters: int = 8
    radius_factor: float = 2.0
    excerpt_chars: int = 120

    @property
    def summary_type(self) -> SummaryType:
        return SummaryType.CLUSTER

    def new_clusterer(self) -> CluStream:
        """A fresh per-tuple CluStream state."""
        return CluStream(
            dim=self.dim,
            max_clusters=self.max_clusters,
            radius_factor=self.radius_factor,
            excerpt_chars=self.excerpt_chars,
        )

    def new_object(self, tuple_id: int) -> ClusterObject:
        return ClusterObject(instance_name=self.name, tuple_id=tuple_id)
