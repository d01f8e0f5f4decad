"""CluStream-style incremental clustering (paper reference [2]).

Annotations attached to one data tuple are grouped into micro-clusters held
as cluster-feature (CF) vectors. CF vectors are additive *and* subtractive,
which is exactly what the summary-maintenance layer needs: adding an
annotation folds its feature vector in; deleting one (or eliminating its
effect under projection) subtracts it back out.

Each micro-cluster elects a representative member — the one closest to the
centroid — whose text becomes the group's face in the Cluster summary object
(``Rep[] = [(text, group_size)]`` per §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SummaryError
from repro.mining.text import hashed_tf_vector, tokenize

DEFAULT_DIM = 64
DEFAULT_MAX_CLUSTERS = 8
#: A point joins a cluster when its distance to the centroid is within this
#: factor of the cluster's RMS radius (CluStream's "maximal boundary").
DEFAULT_RADIUS_FACTOR = 2.0
#: Minimum absorption distance so singleton clusters can still grow. Feature
#: vectors are L2-normalized, so unrelated texts sit near sqrt(2) ~ 1.41 and
#: overlapping texts well below 1.0.
MIN_BOUNDARY = 1.0


@dataclass
class MicroCluster:
    """A CF-vector micro-cluster plus its member bookkeeping."""

    dim: int
    linear_sum: np.ndarray = field(default=None)  # type: ignore[assignment]
    square_sum: float = 0.0
    members: dict[int, np.ndarray] = field(default_factory=dict)
    #: member id -> short text excerpt, for representative (re-)election
    excerpts: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.linear_sum is None:
            self.linear_sum = np.zeros(self.dim, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def centroid(self) -> np.ndarray:
        if not self.members:
            return np.zeros(self.dim, dtype=np.float64)
        return self.linear_sum / self.size

    @property
    def rms_radius(self) -> float:
        """Root-mean-square deviation of members from the centroid."""
        if self.size == 0:
            return 0.0
        centroid = self.centroid
        variance = self.square_sum / self.size - float(centroid @ centroid)
        return float(np.sqrt(max(variance, 0.0)))

    def add(self, member_id: int, vector: np.ndarray, excerpt: str) -> None:
        if member_id in self.members:
            raise SummaryError(f"member {member_id} already in cluster")
        self.linear_sum += vector
        self.square_sum += float(vector @ vector)
        self.members[member_id] = vector
        self.excerpts[member_id] = excerpt

    def remove(self, member_id: int) -> None:
        vector = self.members.pop(member_id, None)
        if vector is None:
            raise SummaryError(f"member {member_id} not in cluster")
        self.linear_sum -= vector
        self.square_sum -= float(vector @ vector)
        self.excerpts.pop(member_id, None)

    def merge(self, other: "MicroCluster") -> None:
        """Absorb ``other``'s members (CF additivity)."""
        self.linear_sum += other.linear_sum
        self.square_sum += other.square_sum
        self.members.update(other.members)
        self.excerpts.update(other.excerpts)

    def representative(self) -> tuple[int, str] | None:
        """(member id, excerpt) of the member nearest the centroid."""
        if not self.members:
            return None
        centroid = self.centroid
        best_id = min(
            self.members,
            key=lambda mid: (
                float(np.sum((self.members[mid] - centroid) ** 2)),
                mid,  # deterministic tie-break
            ),
        )
        return best_id, self.excerpts[best_id]

    def distance_to(self, vector: np.ndarray) -> float:
        diff = self.centroid - vector
        return float(np.sqrt(diff @ diff))


class CluStream:
    """Online micro-clustering of one tuple's annotations.

    Parameters
    ----------
    dim:
        Hashed-feature dimensionality.
    max_clusters:
        Cap on simultaneous micro-clusters; exceeding it merges the two
        closest clusters (the CluStream maintenance rule).
    radius_factor:
        Boundary multiplier for absorption.
    """

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        max_clusters: int = DEFAULT_MAX_CLUSTERS,
        radius_factor: float = DEFAULT_RADIUS_FACTOR,
        excerpt_chars: int = 120,
    ):
        self.dim = dim
        self.max_clusters = max_clusters
        self.radius_factor = radius_factor
        self.excerpt_chars = excerpt_chars
        self.clusters: list[MicroCluster] = []
        self._member_cluster: dict[int, MicroCluster] = {}

    def __len__(self) -> int:
        return len(self.clusters)

    @property
    def member_count(self) -> int:
        return len(self._member_cluster)

    def vectorize(self, text: str) -> np.ndarray:
        return hashed_tf_vector(tokenize(text), self.dim)

    def insert(self, member_id: int, text: str) -> MicroCluster:
        """Add an annotation; returns the cluster that absorbed it."""
        if member_id in self._member_cluster:
            raise SummaryError(f"member {member_id} already clustered")
        vector = self.vectorize(text)
        excerpt = text[: self.excerpt_chars]
        target = self._nearest_within_boundary(vector)
        if target is None:
            target = MicroCluster(self.dim)
            self.clusters.append(target)
        target.add(member_id, vector, excerpt)
        self._member_cluster[member_id] = target
        if len(self.clusters) > self.max_clusters:
            self._merge_closest_pair()
        return target

    def remove(self, member_id: int) -> None:
        """Subtract an annotation's effect (CF subtractivity)."""
        cluster = self._member_cluster.pop(member_id, None)
        if cluster is None:
            raise SummaryError(f"member {member_id} is not clustered")
        cluster.remove(member_id)
        if cluster.size == 0:
            # By identity: list.remove compares with ==, and comparing
            # two micro-clusters' CF vectors has no truth value.
            self.clusters = [c for c in self.clusters if c is not cluster]

    def cluster_of(self, member_id: int) -> MicroCluster | None:
        return self._member_cluster.get(member_id)

    def groups(self) -> list[tuple[tuple[int, str], int, list[int]]]:
        """Per cluster: (representative, size, sorted member ids).

        Ordered by descending size then representative id, which keeps the
        resulting Cluster summary object deterministic.
        """
        out = []
        for cluster in self.clusters:
            rep = cluster.representative()
            if rep is None:
                continue
            out.append((rep, cluster.size, sorted(cluster.members)))
        out.sort(key=lambda g: (-g[1], g[0][0]))
        return out

    # -- internals --------------------------------------------------------------

    def _nearest_within_boundary(self, vector: np.ndarray) -> MicroCluster | None:
        best, best_dist = None, float("inf")
        for cluster in self.clusters:
            dist = cluster.distance_to(vector)
            if dist < best_dist:
                best, best_dist = cluster, dist
        if best is None:
            return None
        boundary = max(self.radius_factor * best.rms_radius, MIN_BOUNDARY)
        return best if best_dist <= boundary else None

    def _merge_closest_pair(self) -> None:
        best_pair, best_dist = None, float("inf")
        for i in range(len(self.clusters)):
            for j in range(i + 1, len(self.clusters)):
                dist = self.clusters[i].distance_to(self.clusters[j].centroid)
                if dist < best_dist:
                    best_pair, best_dist = (i, j), dist
        if best_pair is None:
            return
        i, j = best_pair
        keeper, absorbed = self.clusters[i], self.clusters[j]
        keeper.merge(absorbed)
        for member_id in absorbed.members:
            self._member_cluster[member_id] = keeper
        del self.clusters[j]
