"""Seeded inputs of the lifecycle benchmark: graphs, query grids, request
streams and update deltas.

Everything here is a pure function of the seed (and of the generated graph),
so two runs with the same ``--seed`` see byte-identical inputs.  The program
under test only ever receives what these functions produce: an edge-list
file, ``(mu, epsilon)`` settings, ``MU:EPSILON`` request lines and edge
deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The μ range every grid and stream draws from.
MU_VALUES = tuple(range(2, 17))
#: Similarity-quantile band the ε values come from.  Below it every query
#: returns the same planted clusters; above it most return nothing.
QUANTILE_LOW, QUANTILE_HIGH = 0.5, 0.99


@dataclass(frozen=True)
class Request:
    """One serve request: its setting and the epoch (artifact generation)."""

    mu: int
    epsilon: float
    epoch: int

    @property
    def line(self) -> str:
        return f"{self.mu}:{self.epsilon!r}"


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent generator per purpose, so one stream never shifts another."""
    return np.random.default_rng([seed, sum(map(ord, purpose)), len(purpose)])


def epsilon_at(boundaries: np.ndarray, quantile: float) -> float:
    """The ε at a similarity quantile, moved to the midpoint between the two
    distinct similarity values around it.

    No edge similarity then equals ε, so every comparison ``sim >= ε`` has
    the same answer in the program, in the oracle and after ε-snapping.
    """
    value = float(np.quantile(boundaries, quantile))
    above = int(np.searchsorted(boundaries, value, side="right"))
    above = min(max(above, 1), boundaries.shape[0] - 1)
    return float((boundaries[above - 1] + boundaries[above]) / 2.0)


#: Similarities closer than this are one value: the library computes equal
#: rationals along different float paths, a few ulps apart.
SAME_VALUE = 1e-9


def distinct_similarities(values) -> np.ndarray:
    """Sorted distinct edge-similarity values (the ε boundaries), one per
    group of values within :data:`SAME_VALUE` of each other."""
    unique = np.unique(np.asarray(values, dtype=np.float64))
    if unique.shape[0] == 0:
        return unique
    return unique[np.concatenate([[True], np.diff(unique) > SAME_VALUE])]


def query_grid(boundaries: np.ndarray, seed: int, num_epsilons: int) -> list[tuple[int, float]]:
    """μ ∈ 2..16 crossed with ε at the centres of ``num_epsilons`` equal
    strata of the quantile band, in a seeded order.

    The ε values follow the seeded graph's similarities; fixed quantile
    levels keep the latency mix of two seeds alike.
    """
    rng = rng_for(seed, "grid")
    width = (QUANTILE_HIGH - QUANTILE_LOW) / num_epsilons
    epsilons = [
        epsilon_at(boundaries, QUANTILE_LOW + (stratum + 0.5) * width)
        for stratum in range(num_epsilons)
    ]
    grid = [(mu, epsilon) for mu in MU_VALUES for epsilon in epsilons]
    order = rng.permutation(len(grid))
    return [grid[i] for i in order]


#: The fixed probe settings: μ values crossed with similarity quantiles.
PROBE_MUS = (3, 5, 8)
PROBE_QUANTILES = (0.3, 0.5, 0.7, 0.9)


def probe_settings(boundaries: np.ndarray) -> list[tuple[int, float]]:
    """The fixed settings the artifact and approximation checks use."""
    return [
        (mu, epsilon_at(boundaries, quantile))
        for mu in PROBE_MUS
        for quantile in PROBE_QUANTILES
    ]


def random_setting(rng: np.random.Generator, boundaries: np.ndarray) -> tuple[int, float]:
    mu = int(rng.integers(MU_VALUES[0], MU_VALUES[-1] + 1))
    quantile = QUANTILE_LOW + rng.random() * (QUANTILE_HIGH - QUANTILE_LOW)
    return mu, epsilon_at(boundaries, quantile)


class RequestStream:
    """Closed-loop serve traffic: 90% Zipf over a 24-setting head, 10%
    one-off tail settings, cut into epochs separated by updates.

    Each epoch draws a fresh head, as each artifact generation has its own
    popular settings.  The front end routes a setting to a fixed worker, so
    one head's draw sets the load balance; a run then averages over as many
    heads as it has epochs instead of resting on one.
    """

    HEAD_SIZE = 24
    HEAD_SHARE = 0.9
    ZIPF_EXPONENT = 1.1

    def __init__(self, boundaries: np.ndarray, seed: int) -> None:
        self._rng = rng_for(seed, "stream")
        self._boundaries = boundaries
        self.head: list[tuple[int, float]] = []
        weights = 1.0 / np.arange(1, self.HEAD_SIZE + 1) ** self.ZIPF_EXPONENT
        self._head_cdf = np.cumsum(weights / weights.sum())

    def epoch(self, epoch: int, size: int) -> list[Request]:
        """The next ``size`` requests, all tagged with ``epoch``; the epoch's
        head is left in :attr:`head`."""
        head: list[tuple[int, float]] = []
        while len(head) < self.HEAD_SIZE:
            setting = random_setting(self._rng, self._boundaries)
            if setting not in head:
                head.append(setting)
        self.head = head
        requests = []
        for _ in range(size):
            if self._rng.random() < self.HEAD_SHARE:
                rank = int(np.searchsorted(self._head_cdf, self._rng.random(), side="right"))
                mu, epsilon = head[min(rank, self.HEAD_SIZE - 1)]
            else:
                mu, epsilon = random_setting(self._rng, self._boundaries)
            requests.append(Request(mu, epsilon, epoch))
        return requests


class DeltaSource:
    """Seeded 0.1%-churn deltas (half inserts, half deletes) that track the
    evolving edge set, so every delta is valid against its generation."""

    CHURN = 0.001

    def __init__(self, edge_u: np.ndarray, edge_v: np.ndarray, num_vertices: int, seed: int) -> None:
        self._rng = rng_for(seed, "delta")
        self._n = int(num_vertices)
        self._codes = np.sort(self._encode(np.asarray(edge_u), np.asarray(edge_v)))

    def _encode(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        low, high = np.minimum(u, v), np.maximum(u, v)
        return low.astype(np.int64) * self._n + high.astype(np.int64)

    def next_delta(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """``(insertions, deletions)`` for the next update."""
        count = max(2, int(self._codes.shape[0] * self.CHURN))
        num_deletions = count // 2
        doomed = self._rng.choice(self._codes.shape[0], size=num_deletions, replace=False)
        deleted = self._codes[doomed]
        inserted: set[int] = set()
        while len(inserted) < count - num_deletions:
            u, v = (int(x) for x in self._rng.integers(0, self._n, size=2))
            if u == v:
                continue
            code = min(u, v) * self._n + max(u, v)
            position = int(np.searchsorted(self._codes, code))
            present = position < self._codes.shape[0] and self._codes[position] == code
            if not present:
                inserted.add(code)
        added = np.array(sorted(inserted), dtype=np.int64)
        self._codes = np.sort(np.concatenate([np.delete(self._codes, doomed), added]))
        return self._decode(added), self._decode(np.sort(deleted))

    def _decode(self, codes: np.ndarray) -> list[tuple[int, int]]:
        return [(int(code // self._n), int(code % self._n)) for code in codes]
