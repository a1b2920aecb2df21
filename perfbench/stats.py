"""Summary statistics and the layer reconciliation of the benchmark."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def median(values) -> float:
    values = list(values)
    if not values:
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), nearest-rank.

    Refuses unless at least :data:`MIN_TAIL_SAMPLES` samples lie beyond the
    percentile, i.e. ``len(values) * (1 - q/100) >= 10``: a p99 needs 1000
    samples, a p95 needs 200.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    values = sorted(values)
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES - 1e-9:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples leaves {beyond:.1f} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    rank = max(math.ceil(q / 100.0 * len(values)), 1)
    return float(values[rank - 1])


def reconcile(total: float, layers: dict[str, float]) -> dict[str, float]:
    """Layer rows plus the unexplained residual, summing to ``total``.

    ``layers`` maps row names to the part of ``total`` each explains; the
    returned mapping adds a ``residual`` row equal to what they leave over
    (negative when the layers overlap or over-explain the total).
    """
    if "residual" in layers:
        raise ValueError("'residual' is reserved for the unexplained remainder")
    rows = dict(layers)
    rows["residual"] = total - sum(layers.values())
    return rows


def overhead_pct(traced: float, untraced: float) -> float:
    """Extra cost of the traced run over the untraced one, in percent."""
    if untraced <= 0:
        raise ValueError(f"untraced time must be positive, got {untraced}")
    return 100.0 * (traced - untraced) / untraced
