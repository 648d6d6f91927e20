"""Dependency-free goodness-of-fit statistics for the test harness.

Implements the two classical tests the workload suite needs without
reaching for scipy (the container only guarantees numpy):

* two-sample **Kolmogorov–Smirnov**: the max gap between empirical CDFs,
  with the large-sample critical value
  ``c(alpha) * sqrt((n + m) / (n * m))``;
* **chi-square** homogeneity over shared bins, with the critical value
  from the Wilson–Hilferty cube approximation (accurate to well under a
  percent for the dof the suite uses).

Both are used as *seeded regression tests* with pinned tolerances, not
as online hypothesis tests: the harness fixes the seed, so a pass/fail
flip means the synthesizer's distribution drifted, not bad luck.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

#: c(alpha) coefficients for the two-sample KS critical value.
_KS_COEFFICIENTS = {
    0.10: 1.224,
    0.05: 1.358,
    0.01: 1.628,
    0.001: 1.949,
}

#: Standard-normal quantiles for the chi-square critical value.
_Z_QUANTILES = {
    0.10: 1.2815515655446004,
    0.05: 1.6448536269514722,
    0.01: 2.3263478740408408,
    0.001: 3.090232306167813,
}


def ks_statistic(
    a: Sequence[float], b: Sequence[float]
) -> float:
    """Two-sample KS statistic D = sup |F_a(x) - F_b(x)|."""
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    xs = sorted(a)
    ys = sorted(b)
    n, m = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < n and j < m:
        # Consume every observation at the current point on BOTH sides
        # before measuring, so ties (ubiquitous with integer-ns samples)
        # don't register a spurious mid-tie gap.
        x = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] <= x:
            i += 1
        while j < m and ys[j] <= x:
            j += 1
        d = max(d, abs(i / n - j / m))
    return d


def ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Large-sample two-sample KS critical value at level ``alpha``."""
    if alpha not in _KS_COEFFICIENTS:
        raise ValueError(
            f"unsupported alpha {alpha}; "
            f"choose from {sorted(_KS_COEFFICIENTS)}"
        )
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    return _KS_COEFFICIENTS[alpha] * math.sqrt((n + m) / (n * m))


def ks_two_sample(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.01
) -> Tuple[float, float, bool]:
    """Returns ``(D, critical, consistent)`` for two samples."""
    d = ks_statistic(a, b)
    critical = ks_critical(len(a), len(b), alpha)
    return d, critical, d <= critical


def chi_square_critical(dof: int, alpha: float = 0.01) -> float:
    """Upper-tail chi-square critical value (Wilson–Hilferty)."""
    if dof < 1:
        raise ValueError("dof must be positive")
    if alpha not in _Z_QUANTILES:
        raise ValueError(
            f"unsupported alpha {alpha}; "
            f"choose from {sorted(_Z_QUANTILES)}"
        )
    z = _Z_QUANTILES[alpha]
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


def chi_square_homogeneity(
    a: Sequence[float],
    b: Sequence[float],
    bins: int = 10,
    alpha: float = 0.01,
    min_expected: float = 5.0,
) -> Tuple[float, float, bool]:
    """Chi-square homogeneity test over shared quantile bins.

    Bin edges come from the pooled sample's quantiles, so every bin has
    comparable pooled mass; adjacent bins are merged until each expected
    count reaches ``min_expected``.  Returns ``(statistic, critical,
    consistent)``; degenerate pooled samples (a single distinct value)
    are trivially consistent.
    """
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    pooled = sorted(list(a) + list(b))
    if pooled[0] == pooled[-1]:
        return 0.0, chi_square_critical(1, alpha), True
    edges = _quantile_edges(pooled, bins)
    counts_a = _bin_counts(a, edges)
    counts_b = _bin_counts(b, edges)
    counts_a, counts_b = _merge_small_bins(
        counts_a, counts_b, len(a), len(b), min_expected
    )
    n, m = len(a), len(b)
    total = n + m
    statistic = 0.0
    for ca, cb in zip(counts_a, counts_b):
        pooled_count = ca + cb
        if pooled_count == 0:
            continue
        expected_a = pooled_count * n / total
        expected_b = pooled_count * m / total
        statistic += (ca - expected_a) ** 2 / expected_a
        statistic += (cb - expected_b) ** 2 / expected_b
    dof = max(1, len(counts_a) - 1)
    critical = chi_square_critical(dof, alpha)
    return statistic, critical, statistic <= critical


def _quantile_edges(pooled: List[float], bins: int) -> List[float]:
    """Interior bin edges at the pooled sample's evenly spaced quantiles."""
    if bins < 2:
        raise ValueError("need at least two bins")
    n = len(pooled)
    edges: List[float] = []
    for k in range(1, bins):
        edge = pooled[min(n - 1, (k * n) // bins)]
        if not edges or edge > edges[-1]:
            edges.append(edge)
    return edges


def _bin_counts(
    samples: Sequence[float], edges: List[float]
) -> List[int]:
    """Counts per bin; bin i is (edges[i-1], edges[i]] conceptually."""
    counts = [0] * (len(edges) + 1)
    for x in samples:
        lo, hi = 0, len(edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if x <= edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        counts[lo] += 1
    return counts


def _merge_small_bins(
    counts_a: List[int],
    counts_b: List[int],
    n: int,
    m: int,
    min_expected: float,
) -> Tuple[List[int], List[int]]:
    """Merge adjacent bins until every expected count >= min_expected."""
    total = n + m
    merged_a: List[int] = []
    merged_b: List[int] = []
    acc_a = acc_b = 0
    for ca, cb in zip(counts_a, counts_b):
        acc_a += ca
        acc_b += cb
        pooled = acc_a + acc_b
        if (
            pooled * n / total >= min_expected
            and pooled * m / total >= min_expected
        ):
            merged_a.append(acc_a)
            merged_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if merged_a:
            merged_a[-1] += acc_a
            merged_b[-1] += acc_b
        else:
            merged_a.append(acc_a)
            merged_b.append(acc_b)
    return merged_a, merged_b
