"""Stafford's RandFixedSum (via Emberson, Stafford & Davis, WATERS 2010).

The modern standard for generating unbiased task utilizations: ``n`` values
that sum to ``U`` with each value in ``[a, b]``, sampled *uniformly* from
that simplex slice.  Unlike UUniFast-discard, acceptance never degenerates
when the caps are tight (the case that made UUniFast-discard struggle in
the SPA1 tests).

This is a faithful port of Roger Stafford's MATLAB ``randfixedsum`` for
the case ``a = 0`` generalised to ``[a, b]`` by shifting: draw ``n`` values
in ``[0, 1]`` summing to ``s`` and rescale.  Requires numpy.
"""

from __future__ import annotations

import random
from typing import List


def randfixedsum(
    rng: random.Random,
    n: int,
    total: float,
    low: float = 0.0,
    high: float = 1.0,
) -> List[float]:
    """Draw ``n`` values in ``[low, high]`` summing to ``total``, uniformly.

    >>> import random
    >>> values = randfixedsum(random.Random(1), 8, 3.2)
    >>> len(values), abs(sum(values) - 3.2) < 1e-9, max(values) <= 1.0
    (8, True, True)
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not low < high:
        raise ValueError("need low < high")
    if not n * low - 1e-12 <= total <= n * high + 1e-12:
        raise ValueError(
            f"total {total} outside feasible range "
            f"[{n * low}, {n * high}]"
        )
    # Normalise to the unit problem: n values in [0,1] summing to s.
    span = high - low
    s = (total - n * low) / span
    values = _unit_randfixedsum(rng, n, s)
    return [low + v * span for v in values]


def _unit_randfixedsum(rng: random.Random, n: int, s: float) -> List[float]:
    """Stafford's algorithm on the unit cube."""
    import numpy as np

    s = min(max(s, 0.0), float(n))
    if n == 1:
        return [s]
    # Degenerate corners.
    if s <= 1e-12:
        return [0.0] * n
    if s >= n - 1e-12:
        return [1.0] * n

    k = int(min(max(np.floor(s), 0), n - 1))
    s = max(min(s, k + 1), k)
    s1 = s - np.arange(k, k - n, -1.0)
    s2 = np.arange(k + n, k, -1.0) - s

    tiny = np.finfo(float).tiny
    huge = np.finfo(float).max
    w = np.zeros((n, n + 1))
    w[0, 1] = huge
    t = np.zeros((n - 1, n))
    for i in range(2, n + 1):
        tmp1 = w[i - 2, 1 : i + 1] * s1[: i] / float(i)
        tmp2 = w[i - 2, : i] * s2[n - i : n] / float(i)
        w[i - 1, 1 : i + 1] = tmp1 + tmp2
        tmp3 = w[i - 1, 1 : i + 1] + tiny
        tmp4 = s2[n - i : n] > s1[: i]
        t[i - 2, : i] = (tmp2 / tmp3) * tmp4 + (1 - tmp1 / tmp3) * (
            np.logical_not(tmp4)
        )

    x = np.zeros(n)
    rt = np.array([rng.random() for _ in range(n - 1)])
    rs = np.array([rng.random() for _ in range(n - 1)])
    current_s = s
    j = k + 1
    sm, pr = 0.0, 1.0
    for i in range(n - 1, 0, -1):
        e = float(rt[n - i - 1] <= t[i - 1, j - 1])
        sx = rs[n - i - 1] ** (1.0 / i)
        sm += (1 - sx) * pr * current_s / (i + 1)
        pr *= sx
        x[n - i - 1] = sm + pr * e
        current_s -= e
        j -= int(e)
    x[n - 1] = sm + pr * current_s

    # Random permutation for exchangeability.
    order = list(range(n))
    rng.shuffle(order)
    return [float(x[index]) for index in order]
