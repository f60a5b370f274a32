"""Distance and similarity between IFVs and IFSs, and classification.

The pointwise metric ``rho`` is branchwise: values with (tolerance-)equal
scores are compared by accuracy, all other pairs by score, with a 1/3 offset
that keeps score separation dominant.  Weighted sums of rho give a metric
``distance`` and its complement ``similarity`` on finite-universe IFSs; the
similarity is admissible for the XY order (symmetric, 1 exactly on equal
sets, and monotone along pointwise-ordered chains).  ``classify`` picks the
pattern with maximal similarity to an unknown sample.

``rho`` is the reference for the set functions.  ``distance``, ``similarity``
and ``classify`` evaluate the same expressions, in the same order, on each
set's cached scores and accuracies, so their results equal the weighted sum
of ``rho`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import DEFAULT_POLICY, Ifv, NumericPolicy, accuracy, score
from .errors import BadParameter, EmptyPatternSet, LengthMismatch
from .ifs import Ifs, _require_same_universe
from .ops import _check_weights

__all__ = [
    "WeightVector",
    "ClassificationResult",
    "equal_weights",
    "rho",
    "distance",
    "similarity",
    "classify",
]

@dataclass(frozen=True)
class WeightVector:
    """Positive weights summing to 1, positionally matched to a universe."""

    w: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_weights(self.w)

    def __len__(self) -> int:
        return len(self.w)

    def __iter__(self) -> Iterator[float]:
        return iter(self.w)

    def __getitem__(self, j: int) -> float:
        return self.w[j]


def equal_weights(n: int) -> WeightVector:
    """Uniform weights 1/n, with the rounding remainder folded into the first
    entry so the sum is exactly 1 at machine precision."""
    if n < 1:
        raise BadParameter("need at least one weight")
    w = [1.0 / n] * n
    w[0] += 1.0 - sum(w)
    return WeightVector(tuple(w))


@dataclass(frozen=True)
class ClassificationResult:
    """Ranking of patterns by similarity, best first; ties break by label."""

    ranking: tuple[tuple[str, float], ...]

    @property
    def winner(self) -> str:
        return self.ranking[0][0]

    @property
    def similarities(self) -> dict[str, float]:
        return dict(self.ranking)


def rho(a: Ifv, b: Ifv, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Pointwise distance in [0, 1].

    (1/3)|h(a) - h(b)| when scores agree within ``eps_order``, else
    (1/3)(1 + |s(a) - s(b)|).  The branch makes the function deliberately
    discontinuous across equal scores: any score separation outweighs any
    accuracy difference.
    """
    sa, sb = score(a), score(b)
    if abs(sa - sb) <= policy.eps_order:
        return abs(accuracy(a) - accuracy(b)) / 3.0
    return (1.0 + abs(sa - sb)) / 3.0


def _check_aligned(i1: Ifs, i2: Ifs, w: WeightVector) -> None:
    _require_same_universe(i1, i2)
    if len(w) != len(i1.universe):
        raise LengthMismatch(
            f"{len(w)} weights vs {len(i1.universe)} universe elements"
        )


def _distance(i1: Ifs, i2: Ifs, w: WeightVector, eps: float) -> float:
    """``rho``'s two branches inline, on the sets' cached keys."""
    (s1, h1), (s2, h2) = i1._keys, i2._keys
    return sum([
        wj * (abs(ha - hb) / 3.0 if (d := abs(sa - sb)) <= eps else (1.0 + d) / 3.0)
        for wj, sa, sb, ha, hb in zip(w.w, s1, s2, h1, h2)
    ])


def distance(
    i1: Ifs, i2: Ifs, w: WeightVector, policy: NumericPolicy = DEFAULT_POLICY
) -> float:
    """Weighted sum of pointwise rho, a metric on IFSs with values in [0, 1]."""
    _check_aligned(i1, i2, w)
    return _distance(i1, i2, w, policy.eps_order)


def similarity(
    i1: Ifs, i2: Ifs, w: WeightVector, policy: NumericPolicy = DEFAULT_POLICY
) -> float:
    """1 - distance: the admissible similarity measure for the XY order."""
    return 1.0 - distance(i1, i2, w, policy)


def classify(
    unknown: Ifs,
    patterns: Sequence[tuple[str, Ifs]],
    w: WeightVector,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ClassificationResult:
    """Rank labeled patterns by similarity to ``unknown``; winner is the
    most similar, ties broken by ascending label for determinism."""
    if not patterns:
        raise EmptyPatternSet("classification needs at least one pattern")
    eps = policy.eps_order
    scored = []
    for label, pattern in patterns:
        _check_aligned(pattern, unknown, w)
        scored.append((label, 1.0 - _distance(pattern, unknown, w, eps)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return ClassificationResult(tuple(scored))
