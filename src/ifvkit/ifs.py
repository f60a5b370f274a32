"""Finite-universe intuitionistic fuzzy sets.

An Ifs assigns an IFV to every element of an ordered universe of labels.
Beyond the container this module provides the pointwise XY order, level sets,
a finite restatement of the decomposition identity, and the extension of a
crisp map between universes by fiberwise suprema.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .core import DEFAULT_POLICY, BOTTOM, Ifv, NumericPolicy, accuracy, cmp, make_ifv, score
from .core import _GREATER, _LESS, _XY
from .errors import EmptySamples, NonTotalMap, UniverseMismatch
from .lattice import sup_finite

__all__ = ["Ifs", "pointwise_leq", "level_set", "decompose_check", "zadeh_extend"]


@dataclass(frozen=True)
class Ifs:
    """Map from an ordered universe of labels to IFVs, total on the universe.

    Keys derived from the values (the scores and accuracies that the
    similarity measures read) are computed once per set and cached, so
    ``values`` must not be mutated after construction.
    """

    universe: tuple[str, ...]
    values: Mapping[str, Ifv]

    def __post_init__(self) -> None:
        labels = set(self.universe)
        if len(labels) != len(self.universe):
            repeated = sorted({x for x in self.universe if self.universe.count(x) > 1})
            raise UniverseMismatch(f"universe repeats labels {repeated}")
        if set(self.values) != labels:
            missing = labels - set(self.values)
            extra = set(self.values) - labels
            raise UniverseMismatch(
                f"values must cover the universe exactly "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )

    def __getitem__(self, label: str) -> Ifv:
        return self.values[label]

    def ordered_values(self) -> list[Ifv]:
        return [self.values[x] for x in self.universe]

    @cached_property
    def _keys(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Scores and accuracies, in universe order."""
        vals = self.ordered_values()
        return tuple(map(score, vals)), tuple(map(accuracy, vals))

    def to_json(self) -> dict:
        return {
            "universe": list(self.universe),
            "values": {x: self.values[x].to_json() for x in self.universe},
        }

    @staticmethod
    def from_json(obj: dict) -> "Ifs":
        universe = tuple(obj["universe"])
        rows = obj["values"]
        missing = [x for x in universe if x not in rows]
        if missing:
            raise UniverseMismatch(f"no value for universe elements {missing}")
        return Ifs(universe, {x: Ifv.from_json(rows[x]) for x in universe})

    @staticmethod
    def from_pairs(universe: Sequence[str], pairs: Iterable[tuple[float, float]]) -> "Ifs":
        pairs = list(pairs)
        values = {x: make_ifv(mu, nu) for x, (mu, nu) in zip(universe, pairs)}
        if len(values) != len(universe) or len(pairs) != len(universe):
            raise UniverseMismatch("one (mu, nu) pair per universe element required")
        return Ifs(tuple(universe), values)


def _require_same_universe(i1: Ifs, i2: Ifs) -> None:
    if i1.universe != i2.universe:
        raise UniverseMismatch(f"universes differ: {i1.universe} vs {i2.universe}")


def pointwise_leq(i1: Ifs, i2: Ifs, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff i1(x) <= i2(x) under the XY order for every x."""
    _require_same_universe(i1, i2)
    return all(
        cmp(i1[x], i2[x], _XY, policy) is not _GREATER
        for x in i1.universe
    )


def level_set(i: Ifs, alpha: Ifv, policy: NumericPolicy = DEFAULT_POLICY) -> set[str]:
    """Labels whose value is >= alpha under the XY order."""
    return {
        x
        for x in i.universe
        if cmp(i[x], alpha, _XY, policy) is not _LESS
    }


def decompose_check(
    i: Ifs, samples: Sequence[Ifv], policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """Finite restatement of the decomposition identity.

    For each x, the supremum of the sampled values whose level set contains x
    must reproduce i(x).  Holds whenever ``samples`` contains every value
    attained by ``i``.  The supremum is folded while the witnesses are
    filtered, by ``sup_finite``'s rule: the first of EQUAL witnesses is kept.
    Each decision is ``cmp``'s XY decision, made inline on keys computed
    once: the score and accuracy of each sample, and ``i``'s cached ones.
    """
    if not samples:
        raise EmptySamples("decomposition check needs at least one sample value")
    eps = policy.eps_order
    keys = [(a.mu - a.nu, a.mu + a.nu) for a in samples]
    for sv, hv in zip(*i._keys):
        st = ht = None  # the keys of the fold's top witness
        for s, h in keys:
            # alpha is no witness if cmp(v, alpha) is LESS, and the new top if cmp(top, alpha) is
            if (sv < s) if not abs(sv - s) <= eps else (not abs(hv - h) <= eps and hv < h):
                continue
            if st is None or (
                (st < s) if not abs(st - s) <= eps else (not abs(ht - h) <= eps and ht < h)
            ):
                st, ht = s, h
        # cmp(top, v) is EQUAL
        if st is None or not (abs(st - sv) <= eps and abs(ht - hv) <= eps):
            return False
    return True


def zadeh_extend(
    i: Ifs,
    f: Callable[[str], str] | Mapping[str, str],
    target: Sequence[str],
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ifs:
    """Push ``i`` forward along a crisp map by fiberwise XY suprema.

    Elements of ``target`` with an empty preimage get <0, 1>.  ``f`` must be
    defined on every universe element and land inside ``target``.
    """
    if isinstance(f, Mapping):
        mapping = f
        missing = [x for x in i.universe if x not in mapping]
        if missing:
            raise NonTotalMap(f"map undefined on {missing}")
    else:
        try:
            mapping = {x: f(x) for x in i.universe}
        except KeyError as exc:
            raise NonTotalMap(f"map undefined on {exc.args[0]!r}") from exc
    target_set = set(target)
    for x, y in mapping.items():
        if y not in target_set:
            raise NonTotalMap(f"image {y!r} of {x!r} not in target universe")
    fibers: dict[str, list[Ifv]] = {y: [] for y in target}
    for x in i.universe:
        fibers[mapping[x]].append(i[x])
    values = {
        y: sup_finite(vals, _XY, policy) if vals else BOTTOM
        for y, vals in fibers.items()
    }
    return Ifs(tuple(target), values)
