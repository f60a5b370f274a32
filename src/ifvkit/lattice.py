"""Meet/join and finite infimum/supremum on IFVs, plus the score-scan formulas.

For a finite collection both linear orders attain their bounds, so
``inf_finite``/``sup_finite`` are just comparator minima/maxima.  The
score-scan route computes the same bounds from an explicit descriptor of the
score set (its inf/sup, whether each is attained, and the extreme memberships
at the attained scores).  The descriptor also carries the *non-attained*
branches of the closed formulas, which no finite collection can reach; they
are exposed so the full formula can be unit-tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import DEFAULT_POLICY, Ifv, NumericPolicy, OrderKind, _GREATER, _LESS, cmp, score
from .errors import EmptyCollection, InconsistentScan

__all__ = [
    "LatticeScan",
    "meet2",
    "join2",
    "inf_finite",
    "sup_finite",
    "scan_of",
    "inf_from_scan",
    "sup_from_scan",
]


# Consistency checks on scan descriptors tolerate one rounding step: the
# recovered non-membership mu_hat - xi is computed, not stored, and may sit an
# ulp past an exact bound.
_SCAN_SLACK = 1e-12


@dataclass(frozen=True)
class LatticeScan:
    """Descriptor of the score set of a collection of IFVs.

    ``xi``/``eta`` are the inf/sup of the score set; ``mu_hat``/``mu_tilde``
    are the inf/sup of the memberships among elements attaining the extreme
    score, present exactly when that extreme is attained.
    """

    xi: float
    eta: float
    xi_attained: bool
    eta_attained: bool
    mu_hat: Optional[float] = None
    mu_tilde: Optional[float] = None

    def __post_init__(self) -> None:
        if self.xi > self.eta:
            raise InconsistentScan(f"xi={self.xi} > eta={self.eta}")
        if self.xi_attained != (self.mu_hat is not None):
            raise InconsistentScan("mu_hat must be present iff xi is attained")
        if self.eta_attained != (self.mu_tilde is not None):
            raise InconsistentScan("mu_tilde must be present iff eta is attained")


def meet2(
    a: Ifv,
    b: Ifv,
    ord: OrderKind = OrderKind.XY,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ifv:
    """The smaller of a, b under the chosen order (a when equal)."""
    return b if cmp(a, b, ord, policy) is _GREATER else a


def join2(
    a: Ifv,
    b: Ifv,
    ord: OrderKind = OrderKind.XY,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ifv:
    """The larger of a, b under the chosen order (a when equal)."""
    return b if cmp(a, b, ord, policy) is _LESS else a


def inf_finite(
    omega: Sequence[Ifv],
    ord: OrderKind = OrderKind.XY,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ifv:
    """Minimum of a nonempty collection under the chosen order (the first if EQUAL)."""
    if not omega:
        raise EmptyCollection("infimum of an empty collection")
    out = omega[0]
    for a in omega[1:]:
        if cmp(out, a, ord, policy) is _GREATER:
            out = a
    return out


def sup_finite(
    omega: Sequence[Ifv],
    ord: OrderKind = OrderKind.XY,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ifv:
    """Maximum of a nonempty collection under the chosen order (the first if EQUAL)."""
    if not omega:
        raise EmptyCollection("supremum of an empty collection")
    out = omega[0]
    for a in omega[1:]:
        if cmp(out, a, ord, policy) is _LESS:
            out = a
    return out


def scan_of(omega: Sequence[Ifv], policy: NumericPolicy = DEFAULT_POLICY) -> LatticeScan:
    """Scan a finite collection into its score-set descriptor.

    Both extremes are attained for finite input.  Elements whose score lies
    within ``eps_order`` of an extreme are bucketed with it; this is the only
    place where bucketing can change results on adversarially close scores.
    """
    if not omega:
        raise EmptyCollection("scan of an empty collection")
    scores = [score(a) for a in omega]
    xi = min(scores)
    eta = max(scores)
    eps = policy.eps_order
    mu_hat = min(a.mu for a, s in zip(omega, scores) if abs(s - xi) <= eps)
    mu_tilde = max(a.mu for a, s in zip(omega, scores) if abs(s - eta) <= eps)
    return LatticeScan(
        xi=xi,
        eta=eta,
        xi_attained=True,
        eta_attained=True,
        mu_hat=mu_hat,
        mu_tilde=mu_tilde,
    )


def inf_from_scan(scan: LatticeScan) -> Ifv:
    """Infimum from a score scan.

    Attained: <mu_hat, mu_hat - xi>.  Not attained: the midpoint value of
    score xi on the simplex edge, <(1 + xi)/2, (1 - xi)/2>.
    """
    if scan.xi_attained:
        mu_hat = scan.mu_hat
        if mu_hat < max(scan.xi, 0.0) - _SCAN_SLACK or 2.0 * mu_hat - scan.xi > 1.0 + _SCAN_SLACK:
            raise InconsistentScan(
                f"mu_hat={mu_hat} incompatible with xi={scan.xi}"
            )
        return Ifv(mu_hat, mu_hat - scan.xi)
    return Ifv((1.0 + scan.xi) / 2.0, (1.0 - scan.xi) / 2.0)


def sup_from_scan(scan: LatticeScan) -> Ifv:
    """Supremum from a score scan.

    Attained: <mu_tilde, mu_tilde - eta>.  Not attained: <0, -eta> when
    eta <= 0, else <eta, 0>.
    """
    if scan.eta_attained:
        mu_tilde = scan.mu_tilde
        if mu_tilde < max(scan.eta, 0.0) - _SCAN_SLACK or 2.0 * mu_tilde - scan.eta > 1.0 + _SCAN_SLACK:
            raise InconsistentScan(
                f"mu_tilde={mu_tilde} incompatible with eta={scan.eta}"
            )
        return Ifv(mu_tilde, mu_tilde - scan.eta)
    if scan.eta <= 0.0:
        return Ifv(0.0, -scan.eta)
    return Ifv(scan.eta, 0.0)
