"""Intuitionistic fuzzy values and their two linear orders.

An IFV is a pair <mu, nu> with mu, nu in [0, 1] and mu + nu <= 1.  Two linear
orders are provided:

* ``OrderKind.XY`` ranks by the score mu - nu, breaking ties by the accuracy
  mu + nu.
* ``OrderKind.ZX`` ranks by the similarity functional
  L = (1 - nu) / ((1 - mu) + (1 - nu)), breaking ties by the accuracy.

All equality decisions in comparators are taken within one explicit
tolerance, the ``eps_order`` of a :class:`NumericPolicy`; exact-real ties
become a band in floating point, and the policy makes that band configurable
instead of implicit.  Construction clamps last-ulp noise past the domain's
edges within a fixed 1e-12, which is not configurable.  ``cmp`` reads L
through the score of the value's image under the order isomorphism,
(mu - nu) / (1 - min(mu, nu)), which increases strictly with L; the
isomorphism keeps the accuracy, so a tolerance band means the same for a pair
under ZX as for its images under XY.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import BadParameter, DomainViolation

__all__ = [
    "Ifv",
    "NumericPolicy",
    "OrderKind",
    "Ordering",
    "DEFAULT_POLICY",
    "BOTTOM",
    "TOP",
    "make_ifv",
    "score",
    "accuracy",
    "indeterminacy",
    "similarity_l",
    "cmp",
]


# How far outside [0, 1] (or past mu + nu = 1) a constructed value may stray
# before it is rejected rather than clamped.
_EPS_DOMAIN = 1e-12


@dataclass(frozen=True)
class NumericPolicy:
    """The comparison tolerance.

    Two scores, accuracies or similarity keys whose gap is at most
    ``eps_order`` are equal in comparators and branch selection.
    """

    eps_order: float = 1e-9

    def __post_init__(self) -> None:
        if not (_EPS_DOMAIN <= self.eps_order < 1e-3):
            raise BadParameter(
                f"require {_EPS_DOMAIN} <= eps_order < 1e-3, got eps_order={self.eps_order}"
            )


DEFAULT_POLICY = NumericPolicy()


class OrderKind(enum.Enum):
    """Which linear order a comparison uses."""

    XY = "xy"  # score first, then accuracy
    ZX = "zx"  # similarity L first, then accuracy


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1

    def reversed(self) -> "Ordering":
        return Ordering(-self.value)


@dataclass(frozen=True)
class Ifv:
    """An intuitionistic fuzzy value <mu, nu>.

    Instances are immutable; construct through :func:`make_ifv`, which
    validates and clamps.  The constructor itself does not re-validate so that
    internal formulas can assemble values they have already proven admissible.
    """

    mu: float
    nu: float

    def __str__(self) -> str:
        return f"⟨{self.mu!r}, {self.nu!r}⟩"

    def to_json(self) -> dict:
        return {"mu": self.mu, "nu": self.nu}

    @staticmethod
    def from_json(obj: dict) -> "Ifv":
        try:
            return make_ifv(float(obj["mu"]), float(obj["nu"]))
        except KeyError as exc:
            raise BadParameter(f"IFV JSON has no {exc.args[0]!r} key") from None


BOTTOM = Ifv(0.0, 1.0)
TOP = Ifv(1.0, 0.0)
# Bound once: an Enum member lookup costs about ten global loads, and cmp is hot.
_XY, _LESS, _GREATER, _EQUAL = OrderKind.XY, Ordering.LESS, Ordering.GREATER, Ordering.EQUAL


def _clamp_component(x: float, what: str) -> float:
    if 0.0 < x <= 1.0:  # not 0.0 <= x: the clamp below turns -0.0 into 0.0
        return x
    if not math.isfinite(x):
        raise DomainViolation(f"{what} must be finite, got {x!r}")
    if x < -_EPS_DOMAIN or x > 1.0 + _EPS_DOMAIN:
        raise DomainViolation(f"{what}={x!r} outside [0, 1] beyond tolerance {_EPS_DOMAIN}")
    return min(1.0, max(0.0, x))


def _snapped(mu: float, nu: float) -> tuple[float, float]:
    """Clamp components that an internal formula computed onto the domain.

    Never raises: each component is clamped to [0, 1], and the larger one is
    capped at ``1.0 - smaller``.  If the exact sum still exceeds 1 (the test
    ``smaller > 1.0 - larger`` is exact for larger >= 1/2 and cannot hold
    below), the larger component steps down one ulp.  The smaller one is
    never rounded onto the larger one's ulp grid: ``<1.0, 1e-300>`` becomes
    ``<0.9999999999999999, 1e-300>``.  Use it where the exact value is
    admissible and rounding, or a branch within ``eps_order``, moved it off.
    """
    if not (0.0 < mu <= 1.0 and 0.0 < nu <= 1.0 and mu + nu < 1.0):
        mu = min(1.0, max(0.0, mu))
        nu = min(1.0, max(0.0, nu))
        if mu >= nu:
            mu = min(mu, 1.0 - nu)
            if nu > 1.0 - mu:
                mu = math.nextafter(mu, 0.0)
        else:
            nu = min(nu, 1.0 - mu)
            if mu > 1.0 - nu:
                nu = math.nextafter(nu, 0.0)
    return mu, nu


def _snap(mu: float, nu: float) -> Ifv:
    """:func:`_snapped` as an IFV; the interior needs no call."""
    if not (0.0 < mu <= 1.0 and 0.0 < nu <= 1.0 and mu + nu < 1.0):
        mu, nu = _snapped(mu, nu)
    return Ifv(mu, nu)


def make_ifv(mu: float, nu: float) -> Ifv:
    """Validate and build an IFV, clamping representational noise.

    Values within a fixed 1e-12 outside the bounds are snapped to the
    boundary so that round-trips through the order isomorphisms never fail on
    last-ulp noise.  Genuine violations raise :class:`DomainViolation`.
    """
    mu = _clamp_component(float(mu), "mu")
    nu = _clamp_component(float(nu), "nu")
    if mu + nu > 1.0 + _EPS_DOMAIN:
        raise DomainViolation(f"mu + nu = {mu + nu!r} exceeds 1 beyond tolerance {_EPS_DOMAIN}")
    return _snap(mu, nu)


def score(a: Ifv) -> float:
    """mu - nu, in [-1, 1]."""
    return a.mu - a.nu


def accuracy(a: Ifv) -> float:
    """mu + nu, in [0, 1]."""
    return a.mu + a.nu


def indeterminacy(a: Ifv) -> float:
    """1 - mu - nu, the hesitation margin."""
    return 1.0 - a.mu - a.nu


def similarity_l(a: Ifv) -> float:
    """L(a) = (1 - nu) / ((1 - mu) + (1 - nu)), in [0, 1].

    The denominator is 2 - (mu + nu) >= 1 for every admissible IFV, so no
    guard is needed.
    """
    return (1.0 - a.nu) / (2.0 - a.mu - a.nu)


def cmp(
    a: Ifv, b: Ifv, ord: OrderKind = OrderKind.XY, policy: NumericPolicy = DEFAULT_POLICY
) -> Ordering:
    """Three-valued comparison under the chosen linear order.

    Primary keys are compared first: the ``score`` for XY, and for ZX the
    score of the ``zx_to_xy`` image, (mu - nu) / (1 - min(mu, nu)), which
    orders as ``similarity_l`` does.  Ties within ``eps_order`` fall through
    to the ``accuracy``, which is evaluated only then.  EQUAL means both keys
    agree within ``eps_order``.
    """
    if ord is _XY:
        pa, pb = a.mu - a.nu, b.mu - b.nu
    else:
        pa = (a.mu - a.nu) / (1.0 - (a.mu if a.mu < a.nu else a.nu))
        pb = (b.mu - b.nu) / (1.0 - (b.mu if b.mu < b.nu else b.nu))
    if not abs(pa - pb) <= policy.eps_order:
        return _LESS if pa < pb else _GREATER
    sa, sb = a.mu + a.nu, b.mu + b.nu
    if not abs(sa - sb) <= policy.eps_order:
        return _LESS if sa < sb else _GREATER
    return _EQUAL
