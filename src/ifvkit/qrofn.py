"""q-rung orthopair fuzzy numbers and their transport to IFVs.

A Qrofn is a pair <mu, nu> with mu^q + nu^q <= 1, carrying its rung q >= 1.
Raising components to the q-th power identifies the rung-q space with the IFV
space, and that bijection transports everything built for IFVs back to any
rung.  Nothing is written twice: orders are :func:`~ifvkit.core.cmp` on the
:func:`to_ifv` images, negations run the float kernels of ``negation`` on
the powered components and root the result back (what :func:`lift` gives,
without building an IFV), and ``qrofwa``/``qrofwg`` run the IFWA/IFWG folds
of ``ops`` on the powered components.  No order reads the five ranking
functionals of :func:`scores`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import add
from typing import Callable, NamedTuple, Sequence

from .core import (
    DEFAULT_POLICY,
    Ifv,
    NumericPolicy,
    Ordering,
    OrderKind,
    _EPS_DOMAIN,
    _XY,
    _clamp_component,
    _snap,
    _snapped,
    cmp,
)
from .errors import BadParameter, DomainViolation, LengthMismatch, RungMismatch
from .negation import _negate_xy, _negate_zx
from .ops import _check_args, _wa, _wg

__all__ = [
    "Qrofn",
    "QOrderKind",
    "QrofnScores",
    "make_qrofn",
    "scores",
    "qcmp",
    "to_ifv",
    "from_ifv",
    "lift",
    "negate_lw",
    "negate_wu",
    "qrofwa",
    "qrofwg",
]


class QOrderKind(enum.Enum):
    """Which linear order a q-ROFN comparison uses.

    LW and WU are the IFV orders XY and ZX transported to rung q: they are
    decided by :func:`~ifvkit.core.cmp` on the :func:`to_ifv` images, so they
    agree with the transported order by construction.  X, the order of the
    rooted score and rooted accuracy, is decided exactly as LW: the signed
    q-th root is strictly increasing, so ``(s_x, h_x)`` orders pairs
    lexicographically exactly as ``(s_lw, h_lw)`` does.
    """

    LW = "lw"  # XY on the powered images: score, then accuracy
    X = "x"  # rooted score, then rooted accuracy; the same order as LW
    WU = "wu"  # ZX on the powered images: similarity L, then accuracy


_WU, _ZX = QOrderKind.WU, OrderKind.ZX


@dataclass(frozen=True)
class Qrofn:
    """A q-rung orthopair fuzzy value <mu, nu> at rung q."""

    mu: float
    nu: float
    q: float

    def __str__(self) -> str:
        return f"⟨{self.mu!r}, {self.nu!r}⟩_q={self.q!r}"

    def to_json(self) -> dict:
        return {"mu": self.mu, "nu": self.nu, "q": self.q}

    @staticmethod
    def from_json(obj: dict) -> "Qrofn":
        return make_qrofn(float(obj["mu"]), float(obj["nu"]), float(obj["q"]))


class QrofnScores(NamedTuple):
    """The five ranking functionals of a q-ROFN."""

    s_lw: float  # mu^q - nu^q
    h_lw: float  # mu^q + nu^q
    s_x: float  # signed q-th root of |mu^q - nu^q|
    h_x: float  # q-th root of mu^q + nu^q
    l_wu: float  # q-th root of (1 - nu^q) / (1 + pi^q)


def _check_rung(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q >= 1.0):
        raise BadParameter(f"rung must be a finite real >= 1, got {q!r}")
    return q


def make_qrofn(mu: float, nu: float, q: float) -> Qrofn:
    """Validate and build a q-ROFN, clamping representational noise."""
    q = _check_rung(q)
    mu = _clamp_component(float(mu), "mu")
    nu = _clamp_component(float(nu), "nu")
    total = mu**q + nu**q
    if total > 1.0 + _EPS_DOMAIN:
        raise DomainViolation(
            f"mu^q + nu^q = {total!r} exceeds 1 beyond tolerance {_EPS_DOMAIN} (q={q})"
        )
    return _qsnap(mu, nu, q)


def _qsnap(mu: float, nu: float, q: float) -> Qrofn:
    """Build a q-ROFN from components in [0, 1] that an internal formula computed,
    shrinking the larger one if the powered sum is past 1.  Never raises."""
    if mu**q + nu**q > 1.0:
        if mu >= nu:
            mu = (1.0 - nu**q) ** (1.0 / q)
        else:
            nu = (1.0 - mu**q) ** (1.0 / q)
    return Qrofn(mu, nu, q)


def scores(a: Qrofn) -> QrofnScores:
    """All five ranking functionals of ``a``.

    These are reported for reference; :func:`qcmp` does not read them.  The
    rooted score carries the sign of mu - nu: it is the q-th root of
    |mu^q - nu^q|, negated when mu < nu.
    """
    q = a.q
    mq, nq = a.mu**q, a.nu**q
    s_lw = mq - nq
    h_lw = mq + nq
    s_x = math.copysign(abs(s_lw) ** (1.0 / q), s_lw)
    h_x = h_lw ** (1.0 / q)
    l_wu = ((1.0 - nq) / (2.0 - mq - nq)) ** (1.0 / q)
    return QrofnScores(s_lw, h_lw, s_x, h_x, l_wu)


def _same_rung(values: Sequence[Qrofn]) -> float:
    if not values:
        raise LengthMismatch("need at least one value")
    q = values[0].q
    for v in values[1:]:
        if v.q != q:
            raise RungMismatch(f"mixed rungs {q} and {v.q}")
    return q


def qcmp(
    a: Qrofn,
    b: Qrofn,
    ord: QOrderKind = QOrderKind.LW,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Ordering:
    """Three-valued comparison of same-rung q-ROFNs under the chosen order.

    WU is decided by ``cmp(to_ifv(a), to_ifv(b), ZX)``, and LW and X by the
    same call with XY, under ``policy``.  The ``eps_order`` band thus sits on
    the powered keys exactly as it does for the IFV orders, and every order
    agrees with the transported one by construction.
    """
    _same_rung([a, b])
    return cmp(to_ifv(a), to_ifv(b), _ZX if ord is _WU else _XY, policy)


def to_ifv(a: Qrofn) -> Ifv:
    """Rung transport: <mu, nu> -> <mu^q, nu^q>.

    ``a`` was validated when it was built, so the powers need no check; any
    rounding past the simplex edge is snapped back.
    """
    return _snap(a.mu**a.q, a.nu**a.q)


def from_ifv(a: Ifv, q: float) -> Qrofn:
    """Inverse rung transport: <mu, nu> -> <mu^(1/q), nu^(1/q)> at rung q.
    ``a`` is admissible, so the roots are only snapped back, not validated."""
    q = _check_rung(q)
    return _qsnap(a.mu ** (1.0 / q), a.nu ** (1.0 / q), q)


def lift(f: Callable[..., Ifv], args: Sequence[Qrofn]) -> Qrofn:
    """Transport an n-ary IFV operator to q-ROFNs by conjugation.

    Maps each argument to its IFV image, applies ``f``, and maps the result
    back at the shared rung.  All arguments must carry the same rung.
    """
    q = _same_rung(args)
    return from_ifv(f(*(to_ifv(a) for a in args)), q)


def _negated(neg: Callable, a: Qrofn, eps: float) -> Qrofn:
    """An IFV negation kernel conjugated by rung transport, on floats."""
    q = a.q
    mu, nu = neg(*_snapped(a.mu**q, a.nu**q), eps)
    return _qsnap(mu ** (1.0 / q), nu ** (1.0 / q), q)


def negate_lw(a: Qrofn, policy: NumericPolicy = DEFAULT_POLICY) -> Qrofn:
    """Strong negation for the LW order: :func:`~ifvkit.negation.negate_xy`
    transported to the rung of ``a``."""
    return _negated(_negate_xy, a, policy.eps_order)


def negate_wu(a: Qrofn, policy: NumericPolicy = DEFAULT_POLICY) -> Qrofn:
    """Strong negation for the Wu order: :func:`~ifvkit.negation.negate_zx`
    transported to the rung of ``a``."""
    return _negated(_negate_zx, a, policy.eps_order)


def _aggregate(fold: Callable, values: Sequence[Qrofn], weights: Sequence[float]) -> Qrofn:
    """Check the arguments, run ``fold`` on the components mu_i^q, nu_i^q, and root back."""
    q = _same_rung(values)
    _check_args(values, weights)
    mus, nus = [v.mu**q for v in values], [v.nu**q for v in values]
    # rounding is monotone: fl(m + n) < 1 means m + n < 1, where _snapped moves nothing
    for i in [i for i, s in enumerate(map(add, mus, nus)) if s >= 1.0]:
        mus[i], nus[i] = _snapped(mus[i], nus[i])
    return from_ifv(fold(mus, nus, weights), q)


def qrofwa(values: Sequence[Qrofn], weights: Sequence[float]) -> Qrofn:
    """Weighted averaging aggregator at any rung: IFWA on the powered components."""
    return _aggregate(_wa, values, weights)


def qrofwg(values: Sequence[Qrofn], weights: Sequence[float]) -> Qrofn:
    """Weighted geometric aggregator at any rung: IFWG on the powered components."""
    return _aggregate(_wg, values, weights)
