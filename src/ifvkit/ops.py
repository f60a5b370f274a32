"""Operational laws on IFVs and the weighted aggregators built from them.

The binary laws come in dual pairs: ``add`` (probabilistic sum on membership,
product on non-membership) and ``mul`` (its mirror image), ``intersect`` and
``union_`` (componentwise min/max).  ``ifwa``/``ifwg`` are the weighted
averaging/geometric folds of ``add``/``scalar_mul`` resp. ``mul``/``power``.

Exponents and weights are checked on entry; after that every result is
admissible up to rounding and is built with ``core._snap``, not re-validated.
"""

from __future__ import annotations

from typing import Sequence

from .core import Ifv, _snap
from .errors import BadParameter, LengthMismatch

__all__ = [
    "complement_bar",
    "intersect",
    "union_",
    "add",
    "mul",
    "scalar_mul",
    "power",
    "ifwa",
    "ifwg",
]

_WEIGHT_SUM_TOL = 1e-9


def complement_bar(a: Ifv) -> Ifv:
    """Component swap <mu, nu> -> <nu, mu>.

    This is the classical set complement; it is *not* an order negation for
    either linear order (every mu = nu value is a fixed point).
    """
    return Ifv(a.nu, a.mu)


def intersect(a: Ifv, b: Ifv) -> Ifv:
    """<min(mu), max(nu)>."""
    return Ifv(min(a.mu, b.mu), max(a.nu, b.nu))


def union_(a: Ifv, b: Ifv) -> Ifv:
    """<max(mu), min(nu)>."""
    return Ifv(max(a.mu, b.mu), min(a.nu, b.nu))


def add(a: Ifv, b: Ifv) -> Ifv:
    """<mu_a + mu_b - mu_a*mu_b, nu_a*nu_b>.

    Evaluated as mu_a + mu_b*(1 - mu_a), which is exact at both absorbing
    ends (top in the first slot, bottom in the second); snapped onto the
    simplex against ulp overshoot elsewhere.
    """
    return _snap(a.mu + b.mu * (1.0 - a.mu), a.nu * b.nu)


def mul(a: Ifv, b: Ifv) -> Ifv:
    """<mu_a*mu_b, nu_a + nu_b - nu_a*nu_b>, the dual of :func:`add`."""
    return _snap(a.mu * b.mu, a.nu + b.nu * (1.0 - a.nu))


def _exponent(lam: float) -> float:
    if not (lam > 0.0):
        raise BadParameter(f"exponent must be > 0, got {lam!r}")
    return float(lam)


def scalar_mul(lam: float, a: Ifv) -> Ifv:
    """<1 - (1 - mu)^lam, nu^lam> for lam > 0."""
    lam = _exponent(lam)
    return _snap(1.0 - (1.0 - a.mu) ** lam, a.nu**lam)


def power(a: Ifv, lam: float) -> Ifv:
    """<mu^lam, 1 - (1 - nu)^lam> for lam > 0."""
    lam = _exponent(lam)
    return _snap(a.mu**lam, 1.0 - (1.0 - a.nu) ** lam)


def _check_weights(weights: Sequence[float]) -> None:
    """Raise BadParameter unless each weight is in (0, 1] and they sum to 1 within 1e-9."""
    if len(weights) == 0:
        raise BadParameter("weight vector must be nonempty")
    for j, wj in enumerate(weights):
        if not (0.0 < wj <= 1.0):
            raise BadParameter(f"weight {j} is {wj!r}, must be in (0, 1]")
    total = sum(weights)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise BadParameter(f"weights sum to {total!r}, must be 1")


def _weighted_product(factors: Sequence[float], weights: Sequence[float]) -> float:
    """prod(f_i^w_i), left to right.

    With weights checked by :func:`_check_weights`, every partial product is
    at least min(f_i) ** (1 + 1e-9), so the direct product cannot underflow.
    """
    out = 1.0
    for f, w in zip(factors, weights):
        out *= f**w
    return float(out)


def _check_lengths(values: Sequence[Ifv], weights: Sequence[float]) -> None:
    if len(values) != len(weights):
        raise LengthMismatch(f"{len(values)} values vs {len(weights)} weights")
    if not values:
        raise LengthMismatch("need at least one value")


def ifwa(values: Sequence[Ifv], weights: Sequence[float]) -> Ifv:
    """Weighted averaging fold: <1 - prod(1-mu_i)^w_i, prod(nu_i)^w_i>."""
    _check_lengths(values, weights)
    _check_weights(weights)
    mu = 1.0 - _weighted_product([1.0 - v.mu for v in values], weights)
    nu = _weighted_product([v.nu for v in values], weights)
    return _snap(mu, nu)


def ifwg(values: Sequence[Ifv], weights: Sequence[float]) -> Ifv:
    """Weighted geometric fold: <prod(mu_i)^w_i, 1 - prod(1-nu_i)^w_i>."""
    _check_lengths(values, weights)
    _check_weights(weights)
    mu = _weighted_product([v.mu for v in values], weights)
    nu = 1.0 - _weighted_product([1.0 - v.nu for v in values], weights)
    return _snap(mu, nu)
