"""Order isomorphism between the two linear orders on IFVs.

``zx_to_xy`` carries the ZX-ordered value space onto the XY-ordered one (a
monotone bijection: comparisons under ZX of inputs equal comparisons under XY
of images); ``xy_to_zx`` is its inverse.  Both are five-branch piecewise maps,
keyed on the similarity functional L for the forward direction and on the
score for the inverse.

Both maps are simplex-valued by construction, but just outside the endpoint
branch bands the denominators shrink to O(eps_order) and rounding can push a
component outside the domain, so images are built with ``core._snap``.
"""

from __future__ import annotations

from .core import (
    BOTTOM,
    DEFAULT_POLICY,
    TOP,
    Ifv,
    NumericPolicy,
    _snap,
    score,
    similarity_l,
)
from .errors import InconsistentBranch

__all__ = ["zx_to_xy", "xy_to_zx"]

# Branch conditions keep denominators bounded away from zero; this is a
# defensive floor, not a reachable state.
_DENOM_FLOOR = 1e-15


def _checked_div(num: float, den: float) -> float:
    if abs(den) < _DENOM_FLOOR:
        raise InconsistentBranch(f"degenerate denominator {den!r}")
    return num / den


def zx_to_xy(a: Ifv, policy: NumericPolicy = DEFAULT_POLICY) -> Ifv:
    """Map a value so that its XY rank equals the input's ZX rank.

    Branches on L(a): the endpoints L = 0, 1 are fixed at bottom/top, the
    midline L = 1/2 (mu = nu) is pointwise fixed, and the two open bands map
    onto the score bands s < 0 and s > 0 respectively.
    """
    ell = similarity_l(a)
    if policy.close(ell, 0.0):
        return BOTTOM
    if policy.close(ell, 1.0):
        return TOP
    if policy.close(ell, 0.5):
        return a
    if ell < 0.5:
        half_den = 2.0 * (1.0 - ell)
        mu = _checked_div(a.mu, half_den)
        nu = _checked_div(a.mu + 2.0 - 4.0 * ell, half_den)
        return _snap(mu, nu)
    mu = 0.5 * (
        _checked_div(a.mu, 1.0 - ell)
        - _checked_div((2.0 * ell - 1.0) ** 2, ell * (1.0 - ell))
    )
    nu = _checked_div(ell * a.mu - (2.0 * ell - 1.0), 2.0 * ell * (1.0 - ell))
    return _snap(mu, nu)


def xy_to_zx(a: Ifv, policy: NumericPolicy = DEFAULT_POLICY) -> Ifv:
    """Inverse of :func:`zx_to_xy`, branching on the score of the input."""
    s = score(a)
    if policy.close(s, -1.0):
        return BOTTOM
    if policy.close(s, 1.0):
        return TOP
    if policy.close(s, 0.0):
        return a
    if s > 0.0:
        nu = _checked_div(2.0 * a.mu - 2.0 * s, 2.0 - s)
        mu = 2.0 * a.mu - s - nu
        return _snap(mu, nu)
    mu = _checked_div(2.0 * a.mu, 2.0 + s)
    nu = _checked_div(2.0 * a.mu * (1.0 + s), 2.0 + s) - s
    return _snap(mu, nu)
