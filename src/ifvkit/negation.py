"""Strong negation on IFVs for both linear orders.

``negate_xy`` is an order-reversing involution for the score-then-accuracy
order, swapping top and bottom; it is given by a three-branch piecewise
formula on the sign of mu - nu.  ``negate_zx`` is its conjugate under the
order isomorphism and plays the same role for the similarity-then-accuracy
order.  Together with meet/join each yields a Kleene algebra:
a AND not-a is always below b OR not-b.
"""

from __future__ import annotations

from .core import DEFAULT_POLICY, Ifv, NumericPolicy, OrderKind, _GREATER, _XY, _snap, cmp
from .isomorphism import xy_to_zx, zx_to_xy
from .lattice import join2, meet2

__all__ = ["negate_xy", "negate_zx", "negate", "kleene_check"]


def negate_xy(a: Ifv, policy: NumericPolicy = DEFAULT_POLICY) -> Ifv:
    """Strong negation for the XY order.

    Reflects the score (s(not-a) = -s(a)); branch selection on mu vs nu uses
    ``eps_order``, and the three branches agree in the limit mu -> nu, so the
    tolerance band cannot introduce a discontinuity.  Inside the band the
    balanced branch can put a component up to ``eps_order`` below 0 (for
    ``<0.5 + d, 0.5 - d>``); the result is snapped onto the domain, so it is
    off from the exact value by at most ``eps_order``.  The band matches the
    one ``cmp`` ties scores in: an exact branch test here lets ``kleene_check``
    fail on values whose scores ``cmp`` calls tied with 0.
    """
    mu, nu = a.mu, a.nu
    if policy.close(mu, nu):
        return _snap(0.5 - mu, 0.5 - nu)
    if mu > nu:
        return _snap((1.0 - mu - nu) / 2.0, (1.0 + mu - 3.0 * nu) / 2.0)
    return _snap((1.0 + nu - 3.0 * mu) / 2.0, (1.0 - mu - nu) / 2.0)


def negate_zx(a: Ifv, policy: NumericPolicy = DEFAULT_POLICY) -> Ifv:
    """Strong negation for the ZX order, by conjugation with the isomorphism."""
    return xy_to_zx(negate_xy(zx_to_xy(a), policy))


def negate(a: Ifv, ord: OrderKind, policy: NumericPolicy = DEFAULT_POLICY) -> Ifv:
    """The strong negation matching the given order."""
    return negate_xy(a, policy) if ord is _XY else negate_zx(a, policy)


def kleene_check(
    a: Ifv,
    b: Ifv,
    ord: OrderKind = OrderKind.XY,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> bool:
    """True iff meet(a, not-a) <= join(b, not-b) under the given order."""
    lhs = meet2(a, negate(a, ord, policy), ord, policy)
    rhs = join2(b, negate(b, ord, policy), ord, policy)
    return cmp(lhs, rhs, ord, policy) is not _GREATER
