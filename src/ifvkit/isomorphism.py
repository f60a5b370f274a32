"""Order isomorphism between the two linear orders on IFVs.

``zx_to_xy`` carries the ZX-ordered value space onto the XY-ordered one (a
monotone bijection: comparisons under ZX of inputs equal comparisons under XY
of images); ``xy_to_zx`` is its inverse.  Both are three-branch piecewise maps
that branch exactly on the sign of mu - nu, which is the sign of both the
score and L - 1/2.  The balanced line mu = nu is pointwise fixed, and both
maps keep the accuracy mu + nu.

In closed form, with D = 2 - mu - nu, the forward map is

* mu > nu:  nu' = nu D / (2 (1 - nu)),  mu' = nu' + (mu - nu) / (1 - nu);
* mu < nu:  mu' = mu D / (2 (1 - mu)),  nu' = mu' + (nu - mu) / (1 - mu);

so the image score is (mu - nu) / (1 - min(mu, nu)), the key ``cmp`` reads
for ZX.  Every denominator is at least 1/2 (the inverse divides by
2 -/+ score >= 1), so the maps are well conditioned up to the corners, which
they fix.  Rounding can still put an image an ulp past mu + nu = 1, so
images are built with ``core._snap``.
"""

from __future__ import annotations

from .core import Ifv, _snap

__all__ = ["zx_to_xy", "xy_to_zx"]


def zx_to_xy(a: Ifv) -> Ifv:
    """Map a value so that its XY rank equals the input's ZX rank."""
    mu, nu = a.mu, a.nu
    if mu > nu:
        nu_img = nu * (2.0 - mu - nu) / (2.0 * (1.0 - nu))
        return _snap(nu_img + (mu - nu) / (1.0 - nu), nu_img)
    if mu < nu:
        mu_img = mu * (2.0 - mu - nu) / (2.0 * (1.0 - mu))
        return _snap(mu_img, mu_img + (nu - mu) / (1.0 - mu))
    return a


def xy_to_zx(a: Ifv) -> Ifv:
    """Inverse of :func:`zx_to_xy`."""
    s = a.mu - a.nu
    if a.mu > a.nu:
        nu = (2.0 * a.mu - 2.0 * s) / (2.0 - s)
        return _snap(2.0 * a.mu - s - nu, nu)
    if a.mu < a.nu:
        mu = 2.0 * a.mu / (2.0 + s)
        return _snap(mu, 2.0 * a.mu * (1.0 + s) / (2.0 + s) - s)
    return a
