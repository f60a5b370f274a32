import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvkit import (
    BOTTOM,
    TOP,
    OrderKind,
    cmp,
    make_ifv,
    score,
    similarity_l,
    xy_to_zx,
    zx_to_xy,
)
from ifvkit.core import _snap

from conftest import components_close, edge_ifvs, ifvs


class TestForward:
    def test_endpoints_fixed(self):
        assert zx_to_xy(BOTTOM) == BOTTOM
        assert zx_to_xy(TOP) == TOP

    def test_balanced_fixed(self):
        a = make_ifv(0.2, 0.2)
        assert zx_to_xy(a) == a

    def test_upper_band(self):
        out = zx_to_xy(make_ifv(0.6, 0.2))
        assert components_close(out, make_ifv(0.65, 0.15), 1e-12)
        # score of the image depends only on L
        ell = similarity_l(make_ifv(0.6, 0.2))
        assert score(out) == pytest.approx((2 * ell - 1) / ell)

    def test_lower_band(self):
        out = zx_to_xy(make_ifv(0.2, 0.6))
        assert components_close(out, make_ifv(0.15, 0.65), 1e-12)
        ell = similarity_l(make_ifv(0.2, 0.6))
        assert score(out) == pytest.approx((2 * ell - 1) / (1 - ell))

    @given(ifvs())
    def test_score_image_identity(self, a):
        ell = similarity_l(a)
        expected = (
            (2 * ell - 1) / (1 - ell) if ell < 0.5 else (2 * ell - 1) / ell
        )
        assert score(zx_to_xy(a)) == pytest.approx(expected, abs=1e-9)


class TestInverse:
    def test_endpoints_fixed(self):
        assert xy_to_zx(BOTTOM) == BOTTOM
        assert xy_to_zx(TOP) == TOP

    def test_balanced_fixed(self):
        a = make_ifv(0.2, 0.2)
        assert xy_to_zx(a) == a

    def test_inverts_upper_band(self):
        out = xy_to_zx(make_ifv(0.65, 0.15))
        assert components_close(out, make_ifv(0.6, 0.2), 1e-12)


BOUNDARY = [
    make_ifv(0.0, 1.0),
    make_ifv(1.0, 0.0),
    make_ifv(0.0, 0.0),
    make_ifv(0.5, 0.5),
    make_ifv(0.25, 0.25),
    make_ifv(0.7, 0.3),
    make_ifv(0.3, 0.7),
    make_ifv(0.0, 0.4),
    make_ifv(0.4, 0.0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("a", BOUNDARY, ids=str)
    def test_boundary_samples(self, a):
        assert components_close(xy_to_zx(zx_to_xy(a)), a, 1e-9)
        assert components_close(zx_to_xy(xy_to_zx(a)), a, 1e-9)

    @given(ifvs())
    @example(make_ifv(0.99999999, 1e-12))
    @example(make_ifv(0.0, 0.9999995))
    def test_random(self, a):
        # every denominator is at least 1/2, so a few ulps hold at the corners
        assert components_close(xy_to_zx(zx_to_xy(a)), a, 1e-14)
        assert components_close(zx_to_xy(xy_to_zx(a)), a, 1e-14)

    @given(ifvs())
    def test_closure(self, a):
        out = zx_to_xy(a)
        assert 0.0 <= out.mu <= 1.0 and 0.0 <= out.nu <= 1.0
        assert out.mu + out.nu <= 1.0 + 1e-12


class TestOrderPreservation:
    @given(ifvs(), ifvs())
    @example(make_ifv(0.0, 1e-9), make_ifv(1e-9, 0.0))
    def test_forward(self, a, b):
        assert cmp(a, b, OrderKind.ZX) is cmp(zx_to_xy(a), zx_to_xy(b), OrderKind.XY)

    @given(ifvs(), ifvs())
    def test_inverse(self, a, b):
        assert cmp(a, b, OrderKind.XY) is cmp(xy_to_zx(a), xy_to_zx(b), OrderKind.ZX)


def snapped_zx_to_xy(a):
    """zx_to_xy written as one formula and one _snap: the reference its float
    kernel must match bit for bit."""
    mu, nu = a.mu, a.nu
    if mu > nu:
        nu_img = nu * (2.0 - mu - nu) / (2.0 * (1.0 - nu))
        return _snap(nu_img + (mu - nu) / (1.0 - nu), nu_img)
    if mu < nu:
        mu_img = mu * (2.0 - mu - nu) / (2.0 * (1.0 - mu))
        return _snap(mu_img, mu_img + (nu - mu) / (1.0 - mu))
    return a


def snapped_xy_to_zx(a):
    """xy_to_zx written as one formula and one _snap, like snapped_zx_to_xy."""
    s = a.mu - a.nu
    if a.mu > a.nu:
        nu = (2.0 * a.mu - 2.0 * s) / (2.0 - s)
        return _snap(2.0 * a.mu - s - nu, nu)
    if a.mu < a.nu:
        mu = 2.0 * a.mu / (2.0 + s)
        return _snap(mu, 2.0 * a.mu * (1.0 + s) / (2.0 + s) - s)
    return a


class TestFloatKernels:
    @given(edge_ifvs())
    @example(make_ifv(0.5000000004, 0.4999999996))
    @example(make_ifv(1e-300, 1.0))
    def test_maps_equal_the_snapped_formulas(self, a):
        assert zx_to_xy(a) == snapped_zx_to_xy(a)
        assert xy_to_zx(a) == snapped_xy_to_zx(a)
        assert xy_to_zx(zx_to_xy(a)) == snapped_xy_to_zx(snapped_zx_to_xy(a))
        assert zx_to_xy(xy_to_zx(a)) == snapped_zx_to_xy(snapped_xy_to_zx(a))

    @given(st.floats(0.0, 0.5))
    @example(0.0)
    @example(0.5)
    def test_balanced_input_is_returned_itself(self, t):
        a = make_ifv(t, t)
        assert zx_to_xy(a) is a and xy_to_zx(a) is a
