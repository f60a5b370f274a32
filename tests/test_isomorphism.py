import pytest
from hypothesis import example, given

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

from conftest import components_close, ifvs


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
