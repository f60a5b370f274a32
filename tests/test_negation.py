import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvkit import (
    BOTTOM,
    TOP,
    OrderKind,
    Ordering,
    accuracy,
    cmp,
    intersect,
    join2,
    kleene_check,
    make_ifv,
    meet2,
    negate,
    negate_xy,
    negate_zx,
    score,
    union_,
    zx_to_xy,
)

from conftest import components_close, ifvs, near_corner, well_separated

ORDERS = st.sampled_from(list(OrderKind))


class TestNegateXY:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ((1.0, 0.0), (0.0, 1.0)),
            ((0.0, 1.0), (1.0, 0.0)),
            ((0.0, 0.0), (0.5, 0.5)),
            ((0.6, 0.2), (0.1, 0.5)),
            ((0.0, 0.5), (0.75, 0.25)),
        ],
    )
    def test_pinned_values(self, value, expected):
        out = negate_xy(make_ifv(*value))
        assert components_close(out, make_ifv(*expected), 1e-12)

    @given(ifvs())
    def test_involution(self, a):
        # the tolerance band around mu = nu picks the balanced branch, which
        # differs from the open branches by O(eps_order); the tight bound
        # holds away from (and exactly on) the balanced line
        gap = abs(a.mu - a.nu)
        tol = 1e-12 if (gap == 0.0 or gap > 2e-9) else 3e-9
        assert components_close(negate_xy(negate_xy(a)), a, tol)

    @given(ifvs())
    def test_score_reflection(self, a):
        assert score(negate_xy(a)) == pytest.approx(-score(a), abs=1e-12)

    @given(ifvs())
    def test_accuracy_branch_form(self, a):
        h = accuracy(negate_xy(a))
        if abs(a.mu - a.nu) <= 1e-9:
            assert h == pytest.approx(1.0 - a.mu - a.nu, abs=1e-9)
        elif a.mu > a.nu:
            assert h == pytest.approx(1.0 - 2.0 * a.nu, abs=1e-12)
        else:
            assert h == pytest.approx(1.0 - 2.0 * a.mu, abs=1e-12)

    @given(ifvs(), ifvs())
    def test_antitone(self, a, b):
        if not well_separated([a, b]):
            return
        if cmp(a, b) is Ordering.GREATER:
            a, b = b, a
        assert cmp(negate_xy(b), negate_xy(a)) is not Ordering.GREATER

    @given(ifvs())
    @example(make_ifv(0.5 + 4e-10, 0.5 - 4e-10))
    def test_closure(self, a):
        out = negate_xy(a)
        assert 0.0 <= out.mu <= 1.0 and 0.0 <= out.nu <= 1.0
        assert out.mu + out.nu <= 1.0 + 1e-12


class TestNegateZX:
    def test_endpoints(self):
        assert negate_zx(TOP) == BOTTOM
        assert negate_zx(BOTTOM) == TOP

    def test_balanced_point(self):
        out = negate_zx(make_ifv(0.3, 0.3))
        assert components_close(out, make_ifv(0.2, 0.2), 1e-12)

    @given(ifvs())
    @example(make_ifv(0.0, 3.725290298461914e-09))
    @example(make_ifv(0.0, 1.9443251316272922e-09))
    @example(make_ifv(0.9999999999999998, 0.0))
    def test_involution(self, a):
        # the isomorphism divides only by quantities >= 1/2, so the round
        # trip is good to a few ulps up to the corners; next to the edge of
        # negate_xy's balanced band on the image, the two applications can
        # take different branches, which differ by at most eps_order / 2
        gap = abs(score(zx_to_xy(a)))
        tol = 1e-14 if (gap == 0.0 or gap > 2e-9) else 1e-9
        assert components_close(negate_zx(negate_zx(a)), a, tol)

    @given(ifvs(), ifvs())
    def test_antitone_for_zx(self, a, b):
        if not well_separated([a, b]):
            return
        if cmp(a, b, OrderKind.ZX) is Ordering.GREATER:
            a, b = b, a
        assert (
            cmp(negate_zx(b), negate_zx(a), OrderKind.ZX) is not Ordering.GREATER
        )


class TestDeMorgan:
    @given(ifvs(), ifvs(), ORDERS)
    def test_holds_for_meet_join(self, a, b, ord):
        if not well_separated([a, b]) or near_corner(a) or near_corner(b):
            return
        na, nb = negate(a, ord), negate(b, ord)
        lhs = negate(meet2(a, b, ord), ord)
        rhs = join2(na, nb, ord)
        assert cmp(lhs, rhs, ord) is Ordering.EQUAL
        lhs = negate(join2(a, b, ord), ord)
        rhs = meet2(na, nb, ord)
        assert cmp(lhs, rhs, ord) is Ordering.EQUAL

    def test_fails_for_componentwise_intersection(self):
        # pinned counterexample: the componentwise min/max operations are not
        # the lattice operations of the XY order
        a, b = make_ifv(0.0, 0.0), make_ifv(0.5, 0.5)
        lhs = negate_xy(intersect(a, b))
        rhs = union_(negate_xy(a), negate_xy(b))
        assert components_close(lhs, make_ifv(0.75, 0.25), 1e-12)
        assert components_close(rhs, make_ifv(0.5, 0.0), 1e-12)
        assert not components_close(lhs, rhs, 1e-6)


class TestKleene:
    def test_examples(self):
        assert kleene_check(BOTTOM, TOP)
        assert kleene_check(make_ifv(0.6, 0.2), make_ifv(0.3, 0.3))

    @given(ifvs(), ifvs(), ORDERS)
    def test_inequality_everywhere(self, a, b, ord):
        assert kleene_check(a, b, ord)

    @given(ifvs(), ORDERS)
    def test_self_comparison(self, a, ord):
        assert kleene_check(a, a, ord)
