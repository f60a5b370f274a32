import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvkit import (
    BOTTOM,
    TOP,
    BadParameter,
    DomainViolation,
    Ifv,
    NumericPolicy,
    OrderKind,
    Ordering,
    accuracy,
    cmp,
    indeterminacy,
    make_ifv,
    negate_xy,
    rho,
    scan_of,
    score,
    similarity_l,
    zx_to_xy,
)
from ifvkit.core import _snap

from conftest import ifvs, near_ties, well_separated


class TestMakeIfv:
    def test_passthrough(self):
        a = make_ifv(0.5, 0.3)
        assert (a.mu, a.nu) == (0.5, 0.3)

    def test_sum_violation(self):
        with pytest.raises(DomainViolation):
            make_ifv(0.7, 0.7)

    def test_clamps_boundary_noise(self):
        a = make_ifv(1.0 + 1e-13, 0.0)
        assert (a.mu, a.nu) == (1.0, 0.0)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(DomainViolation):
            make_ifv(1.0 + 1e-6, 0.0)
        with pytest.raises(DomainViolation):
            make_ifv(float("nan"), 0.0)

    def test_policy_validation(self):
        for eps in (1e-13, 1e-3, 0.0, float("nan")):
            with pytest.raises(BadParameter):
                NumericPolicy(eps_order=eps)
        assert NumericPolicy(eps_order=1e-12).eps_order == 1e-12

    def test_json_round_trip(self):
        a = make_ifv(0.25, 0.5)
        assert Ifv.from_json(a.to_json()) == a

    def test_from_json_names_a_missing_component(self):
        for obj, key in (({"mu": 0.1}, "nu"), ({"nu": 0.2}, "mu"), ({}, "mu")):
            with pytest.raises(BadParameter, match=f"'{key}'"):
                Ifv.from_json(obj)

    def test_text_rendering(self):
        assert str(make_ifv(0.5, 0.25)) == "⟨0.5, 0.25⟩"

    def test_sum_of_exactly_one_float_steps_the_larger_component(self):
        assert make_ifv(1.0, 5.85e-270) == Ifv(0.9999999999999999, 5.85e-270)


class TestSnap:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.9999999999999988, 1.2560739669470186e-15)
    @example(1.0, 5.85e-270)
    def test_lands_on_the_simplex_moving_only_the_larger_component(self, x, y):
        for mu, nu in ((x, y), (y, x)):
            a = _snap(mu, nu)
            assert Fraction(a.mu) + Fraction(a.nu) <= 1
            if mu >= nu:
                assert a.nu == nu and a.mu <= mu
            else:
                assert a.mu == mu and a.nu <= nu
            if Fraction(mu) + Fraction(nu) <= 1:
                assert (a.mu, a.nu) == (mu, nu)


class TestFunctionals:
    @pytest.mark.parametrize(
        "mu,nu,expected",
        [(1, 0, 1), (0, 1, -1), (0.5, 0.3, 0.2)],
    )
    def test_score(self, mu, nu, expected):
        assert score(make_ifv(mu, nu)) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "mu,nu,expected",
        [(1, 0, 1), (0, 0, 0), (0.5, 0.3, 0.8)],
    )
    def test_accuracy(self, mu, nu, expected):
        assert accuracy(make_ifv(mu, nu)) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "mu,nu,expected",
        [(1, 0, 0), (0, 0, 1), (0.5, 0.3, 0.2)],
    )
    def test_indeterminacy(self, mu, nu, expected):
        assert indeterminacy(make_ifv(mu, nu)) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "mu,nu,expected",
        [(1, 0, 1), (0, 1, 0), (0.6, 0.2, 2 / 3)],
    )
    def test_similarity_l(self, mu, nu, expected):
        assert similarity_l(make_ifv(mu, nu)) == pytest.approx(expected)

    @given(ifvs())
    @example(make_ifv(0.0, 1.8908501792100255e-09))
    def test_l_half_iff_balanced(self, a):
        # L - 1/2 = (mu - nu) / (2 (2 - mu - nu)): it vanishes exactly when
        # mu = nu, and is between (mu - nu)/4 and (mu - nu)/2, so an eps band
        # around L = 1/2 is not the same band around mu = nu
        gap = (a.mu - a.nu) / (2.0 * (2.0 - a.mu - a.nu))
        assert abs(similarity_l(a) - 0.5 - gap) <= 1e-15


class TestCmp:
    def test_xy_by_score(self):
        assert cmp(make_ifv(0.5, 0.3), make_ifv(0.4, 0.1)) is Ordering.LESS

    def test_xy_tie_by_accuracy(self):
        assert cmp(make_ifv(0.3, 0.1), make_ifv(0.4, 0.2)) is Ordering.LESS

    def test_zx_by_l(self):
        a, b = make_ifv(0.5, 0.3), make_ifv(0.4, 0.1)
        assert similarity_l(a) == pytest.approx(7 / 12)
        assert cmp(a, b, OrderKind.ZX) is Ordering.LESS

    @given(ifvs(), st.sampled_from(list(OrderKind)))
    def test_reflexive(self, a, ord):
        assert cmp(a, a, ord) is Ordering.EQUAL

    @given(ifvs(), ifvs(), st.sampled_from(list(OrderKind)))
    def test_antisymmetric(self, a, b, ord):
        assert cmp(a, b, ord) is cmp(b, a, ord).reversed()

    @given(ifvs(), ifvs(), ifvs(), st.sampled_from(list(OrderKind)))
    def test_transitive(self, a, b, c, ord):
        if not well_separated([a, b, c]):
            return
        trio = sorted([a, b, c], key=lambda v: cmp_key(v, ord))
        assert cmp(trio[0], trio[2], ord) is not Ordering.GREATER

    @given(ifvs(), st.sampled_from(list(OrderKind)))
    def test_bottom_and_top(self, a, ord):
        assert cmp(BOTTOM, a, ord) is not Ordering.GREATER
        assert cmp(a, TOP, ord) is not Ordering.GREATER

    @given(ifvs(), ifvs())
    def test_equal_xy_iff_componentwise(self, a, b):
        # s and h jointly determine (mu, nu), so order-equality is value-equality
        equal = cmp(a, b, OrderKind.XY) is Ordering.EQUAL
        near = math.isclose(a.mu, b.mu, abs_tol=2e-9) and math.isclose(
            a.nu, b.nu, abs_tol=2e-9
        )
        if equal:
            assert near

    @given(
        st.integers(-64, 64),
        st.lists(st.integers(0, 128), min_size=2, max_size=2, unique=True),
        st.integers(0, 128),
        st.integers(-64, 64),
    )
    def test_interval_characterization(self, si, mus, gi, gs):
        # among equal-score values, betweenness is membership betweenness;
        # dyadic grid keeps all scores exactly representable
        s = si / 64.0

        def on_score(step: int, sc: float):
            lo, hi = max(sc, 0.0), (1.0 + sc) / 2.0
            mu = lo + (hi - lo) * step / 128.0
            return make_ifv(mu, mu - sc)

        a, b = sorted((on_score(i, s) for i in mus), key=lambda v: v.mu)
        if cmp(a, b) is not Ordering.LESS:
            return
        g = on_score(gi, gs / 64.0)
        inside = cmp(a, g) is Ordering.LESS and cmp(g, b) is Ordering.LESS
        chars = abs(score(g) - s) <= 1e-9 and a.mu < g.mu < b.mu
        assert inside == chars


def zx_key(a):
    """The score of zx_to_xy(a) in closed form, the key cmp reads for ZX."""
    return (a.mu - a.nu) / (1.0 - min(a.mu, a.nu))


def reference_cmp(a, b, ord, policy):
    """cmp spelled out with the public functionals and the eps_order band."""
    primary = score if ord is OrderKind.XY else zx_key
    for key in (primary, accuracy):
        x, y = key(a), key(b)
        if not abs(x - y) <= policy.eps_order:
            return Ordering.LESS if x < y else Ordering.GREATER
    return Ordering.EQUAL


class TestCmpKernel:
    @given(ifvs())
    def test_zx_key_is_the_image_score_and_increases_with_l(self, a):
        assert abs(zx_key(a) - score(zx_to_xy(a))) <= 4e-16
        ell = similarity_l(a)
        assert abs(zx_key(a) - (2.0 * ell - 1.0) / max(ell, 1.0 - ell)) <= 1e-15

    @given(
        st.data(),
        ifvs(),
        st.sampled_from(list(OrderKind)),
        st.sampled_from([NumericPolicy(eps_order=e) for e in (1e-9, 1e-6, 1e-12)]),
    )
    def test_matches_reference(self, data, a, ord, policy):
        b = data.draw(st.one_of(ifvs(), near_ties(a, policy.eps_order)))
        assert cmp(a, b, ord, policy) is reference_cmp(a, b, ord, policy)
        assert cmp(b, a, ord, policy) is reference_cmp(b, a, ord, policy)

    @pytest.mark.parametrize("ord", list(OrderKind))
    def test_gap_of_exactly_eps_order_is_a_tie(self, ord):
        # the accuracies differ by exactly 1e-9, and so do the scores (XY)
        assert cmp(make_ifv(0.0, 0.0), make_ifv(1e-9, 0.0), ord) is Ordering.EQUAL

    def test_one_eps_band_for_cmp_negation_rho_and_scan(self):
        policy = NumericPolicy(eps_order=1e-6)
        for gap, tie in ((0.9e-6, True), (1.1e-6, False)):
            # the score of b exceeds that of a by gap; a has the larger accuracy and mu
            a, b = make_ifv(0.5, 0.4), make_ifv(0.3 + gap, 0.2)
            assert cmp(a, b, OrderKind.XY, policy) is (Ordering.GREATER if tie else Ordering.LESS)
            assert (rho(a, b, policy) < 1.0 / 3.0) is tie  # the accuracy branch
            scan = scan_of([a, b], policy)
            assert (scan.mu_hat, scan.mu_tilde) == ((b.mu, a.mu) if tie else (a.mu, b.mu))
            c = make_ifv(0.4 + gap, 0.4)  # score gap of c to a balanced value
            assert (negate_xy(c, policy) == make_ifv(0.5 - c.mu, 0.5 - c.nu)) is tie


def cmp_key(a, ord):
    if ord is OrderKind.XY:
        return (score(a), accuracy(a))
    return (similarity_l(a), accuracy(a))
