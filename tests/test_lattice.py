from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifvkit import (
    BOTTOM,
    TOP,
    EmptyCollection,
    InconsistentScan,
    LatticeScan,
    OrderKind,
    Ordering,
    cmp,
    inf_finite,
    inf_from_scan,
    join2,
    make_ifv,
    meet2,
    scan_of,
    sup_finite,
    sup_from_scan,
)

from conftest import components_close, ifvs, near_ties, well_separated

ORDERS = st.sampled_from(list(OrderKind))


class TestMeetJoin:
    def test_examples(self):
        a, b = make_ifv(0.5, 0.3), make_ifv(0.4, 0.1)
        assert meet2(a, b) == a
        assert join2(a, b) == b

    @given(ifvs(), ORDERS)
    def test_idempotent(self, a, ord):
        assert meet2(a, a, ord) == a
        assert join2(a, a, ord) == a

    @given(ifvs(), ifvs(), ORDERS)
    def test_commutative(self, a, b, ord):
        # results may be distinct representatives only when cmp says EQUAL
        assert cmp(meet2(a, b, ord), meet2(b, a, ord), ord) is Ordering.EQUAL
        assert cmp(join2(a, b, ord), join2(b, a, ord), ord) is Ordering.EQUAL

    @given(ifvs(), ifvs(), ifvs(), ORDERS)
    def test_associative(self, a, b, c, ord):
        lhs = meet2(meet2(a, b, ord), c, ord)
        rhs = meet2(a, meet2(b, c, ord), ord)
        assert cmp(lhs, rhs, ord) is Ordering.EQUAL
        lhs = join2(join2(a, b, ord), c, ord)
        rhs = join2(a, join2(b, c, ord), ord)
        assert cmp(lhs, rhs, ord) is Ordering.EQUAL

    @given(ifvs(), ifvs(), ORDERS)
    def test_absorption(self, a, b, ord):
        assert cmp(meet2(a, join2(a, b, ord), ord), a, ord) is Ordering.EQUAL
        assert cmp(join2(a, meet2(a, b, ord), ord), a, ord) is Ordering.EQUAL

    @given(ifvs(), ifvs(), ifvs(), ORDERS)
    def test_distributive(self, a, b, c, ord):
        lhs = meet2(a, join2(b, c, ord), ord)
        rhs = join2(meet2(a, b, ord), meet2(a, c, ord), ord)
        assert cmp(lhs, rhs, ord) is Ordering.EQUAL

    @given(ifvs(), ORDERS)
    def test_bounds_absorb(self, a, ord):
        assert meet2(BOTTOM, a, ord) == BOTTOM
        assert join2(TOP, a, ord) == TOP


class TestFiniteBounds:
    def test_examples(self):
        omega = [make_ifv(0.5, 0.2), make_ifv(0.3, 0.3)]
        assert inf_finite(omega) == make_ifv(0.3, 0.3)
        assert sup_finite(omega) == make_ifv(0.5, 0.2)

    @given(st.lists(ifvs(), min_size=1, max_size=8), ORDERS)
    def test_inf_is_member_and_lower_bound(self, omega, ord):
        lo = inf_finite(omega, ord)
        assert lo in omega
        assert all(cmp(lo, a, ord) is not Ordering.GREATER for a in omega)
        hi = sup_finite(omega, ord)
        assert hi in omega
        assert all(cmp(a, hi, ord) is not Ordering.GREATER for a in omega)

    @pytest.mark.parametrize("ord", list(OrderKind))
    def test_first_of_equal_elements(self, ord):
        a, b, top = make_ifv(0.3, 0.2), make_ifv(0.3 + 4e-10, 0.2), make_ifv(0.9, 0.0)
        assert a != b and cmp(a, b, ord) is Ordering.EQUAL
        assert inf_finite([a, b], ord) is a and inf_finite([b, top, a], ord) is b
        assert sup_finite([a, b], ord) is a and sup_finite([b, a], ord) is b
        assert sup_finite([a, top, b], ord) is top

    @given(st.data(), st.lists(ifvs(), min_size=1, max_size=6), ORDERS)
    def test_folds_match_meet_and_join(self, data, omega, ord):
        omega = data.draw(st.permutations(omega + [data.draw(near_ties(a, 1e-9)) for a in omega]))
        assert inf_finite(omega, ord) is reduce(lambda x, y: meet2(x, y, ord), omega)
        assert sup_finite(omega, ord) is reduce(lambda x, y: join2(x, y, ord), omega)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCollection):
            inf_finite([])
        with pytest.raises(EmptyCollection):
            sup_finite([])
        with pytest.raises(EmptyCollection):
            scan_of([])

    @given(st.lists(ifvs(), min_size=1, max_size=12))
    def test_scan_route_matches_comparator_route(self, omega):
        if not well_separated(omega):
            return
        scan = scan_of(omega)
        assert components_close(inf_from_scan(scan), inf_finite(omega), 1e-12)
        assert components_close(sup_from_scan(scan), sup_finite(omega), 1e-12)


class TestScan:
    def test_scan_example(self):
        scan = scan_of([make_ifv(0.5, 0.2), make_ifv(0.3, 0.3)])
        assert scan.xi == pytest.approx(0.0)
        assert scan.eta == pytest.approx(0.3)
        assert scan.xi_attained and scan.eta_attained
        assert scan.mu_hat == pytest.approx(0.3)
        assert scan.mu_tilde == pytest.approx(0.5)

    def test_scan_extremes(self):
        scan = scan_of([BOTTOM, TOP])
        assert (scan.xi, scan.eta) == (-1.0, 1.0)
        assert (scan.mu_hat, scan.mu_tilde) == (0.0, 1.0)

    def test_attained_branches(self):
        scan = LatticeScan(0.0, 0.3, True, True, mu_hat=0.3, mu_tilde=0.5)
        assert inf_from_scan(scan) == make_ifv(0.3, 0.3)
        assert sup_from_scan(scan) == make_ifv(0.5, 0.2)

    def test_inf_not_attained_branch(self):
        scan = LatticeScan(0.0, 0.5, False, True, mu_tilde=0.75)
        assert inf_from_scan(scan) == make_ifv(0.5, 0.5)

    def test_inf_attained_at_bottom(self):
        scan = LatticeScan(-1.0, 0.0, True, False, mu_hat=0.0)
        assert inf_from_scan(scan) == BOTTOM

    def test_sup_not_attained_nonpositive(self):
        scan = LatticeScan(-0.5, -0.2, True, False, mu_hat=0.0)
        assert sup_from_scan(scan) == make_ifv(0.0, 0.2)

    def test_sup_not_attained_positive(self):
        scan = LatticeScan(0.0, 0.3, False, False)
        assert sup_from_scan(scan) == make_ifv(0.3, 0.0)

    def test_invariant_violations(self):
        with pytest.raises(InconsistentScan):
            LatticeScan(0.5, 0.0, True, True, mu_hat=0.5, mu_tilde=0.5)
        with pytest.raises(InconsistentScan):
            LatticeScan(0.0, 0.0, True, True, mu_hat=None, mu_tilde=0.5)
        with pytest.raises(InconsistentScan):
            # mu_hat below the attained score is impossible
            inf_from_scan(LatticeScan(0.5, 0.5, True, True, mu_hat=0.2, mu_tilde=0.9))
        with pytest.raises(InconsistentScan):
            # 2*mu_tilde - eta > 1 leaves the simplex
            sup_from_scan(LatticeScan(0.0, 0.0, True, True, mu_hat=0.1, mu_tilde=0.9))
