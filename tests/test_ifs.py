import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifvkit import (
    BOTTOM,
    DEFAULT_POLICY,
    TOP,
    EmptySamples,
    Ifs,
    IfvkitError,
    NonTotalMap,
    OrderKind,
    Ordering,
    UniverseMismatch,
    accuracy,
    cmp,
    decompose_check,
    level_set,
    make_ifv,
    pointwise_leq,
    score,
    sup_finite,
    zadeh_extend,
)

from conftest import POLICIES, edge_ifvs, ifvs, near_ties

U = ("x1", "x2", "x3")


def ifs_of(*pairs) -> Ifs:
    return Ifs.from_pairs(U, pairs)


@st.composite
def ifss(draw, universe=U, values=ifvs()) -> Ifs:
    vals = {x: draw(values) for x in universe}
    return Ifs(tuple(universe), vals)


class TestContainer:
    def test_coverage_required(self):
        with pytest.raises(UniverseMismatch):
            Ifs(U, {"x1": BOTTOM, "x2": TOP})
        with pytest.raises(UniverseMismatch):
            Ifs(("x1",), {"x1": BOTTOM, "x2": TOP})

    def test_access_and_order(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 0.0))
        assert i["x2"] == make_ifv(0.2, 0.6)
        assert i.ordered_values() == [
            make_ifv(0.5, 0.3),
            make_ifv(0.2, 0.6),
            make_ifv(0.0, 0.0),
        ]

    def test_json_round_trip(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 0.0))
        assert Ifs.from_json(i.to_json()) == i

    def test_from_pairs_needs_one_pair_per_element(self):
        with pytest.raises(UniverseMismatch):
            Ifs.from_pairs(("x",), [(0.1, 0.2), (0.3, 0.4)])
        with pytest.raises(UniverseMismatch):
            Ifs.from_pairs(("x", "y"), iter([(0.1, 0.2)]))
        with pytest.raises(UniverseMismatch):
            Ifs.from_pairs(("x", "x"), [(0.1, 0.2), (0.3, 0.4)])

    def test_from_json_names_missing_elements(self):
        with pytest.raises(UniverseMismatch, match=r"\['x'\]"):
            Ifs.from_json({"universe": ["x"], "values": {}})
        with pytest.raises(UniverseMismatch, match=r"\['y', 'z'\]"):
            Ifs.from_json(
                {"universe": ["x", "y", "z"], "values": {"x": {"mu": 0.1, "nu": 0.2}}}
            )

    def test_from_json_names_a_missing_component(self):
        with pytest.raises(IfvkitError, match="'nu'"):
            Ifs.from_json({"universe": ["x"], "values": {"x": {"mu": 0.1}}})

    def test_repeated_labels_rejected(self):
        with pytest.raises(UniverseMismatch, match=r"\['x'\]"):
            Ifs.from_json({"universe": ["x", "x"], "values": {"x": {"mu": 0.1, "nu": 0.2}}})
        with pytest.raises(UniverseMismatch, match=r"\['x1', 'x2'\]"):
            Ifs(("x1", "x2", "x3", "x2", "x1"), {x: BOTTOM for x in U})

    @given(ifss())
    def test_cached_keys_leave_equality_and_repr_alone(self, i):
        fresh = Ifs(i.universe, dict(i.values))
        before = repr(i)
        scores, accuracies = i._keys
        assert scores == tuple(score(v) for v in i.ordered_values())
        assert accuracies == tuple(accuracy(v) for v in i.ordered_values())
        assert i == fresh and fresh == i and repr(i) == before


class TestPointwiseOrder:
    def test_example(self):
        lo = ifs_of((0.2, 0.6), (0.2, 0.6), (0.0, 1.0))
        hi = ifs_of((0.5, 0.3), (0.2, 0.6), (1.0, 0.0))
        assert pointwise_leq(lo, hi)
        assert not pointwise_leq(hi, lo)

    def test_universe_mismatch(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 0.0))
        j = Ifs(("y1",), {"y1": BOTTOM})
        with pytest.raises(UniverseMismatch):
            pointwise_leq(i, j)

    @given(ifss())
    def test_reflexive_and_bounded(self, i):
        assert pointwise_leq(i, i)
        bot = Ifs(i.universe, {x: BOTTOM for x in i.universe})
        top = Ifs(i.universe, {x: TOP for x in i.universe})
        assert pointwise_leq(bot, i)
        assert pointwise_leq(i, top)


class TestLevelSets:
    def test_example(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 0.0))
        assert level_set(i, BOTTOM) == {"x1", "x2", "x3"}
        assert level_set(i, make_ifv(0.3, 0.3)) == {"x1"}
        assert level_set(i, TOP) == set()

    @given(ifss(), ifvs(), ifvs())
    def test_nested_along_the_order(self, i, alpha, beta):
        if cmp(alpha, beta) is Ordering.GREATER:
            alpha, beta = beta, alpha
        assert level_set(i, beta) <= level_set(i, alpha)


class TestDecomposition:
    def test_empty_samples_rejected(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 0.0))
        with pytest.raises(EmptySamples):
            decompose_check(i, [])

    def test_holds_with_attained_values(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 0.0))
        assert decompose_check(i, i.ordered_values())

    def test_fails_without_witnesses(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.0, 1.0))
        # a sample strictly above every value of i leaves x1 without a witness
        assert not decompose_check(i, [TOP])

    @given(ifss(), st.lists(ifvs(), max_size=4))
    def test_holds_whenever_samples_cover_the_range(self, i, extra):
        samples = i.ordered_values() + extra
        assert decompose_check(i, samples)


    def test_keeps_the_first_of_equal_witnesses(self):
        # w1 ties with v and with w2, but w2 lies below v (ties are not
        # transitive), so only w1 rebuilds v
        i = Ifs.from_pairs(("x",), [(0.5, 0.2)])
        w1, w2 = make_ifv(0.5 - 6e-10, 0.2), make_ifv(0.5 - 1.2e-9, 0.2)
        assert decompose_check(i, [w1, w2]) and not decompose_check(i, [w2, w1])

    @given(st.data(), ifss(), st.lists(ifvs(), max_size=3))
    def test_matches_witness_list_form(self, data, i, extra):
        pool = i.ordered_values() + extra
        pool += [data.draw(near_ties(a, 1e-9)) for a in pool]
        samples = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        assert decompose_check(i, samples) == decompose_by_witness_lists(i, samples)

    def test_key_gaps_of_exactly_eps_order_tie(self):
        # both key gaps are exactly 1e-9, so cmp calls the pair EQUAL
        i, samples = Ifs.from_pairs(("x",), [(0.0, 0.0)]), [make_ifv(1e-9, 0.0)]
        assert decompose_check(i, samples) is decompose_by_cmp_fold(i, samples, DEFAULT_POLICY) is True

    @given(st.data(), ifss(values=edge_ifvs()), st.lists(edge_ifvs(), max_size=3), POLICIES)
    def test_equals_the_cmp_fold(self, data, i, extra, policy):
        pool = i.ordered_values() + extra
        pool += [data.draw(near_ties(a, policy.eps_order)) for a in pool]
        samples = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        assert decompose_check(i, samples, policy) is decompose_by_cmp_fold(i, samples, policy)


def decompose_by_witness_lists(i, samples):
    """decompose_check as a witness list and a sup_finite per element."""
    for x in i.universe:
        witnesses = [alpha for alpha in samples if cmp(i[x], alpha) is not Ordering.LESS]
        if not witnesses or cmp(sup_finite(witnesses), i[x]) is not Ordering.EQUAL:
            return False
    return True


def decompose_by_cmp_fold(i, samples, policy):
    """decompose_check folded with cmp: the reference whose decisions its
    inline key comparisons must copy, whatever cmp comes to decide."""
    for v in i.ordered_values():
        top = None
        for alpha in samples:
            if cmp(v, alpha, OrderKind.XY, policy) is not Ordering.LESS:
                if top is None or cmp(top, alpha, OrderKind.XY, policy) is Ordering.LESS:
                    top = alpha
        if top is None or cmp(top, v, OrderKind.XY, policy) is not Ordering.EQUAL:
            return False
    return True


class TestExtension:
    TARGET = ("y1", "y2", "y3")
    MAP = {"x1": "y1", "x2": "y1", "x3": "y2"}

    def test_fiberwise_supremum(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.4, 0.4))
        out = zadeh_extend(i, self.MAP, self.TARGET)
        assert out.universe == self.TARGET
        assert out["y1"] == make_ifv(0.5, 0.3)
        assert out["y2"] == make_ifv(0.4, 0.4)

    def test_empty_fiber_gets_bottom(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.4, 0.4))
        out = zadeh_extend(i, self.MAP, self.TARGET)
        assert out["y3"] == BOTTOM

    def test_callable_map(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.4, 0.4))
        out = zadeh_extend(i, lambda x: self.MAP[x], self.TARGET)
        assert out["y1"] == make_ifv(0.5, 0.3)

    def test_injective_map_relabels(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.4, 0.4))
        out = zadeh_extend(i, {"x1": "y1", "x2": "y2", "x3": "y3"}, self.TARGET)
        assert out.ordered_values() == i.ordered_values()

    def test_partial_map_rejected(self):
        i = ifs_of((0.5, 0.3), (0.2, 0.6), (0.4, 0.4))
        with pytest.raises(NonTotalMap):
            zadeh_extend(i, {"x1": "y1"}, self.TARGET)
        with pytest.raises(NonTotalMap):
            zadeh_extend(i, {"x1": "y1", "x2": "y1", "x3": "z9"}, self.TARGET)

    @given(ifss(), ifss())
    def test_preserves_pointwise_order(self, i, j):
        # build a comparable pair explicitly: the pointwise meet is below i
        from ifvkit import meet2

        lo = Ifs(U, {x: meet2(i[x], j[x]) for x in U})
        assert pointwise_leq(lo, i)
        out_lo = zadeh_extend(lo, self.MAP, self.TARGET)
        out_hi = zadeh_extend(i, self.MAP, self.TARGET)
        assert pointwise_leq(out_lo, out_hi)
