import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvkit import (
    BadParameter,
    DomainViolation,
    LengthMismatch,
    NumericPolicy,
    Ordering,
    QOrderKind,
    Qrofn,
    RungMismatch,
    from_ifv,
    ifwa,
    ifwg,
    lift,
    make_ifv,
    make_qrofn,
    negate_lw,
    negate_wu,
    negate_xy,
    negate_zx,
    qcmp,
    qrofwa,
    qrofwg,
    scores,
    to_ifv,
    cmp,
    OrderKind,
)
from ifvkit.core import _snap
from ifvkit.qrofn import _qsnap

from conftest import POLICIES, components_close, edge_ifvs, ifvs, qrofns, well_separated

RUNGS = [1.0, 2.0, 3.0, 5.5]
QORDERS = st.sampled_from(list(QOrderKind))


@st.composite
def boundary_qrofns(draw, q: float) -> Qrofn:
    """A q-ROFN on the rung boundary, (m, (1 - m**q) ** (1/q)), in either order."""
    m = draw(st.floats(0.0, 1.0))
    mu, nu = m, (1.0 - m**q) ** (1.0 / q)
    return make_qrofn(*((nu, mu) if draw(st.booleans()) else (mu, nu)), q)


@st.composite
def weighted_rows(draw):
    """A row of 1-300 same-rung q-ROFNs, half of them on the rung boundary, and
    weights.  Hypothesis draws up to 8 values; a seeded Random fills the rest."""
    q = draw(st.sampled_from(RUNGS))
    n = draw(st.integers(1, 300) | st.sampled_from([1, 8, 64, 256, 300]))
    values = draw(st.lists(qrofns(q) | boundary_qrofns(q), min_size=1, max_size=min(n, 8)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    while len(values) < n:
        m, room = rnd.random(), rnd.choice([1.0, rnd.random()])
        pair = (m, (room * (1.0 - m**q)) ** (1.0 / q))
        values.append(make_qrofn(*(pair[::-1] if rnd.random() < 0.5 else pair), q))
    raw = [rnd.uniform(0.01, 1.0) for _ in values]
    return values, [r / math.fsum(raw) for r in raw]


def qclose(a: Qrofn, b: Qrofn, tol: float) -> bool:
    return a.q == b.q and components_close(a, b, tol)


def image(a: Qrofn):
    """The rung-transport formula, computed afresh (to_ifv caches it)."""
    return _snap(a.mu**a.q, a.nu**a.q)


def edge_qrofns(q: float):
    return qrofns(q) | boundary_qrofns(q) | edge_ifvs().map(lambda a: from_ifv(a, q))


class TestMakeQrofn:
    def test_passthrough(self):
        a = make_qrofn(0.6, 0.8, 3.0)
        assert (a.mu, a.nu, a.q) == (0.6, 0.8, 3.0)

    def test_rejects_rung_below_one(self):
        with pytest.raises(BadParameter):
            make_qrofn(0.5, 0.5, 0.5)
        with pytest.raises(BadParameter):
            make_qrofn(0.5, 0.5, float("nan"))

    def test_rejects_powered_sum_violation(self):
        with pytest.raises(DomainViolation):
            make_qrofn(0.9, 0.9, 2.0)

    def test_clamps_boundary_noise(self):
        a = make_qrofn(0.6, 0.8 + 1e-14, 2.0)
        assert a.mu**2 + a.nu**2 <= 1.0

    def test_rung_one_is_ifv_rule(self):
        with pytest.raises(DomainViolation):
            make_qrofn(0.7, 0.7, 1.0)

    def test_json_round_trip(self):
        a = make_qrofn(0.5, 0.25, 3.0)
        assert Qrofn.from_json(a.to_json()) == a

    @pytest.mark.parametrize(
        "obj, key",
        [({"mu": 0.1, "nu": 0.2}, "q"), ({"mu": 0.1, "q": 2.0}, "nu"), ({"nu": 0.2, "q": 2.0}, "mu"), ({}, "mu")],
    )
    def test_from_json_names_a_missing_key(self, obj, key):
        with pytest.raises(BadParameter, match=f"'{key}'"):
            Qrofn.from_json(obj)

    @given(st.sampled_from(RUNGS), st.floats(0.0, 1.0))
    @example(2.0, 2**-0.5)
    @example(3.0, 1.0)
    @example(5.5, 0.5 ** (1 / 5.5))
    def test_snap_keeps_a_balanced_value_balanced(self, q, t):
        a = _qsnap(t, t, q)
        assert a.mu == a.nu and a.mu**q + a.nu**q <= 1.0
        if t**q + t**q <= 1.0:
            assert a.mu == t
        else:
            assert abs(a.mu - 0.5 ** (1 / q)) <= 4 * math.ulp(a.mu)

    @pytest.mark.parametrize("q", [2.0, 3.0, 5.5])
    def test_balanced_results_past_the_rung_boundary_stay_balanced(self, q):
        bottom_free = make_qrofn(0.0, 0.0, q)
        for out in (negate_lw(bottom_free), negate_wu(bottom_free), from_ifv(make_ifv(0.5, 0.5), q)):
            assert out.mu == out.nu and out.mu**q + out.nu**q <= 1.0

    def test_text_rendering(self):
        assert str(make_qrofn(0.5, 0.25, 2.0)) == "⟨0.5, 0.25⟩_q=2.0"


class TestScores:
    def test_known_values_q2(self):
        s = scores(make_qrofn(0.6, 0.8, 2.0))
        assert s.s_lw == pytest.approx(-0.28)
        assert s.h_lw == pytest.approx(1.0)
        assert s.s_x == pytest.approx(-math.sqrt(0.28))
        assert s.h_x == pytest.approx(1.0)
        assert s.l_wu == pytest.approx(0.6)

    def test_rung_one_matches_ifv_functionals(self):
        from ifvkit import accuracy, score, similarity_l

        a = make_qrofn(0.5, 0.3, 1.0)
        s = scores(a)
        b = make_ifv(0.5, 0.3)
        assert s.s_lw == pytest.approx(score(b))
        assert s.h_lw == pytest.approx(accuracy(b))
        assert s.l_wu == pytest.approx(similarity_l(b))

    @given(qrofns(2.0))
    def test_rooted_score_sign(self, a):
        s = scores(a)
        assert (s.s_x >= 0) == (s.s_lw >= 0)
        assert abs(s.s_x) ** a.q == pytest.approx(abs(s.s_lw), abs=1e-9)


class TestQcmp:
    def test_example(self):
        a = make_qrofn(0.6, 0.8, 2.0)
        b = make_qrofn(0.8, 0.6, 2.0)
        assert qcmp(a, b) is Ordering.LESS
        assert qcmp(b, a, QOrderKind.WU) is Ordering.GREATER

    def test_rung_mismatch(self):
        a, b = make_qrofn(0.5, 0.5, 2.0), make_qrofn(0.5, 0.5, 3.0)
        for cached in (False, True):
            if cached:
                to_ifv(a), to_ifv(b)
            for ord in QOrderKind:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(RungMismatch, match="mixed rungs"):
                        qcmp(x, y, ord)

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(qrofns(q), qrofns(q))))
    def test_lw_and_x_orders_agree(self, pair):
        a, b = pair
        assert qcmp(a, b, QOrderKind.LW) is qcmp(a, b, QOrderKind.X)

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(qrofns(q), qrofns(q))))
    def test_transport_preserves_lw_order(self, pair):
        a, b = pair
        assert qcmp(a, b, QOrderKind.LW) is cmp(to_ifv(a), to_ifv(b), OrderKind.XY)
        assert qcmp(a, b, QOrderKind.LW) is cmp(image(a), image(b), OrderKind.XY)

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(qrofns(q), qrofns(q))))
    @example((Qrofn(0.0, 0.0, 5.5), Qrofn(0.0, 0.03125, 5.5)))
    @example((Qrofn(0.0, 0.0, 3.0), Qrofn(0.0, 0.001953125, 3.0)))
    def test_transport_preserves_wu_order(self, pair):
        a, b = pair
        assert qcmp(a, b, QOrderKind.WU) is cmp(to_ifv(a), to_ifv(b), OrderKind.ZX)
        assert qcmp(a, b, QOrderKind.WU) is cmp(image(a), image(b), OrderKind.ZX)


class TestTransport:
    def test_example(self):
        assert components_close(
            to_ifv(make_qrofn(0.6, 0.8, 2.0)), make_ifv(0.36, 0.64), 1e-12
        )

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(st.just(q), qrofns(q))))
    @example((5.5, Qrofn(0.9999999999999998, 0.0019531249999999996, 5.5)))
    def test_round_trip(self, arg):
        q, a = arg
        assert qclose(from_ifv(to_ifv(a), q), a, 1e-9)

    @given(ifvs(), st.sampled_from(RUNGS))
    def test_round_trip_from_ifv(self, a, q):
        assert components_close(to_ifv(from_ifv(a, q)), a, 1e-9)

    @given(st.sampled_from(RUNGS).flatmap(edge_qrofns))
    @example(make_qrofn(0.0, 0.0, 3.0))
    @example(Qrofn(0.9999999999999998, 0.0019531249999999996, 5.5))
    def test_image_is_the_formula_cached(self, a):
        img = to_ifv(a)
        assert img == image(a)
        assert to_ifv(a) is img

    def test_cached_image_leaves_equality_hash_and_repr_alone(self):
        a, b = make_qrofn(0.6, 0.7, 3.0), make_qrofn(0.6, 0.7, 3.0)
        before = (repr(a), str(a), hash(a), a.to_json())
        to_ifv(a)
        assert a == b and b == a
        assert (repr(a), str(a), hash(a), a.to_json()) == before == (repr(b), str(b), hash(b), b.to_json())
        assert len({a, b}) == 1

    def test_rung_one_is_identity(self):
        a = make_qrofn(0.5, 0.3, 1.0)
        assert to_ifv(a) == make_ifv(0.5, 0.3)

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(st.just(q), qrofns(q))))
    @example((5.5, Qrofn(0.9999999999999998, 0.0019531249999999996, 5.5)))
    def test_lift_of_identity(self, arg):
        q, a = arg
        out = lift(lambda x: x, [a])
        assert qclose(out, a, 1e-9)

    def test_lift_rejects_empty(self):
        with pytest.raises(LengthMismatch):
            lift(lambda x: x, [])


class TestNegations:
    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(st.just(q), qrofns(q))))
    def test_wu_matches_lifted(self, arg):
        q, a = arg
        direct = negate_wu(a)
        lifted = lift(lambda x: negate_zx(x), [a])
        assert qclose(direct, lifted, 1e-9)

    def test_rung_one_reduces_to_ifv_negations(self):
        a = make_qrofn(0.3, 0.3, 1.0)
        out = negate_wu(a)
        assert components_close(out, make_ifv(0.2, 0.2), 1e-9)
        b = make_qrofn(0.6, 0.2, 1.0)
        assert components_close(negate_lw(b), negate_xy(make_ifv(0.6, 0.2)), 1e-12)

    def test_in_domain_next_to_the_midline(self):
        # mu - nu = 8e-10 lies inside eps_order, so negate_xy takes its
        # balanced branch, whose formula gives mu = -4e-10 here
        a = make_ifv(0.5 + 4e-10, 0.5 - 4e-10)
        out = negate_zx(a)
        assert min(out.mu, out.nu) >= 0.0 and out.mu + out.nu <= 1.0
        for negate in (negate_lw, negate_wu):
            out = negate(from_ifv(a, 2.0))
            assert min(out.mu, out.nu) >= 0.0 and out.mu**2 + out.nu**2 <= 1.0

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(qrofns(q), qrofns(q))))
    def test_lw_antitone(self, pair):
        a, b = pair
        if not well_separated([to_ifv(a), to_ifv(b)]):
            return
        if qcmp(a, b) is Ordering.GREATER:
            a, b = b, a
        assert qcmp(negate_lw(b), negate_lw(a)) is not Ordering.GREATER

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(qrofns(q), qrofns(q))))
    @example((make_qrofn(0.5, 0.5, 2.0), make_qrofn(6.103515625e-05, 0.0, 2.0)))
    def test_kleene_for_both_negations(self, pair):
        a, b = pair
        na, nb = negate_lw(a), negate_lw(b)
        lhs = a if qcmp(a, na) is not Ordering.GREATER else na
        rhs = b if qcmp(b, nb) is not Ordering.LESS else nb
        assert qcmp(lhs, rhs) is not Ordering.GREATER
        na, nb = negate_wu(a), negate_wu(b)
        lhs = a if qcmp(a, na, QOrderKind.WU) is not Ordering.GREATER else na
        rhs = b if qcmp(b, nb, QOrderKind.WU) is not Ordering.LESS else nb
        assert qcmp(lhs, rhs, QOrderKind.WU) is not Ordering.GREATER


class TestFloatKernels:
    @given(
        st.sampled_from(RUNGS).flatmap(
            lambda q: qrofns(q) | boundary_qrofns(q) | edge_ifvs().map(lambda a: from_ifv(a, q))
        ),
        POLICIES,
    )
    @example(from_ifv(make_ifv(0.5 + 4e-10, 0.5 - 4e-10), 2.0), NumericPolicy())
    @example(make_qrofn(0.0, 0.0, 3.0), NumericPolicy())
    def test_negations_equal_the_lifted_ones(self, a, policy):
        assert negate_lw(a, policy) == lift(lambda x: negate_xy(x, policy), [a])
        assert negate_wu(a, policy) == lift(lambda x: negate_zx(x, policy), [a])


class TestAggregators:
    def test_known_weighted_average(self):
        values = [make_qrofn(0.6, 0.8, 2.0), make_qrofn(0.8, 0.6, 2.0)]
        out = qrofwa(values, [0.5, 0.5])
        # mu = sqrt(1 - sqrt(0.64 * 0.36)), nu = sqrt(0.48)
        assert out.mu == pytest.approx(math.sqrt(1.0 - math.sqrt(0.64 * 0.36)))
        assert out.mu == pytest.approx(0.7211, abs=5e-5)
        assert out.nu == pytest.approx(math.sqrt(0.48), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            qrofwa([make_qrofn(0.5, 0.5, 2.0)], [0.5, 0.5])
        with pytest.raises(LengthMismatch):
            qrofwg([make_qrofn(0.5, 0.5, 2.0)], [0.5, 0.5])

    @pytest.mark.parametrize("agg", [qrofwa, qrofwg])
    @pytest.mark.parametrize(
        "w",
        [[0.9, 0.9], [2.0, -1.0], [math.nan, 1.0], [math.inf, 0.5], [0.0, 1.0]],
        ids=["sum-1.8", "negative", "nan", "inf", "zero"],
    )
    def test_bad_weights_rejected(self, agg, w):
        with pytest.raises(BadParameter):
            agg([make_qrofn(0.6, 0.8, 2.0), make_qrofn(0.8, 0.6, 2.0)], w)

    def test_rung_mismatch(self):
        with pytest.raises(RungMismatch):
            qrofwa([make_qrofn(0.5, 0.5, 2.0), make_qrofn(0.5, 0.5, 3.0)], [0.5, 0.5])

    @given(st.sampled_from(RUNGS).flatmap(lambda q: st.tuples(st.just(q), qrofns(q))))
    def test_idempotent(self, arg):
        # the q-th root amplifies powered-space rounding without bound near
        # zero, so idempotency is asserted on the powered images
        q, a = arg
        for agg in (qrofwa, qrofwg):
            out = agg([a, a, a], [0.2, 0.3, 0.5])
            assert components_close(to_ifv(out), to_ifv(a), 1e-9)

    def test_rung_one_matches_ifv_aggregator(self):
        values = [make_qrofn(0.5, 0.3, 1.0), make_qrofn(0.2, 0.6, 1.0)]
        out = qrofwa(values, [0.4, 0.6])
        ref = ifwa([make_ifv(0.5, 0.3), make_ifv(0.2, 0.6)], [0.4, 0.6])
        assert components_close(out, ref, 1e-12)

    @given(weighted_rows())
    @example(([Qrofn(0.9999999999999998, 0.0019531249999999996, 5.5)] * 2, [0.25, 0.75]))
    @example(([make_qrofn(0, 0, 3)], [1.0]))
    def test_equal_to_the_lifted_ifv_aggregators(self, row):
        # the fold on powered components is the transport of ifwa/ifwg, bit for bit
        values, w = row
        assert qrofwa(values, w) == lift(lambda *x: ifwa(x, w), values)
        assert qrofwg(values, w) == lift(lambda *x: ifwg(x, w), values)
