import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvkit import (
    BOTTOM,
    TOP,
    BadParameter,
    LengthMismatch,
    add,
    complement_bar,
    ifwa,
    ifwg,
    intersect,
    make_ifv,
    mul,
    power,
    scalar_mul,
    union_,
)
from ifvkit.ops import _weighted_product

from conftest import components_close, ifvs


def test_complement_swaps():
    assert complement_bar(TOP) == BOTTOM
    assert complement_bar(make_ifv(0.6, 0.2)) == make_ifv(0.2, 0.6)


def test_complement_fixed_point():
    a = make_ifv(0.3, 0.3)
    assert complement_bar(a) == a


def test_intersect_union_examples():
    a, b = make_ifv(0.0, 0.0), make_ifv(0.5, 0.5)
    assert intersect(a, b) == make_ifv(0.0, 0.5)
    assert union_(a, b) == make_ifv(0.5, 0.0)
    assert intersect(make_ifv(0.5, 0.3), make_ifv(0.4, 0.1)) == make_ifv(0.4, 0.3)
    assert union_(make_ifv(0.5, 0.3), make_ifv(0.4, 0.1)) == make_ifv(0.5, 0.1)


@given(ifvs())
def test_intersect_idempotent_union_identity(a):
    assert intersect(a, a) == a
    assert union_(a, BOTTOM) == a


def test_add_mul_examples():
    a, b = make_ifv(0.5, 0.3), make_ifv(0.4, 0.2)
    s = add(a, b)
    assert (s.mu, s.nu) == (pytest.approx(0.7), pytest.approx(0.06))
    p = mul(a, b)
    assert (p.mu, p.nu) == (pytest.approx(0.2), pytest.approx(0.44))


@given(ifvs())
def test_add_identities(a):
    assert add(a, BOTTOM) == a
    assert add(TOP, a) == TOP
    assert mul(a, TOP) == a
    assert mul(BOTTOM, a) == BOTTOM


@given(ifvs(), ifvs())
def test_add_mul_commute(a, b):
    assert components_close(add(a, b), add(b, a), 1e-12)
    assert components_close(mul(a, b), mul(b, a), 1e-12)


@given(ifvs(), ifvs(), ifvs())
def test_add_mul_associate(a, b, c):
    assert components_close(add(add(a, b), c), add(a, add(b, c)), 1e-12)
    assert components_close(mul(mul(a, b), c), mul(a, mul(b, c)), 1e-12)


@given(ifvs(), ifvs())
def test_duality_through_complement(a, b):
    assert components_close(
        complement_bar(add(a, b)), mul(complement_bar(a), complement_bar(b)), 1e-12
    )


def test_scalar_mul_power_examples():
    half = make_ifv(0.5, 0.5)
    assert scalar_mul(2.0, half) == make_ifv(0.75, 0.25)
    assert power(half, 2.0) == make_ifv(0.25, 0.75)
    assert power(TOP, 7.3) == TOP


@given(ifvs())
def test_unit_exponent_identity(a):
    assert components_close(scalar_mul(1.0, a), a, 1e-12)
    assert components_close(power(a, 1.0), a, 1e-12)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_nonpositive_exponent_rejected(lam):
    a = make_ifv(0.5, 0.3)
    with pytest.raises(BadParameter):
        scalar_mul(lam, a)
    with pytest.raises(BadParameter):
        power(a, lam)


@given(ifvs(), st.floats(0.01, 4.0), st.floats(0.01, 4.0))
@example(make_ifv(1.0, 5.851999522434648e-270), 1.0, 0.03125)  # float sum exactly 1.0
def test_scalar_mul_distributes_over_exponent_sum(a, l1, l2):
    lhs = scalar_mul(l1 + l2, a)
    rhs = add(scalar_mul(l1, a), scalar_mul(l2, a))
    assert components_close(lhs, rhs, 1e-12)


class TestAggregators:
    def test_single_value(self):
        a = make_ifv(0.5, 0.3)
        assert components_close(ifwa([a], [1.0]), a, 1e-12)
        assert components_close(ifwg([a], [1.0]), a, 1e-12)

    @given(ifvs())
    def test_idempotent(self, a):
        assert components_close(ifwa([a, a], [0.5, 0.5]), a, 1e-12)
        assert components_close(ifwg([a, a], [0.5, 0.5]), a, 1e-12)

    def test_known_values(self):
        vals = [make_ifv(0.5, 0.3), make_ifv(0.4, 0.2)]
        avg = ifwa(vals, [0.5, 0.5])
        assert avg.mu == pytest.approx(0.452277, abs=1e-6)
        assert avg.nu == pytest.approx(0.244949, abs=1e-6)
        geo = ifwg(vals, [0.5, 0.5])
        assert geo.mu == pytest.approx(0.447214, abs=1e-6)
        assert geo.nu == pytest.approx(0.251669, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ifwa([make_ifv(0.5, 0.3)], [0.5, 0.5])
        with pytest.raises(LengthMismatch):
            ifwg([], [])

    @given(st.lists(ifvs(), min_size=2, max_size=6))
    @example([make_ifv(0.0, 1.0)] * 3 + [make_ifv(1.0, 1.401298464324817e-45)])
    def test_componentwise_bounds(self, vals):
        w = [1.0 / len(vals)] * len(vals)
        out = ifwa(vals, w)
        assert min(v.mu for v in vals) - 1e-12 <= out.mu <= max(v.mu for v in vals) + 1e-12
        assert min(v.nu for v in vals) - 1e-12 <= out.nu <= max(v.nu for v in vals) + 1e-12

    @pytest.mark.parametrize("agg", [ifwa, ifwg])
    @pytest.mark.parametrize(
        "w",
        [[0.9, 0.9], [2.0, -1.0], [math.nan, 1.0], [math.inf, 0.5], [0.0, 1.0]],
        ids=["sum-1.8", "negative", "nan", "inf", "zero"],
    )
    def test_bad_weights_rejected(self, agg, w):
        with pytest.raises(BadParameter):
            agg([make_ifv(0.5, 0.3), make_ifv(0.2, 0.6)], w)

    def test_long_row(self):
        vals = [make_ifv(0.3, 0.6)] * 200
        w = [1.0 / 200] * 200
        out = ifwa(vals, w)
        assert components_close(out, vals[0], 1e-9)
        # a zero factor makes the product exactly 0
        vals[0] = make_ifv(1.0, 0.0)
        out = ifwa(vals, w)
        assert out.mu == 1.0 and out.nu == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_long_row_matches_fsum_of_logs(self, seed):
        rng = random.Random(seed)
        vals = [make_ifv(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)) for _ in range(256)]
        raw = [rng.uniform(0.5, 1.5) for _ in vals]
        w = [r / math.fsum(raw) for r in raw]

        def product(factors):
            return math.exp(math.fsum(wi * math.log(f) for f, wi in zip(factors, w)))

        avg, geo = ifwa(vals, w), ifwg(vals, w)
        assert avg.mu == pytest.approx(1.0 - product([1.0 - v.mu for v in vals]), rel=1e-14)
        assert avg.nu == pytest.approx(product([v.nu for v in vals]), rel=1e-14)
        assert geo.mu == pytest.approx(product([v.mu for v in vals]), rel=1e-14)
        assert geo.nu == pytest.approx(1.0 - product([1.0 - v.nu for v in vals]), rel=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_product_is_the_left_to_right_loop(self, seed):
        rng = random.Random(seed)
        factors = [1.0 if seed % 2 and i % 7 == 0 else rng.random() for i in range(256)]
        raw = [rng.uniform(0.5, 1.5) for _ in factors]
        w = [r / math.fsum(raw) for r in raw]
        out = 1.0
        for f, wi in zip(factors, w):
            out *= f**wi
        assert _weighted_product(factors, w) == out

    def test_numpy_weights_give_python_floats(self):
        vals = [make_ifv(0.5, 0.3), make_ifv(0.2, 0.6)]
        for agg in (ifwa, ifwg):
            out = agg(vals, np.array([0.4, 0.6]))
            assert type(out.mu) is float and type(out.nu) is float
