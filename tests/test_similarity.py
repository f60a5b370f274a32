import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifvkit import (
    DEFAULT_POLICY,
    BadParameter,
    ClassificationResult,
    EmptyPatternSet,
    Ifs,
    LengthMismatch,
    NumericPolicy,
    OrderKind,
    Ordering,
    UniverseMismatch,
    WeightVector,
    classify,
    cmp,
    distance,
    equal_weights,
    make_ifv,
    rho,
    score,
    similarity,
)

from conftest import ifvs, near_ties, well_separated

DATA = Path(__file__).parent / "data"


def load_request(name: str):
    obj = json.loads((DATA / name).read_text())
    universe = obj["universe"]
    patterns = [
        (label, Ifs.from_json({"universe": universe, "values": row}))
        for label, row in obj["patterns"].items()
    ]
    unknown = Ifs.from_json({"universe": universe, "values": obj["unknown"]})
    if obj["weights"] == "equal":
        w = equal_weights(len(universe))
    else:
        w = WeightVector(tuple(obj["weights"]))
    return unknown, patterns, w


class TestWeightVector:
    def test_validation(self):
        with pytest.raises(BadParameter):
            WeightVector(())
        with pytest.raises(BadParameter):
            WeightVector((0.5, 0.0, 0.5))
        with pytest.raises(BadParameter):
            WeightVector((0.5, -0.1, 0.6))
        with pytest.raises(BadParameter):
            WeightVector((0.5, 0.4))

    def test_sequence_protocol(self):
        w = WeightVector((0.25, 0.75))
        assert len(w) == 2 and list(w) == [0.25, 0.75] and w[1] == 0.75

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_equal_weights_sum_exactly(self, n):
        w = equal_weights(n)
        assert sum(w) == 1.0
        assert all(abs(x - 1.0 / n) < 1e-12 for x in w)

    def test_equal_weights_rejects_zero(self):
        with pytest.raises(BadParameter):
            equal_weights(0)


class TestRho:
    def test_equal_score_branch(self):
        a, b = make_ifv(0.3, 0.1), make_ifv(0.4, 0.2)
        assert rho(a, b) == pytest.approx(1.0 / 15.0)

    def test_distinct_score_branch(self):
        a, b = make_ifv(0.5, 0.3), make_ifv(0.4, 0.1)
        assert rho(a, b) == pytest.approx(1.1 / 3.0)

    @given(ifvs(), ifvs())
    def test_symmetry_and_range(self, a, b):
        assert rho(a, b) == rho(b, a)
        assert 0.0 <= rho(a, b) <= 1.0

    @given(ifvs())
    def test_identity(self, a):
        assert rho(a, a) == 0.0

    @given(ifvs(), ifvs())
    def test_zero_only_at_equality(self, a, b):
        if rho(a, b) == 0.0:
            assert cmp(a, b) is Ordering.EQUAL

    @given(ifvs(), ifvs(), ifvs())
    def test_triangle_inequality(self, a, b, c):
        # score ties resolved by tolerance can break the inequality by O(eps)
        # only in the band; skip score-adjacent triples
        if not well_separated([a, b, c]):
            return
        assert rho(a, c) <= rho(a, b) + rho(b, c) + 1e-12

    @given(ifvs(), ifvs(), ifvs())
    def test_monotone_along_chains(self, a, b, c):
        # order the triple a <= b <= c, then the ends are at least as far
        # apart as either end is from the middle
        if not well_separated([a, b, c]):
            return
        from ifvkit import accuracy, score

        a, b, c = sorted([a, b, c], key=lambda v: (score(v), accuracy(v)))
        assert rho(a, c) >= rho(a, b) - 1e-12
        assert rho(a, c) >= rho(b, c) - 1e-12


class TestDistanceSimilarity:
    U = ("x1", "x2")
    W = WeightVector((0.4, 0.6))

    def two(self, *pairs):
        return Ifs.from_pairs(self.U, pairs)

    def test_complement_identity(self):
        i = self.two((0.5, 0.3), (0.2, 0.6))
        j = self.two((0.4, 0.1), (0.2, 0.6))
        assert similarity(i, j, self.W) == pytest.approx(
            1.0 - distance(i, j, self.W)
        )

    def test_weighted_sum(self):
        i = self.two((0.5, 0.3), (0.3, 0.1))
        j = self.two((0.4, 0.1), (0.4, 0.2))
        assert distance(i, j, self.W) == pytest.approx(
            0.4 * (1.1 / 3.0) + 0.6 * (1.0 / 15.0)
        )

    def test_universe_mismatch(self):
        i = self.two((0.5, 0.3), (0.2, 0.6))
        j = Ifs.from_pairs(("y1", "y2"), [(0.5, 0.3), (0.2, 0.6)])
        with pytest.raises(UniverseMismatch):
            distance(i, j, self.W)

    def test_length_mismatch(self):
        i = self.two((0.5, 0.3), (0.2, 0.6))
        with pytest.raises(LengthMismatch):
            distance(i, i, WeightVector((1.0,)))

    def test_self_similarity_is_one(self):
        i = self.two((0.5, 0.3), (0.2, 0.6))
        assert similarity(i, i, self.W) == 1.0


class TestBuildingMaterials:
    def test_weighted_universe(self):
        unknown, patterns, w = load_request("building_materials.json")
        result = classify(unknown, patterns, w)
        sims = result.similarities
        assert sims["I1"] == pytest.approx(0.3873, abs=5e-4)
        assert sims["I2"] == pytest.approx(0.3828, abs=5e-4)
        assert sims["I3"] == pytest.approx(0.5437, abs=5e-4)
        assert sims["I4"] == pytest.approx(0.6491, abs=5e-4)
        assert result.winner == "I4"
        assert [label for label, _ in result.ranking] == ["I4", "I3", "I1", "I2"]

    def test_equal_weights(self):
        unknown, patterns, w = load_request("building_materials_equal.json")
        result = classify(unknown, patterns, w)
        sims = result.similarities
        assert sims["I1"] == pytest.approx(0.3793, abs=5e-4)
        assert sims["I2"] == pytest.approx(0.3773, abs=5e-4)
        assert sims["I3"] == pytest.approx(0.5354, abs=5e-4)
        assert sims["I4"] == pytest.approx(0.6500, abs=5e-4)
        assert result.winner == "I4"


class TestClassify:
    def test_empty_pattern_set(self):
        i = Ifs.from_pairs(("x1",), [(0.5, 0.3)])
        with pytest.raises(EmptyPatternSet):
            classify(i, [], WeightVector((1.0,)))

    def test_deterministic_tie_break(self):
        i = Ifs.from_pairs(("x1",), [(0.5, 0.3)])
        patterns = [("B", i), ("A", i)]
        result = classify(i, patterns, WeightVector((1.0,)))
        assert result.winner == "A"
        assert result.ranking == (("A", 1.0), ("B", 1.0))

    def test_result_shape(self):
        i = Ifs.from_pairs(("x1",), [(0.5, 0.3)])
        j = Ifs.from_pairs(("x1",), [(0.1, 0.8)])
        result = classify(i, [("near", i), ("far", j)], WeightVector((1.0,)))
        assert isinstance(result, ClassificationResult)
        assert result.winner == "near"
        assert result.similarities["near"] == 1.0
        assert result.similarities["far"] < 1.0


def reference_distance(i1, i2, w, policy=DEFAULT_POLICY):
    """The weighted sum of rho, read through the sets' labels.  Builtin sum,
    as in the library, so the two agree where sum is compensated (3.12+)."""
    return sum(wj * rho(i1[x], i2[x], policy) for x, wj in zip(i1.universe, w))


def reference_ranking(unknown, patterns, w, policy=DEFAULT_POLICY):
    scored = [
        (label, 1.0 - reference_distance(pattern, unknown, w, policy))
        for label, pattern in patterns
    ]
    return tuple(sorted(scored, key=lambda item: (-item[1], item[0])))


GRID = 0.05


@st.composite
def grid_ifvs(draw):
    k = draw(st.integers(0, 20))
    j = draw(st.integers(0, 20 - k))
    return make_ifv(round(k * GRID, 2), round(j * GRID, 2))


@st.composite
def libraries(draw):
    """An unknown, labelled patterns, weights and a policy.

    Cells are drawn on the 0.05 grid or anywhere.  Some unknown cells copy a
    pattern's cell or shift both of its components by one grid step, which
    keeps the score, so rho's equal-score branch fires.  Others move one key
    of a pattern's cell by 0.5, 1 or 2 eps_order, onto the edge of the band.
    """
    policy = draw(st.sampled_from([DEFAULT_POLICY, NumericPolicy(eps_order=1e-6)]))
    n = draw(st.integers(1, 8))
    universe = tuple(f"x{j}" for j in range(n))
    cell = st.one_of(grid_ifvs(), ifvs())
    patterns = [
        (f"P{i}", Ifs(universe, {x: draw(cell) for x in universe}))
        for i in range(draw(st.integers(1, 5)))
    ]
    values = {}
    for x in universe:
        source = draw(st.sampled_from(patterns))[1][x]
        how = draw(st.sampled_from(["own", "copy", "shift", "near tie"]))
        if how == "near tie":
            values[x] = draw(near_ties(source, policy.eps_order))
        elif how == "copy":
            values[x] = source
        elif how == "shift" and source.mu + source.nu + 2 * GRID <= 1.0:
            values[x] = make_ifv(round(source.mu + GRID, 2), round(source.nu + GRID, 2))
        else:
            values[x] = draw(cell)
    raw = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    w = WeightVector(tuple(r / sum(raw) for r in raw))
    return Ifs(universe, values), patterns, w, policy


class TestKernelMatchesRho:
    """distance, similarity and classify equal the weighted sum of rho bit
    for bit, on either branch and under any eps_order."""

    @pytest.mark.parametrize(
        "name", ["building_materials.json", "building_materials_equal.json"]
    )
    def test_building_materials(self, name):
        unknown, patterns, w = load_request(name)
        assert classify(unknown, patterns, w).ranking == reference_ranking(
            unknown, patterns, w
        )
        for _, pattern in patterns:
            assert distance(pattern, unknown, w) == reference_distance(pattern, unknown, w)
            assert similarity(unknown, pattern, w) == 1.0 - reference_distance(
                unknown, pattern, w
            )

    @given(libraries())
    def test_random_libraries(self, library):
        unknown, patterns, w, policy = library
        result = classify(unknown, patterns, w, policy)
        assert result.ranking == reference_ranking(unknown, patterns, w, policy)
        for _, pattern in patterns:
            d = reference_distance(pattern, unknown, w, policy)
            assert distance(pattern, unknown, w, policy) == d
            assert similarity(pattern, unknown, w, policy) == 1.0 - d

    def test_tied_scores_take_the_accuracy_branch(self):
        # x1: equal scores; x2: a score gap of exactly eps_order, still a tie
        u = ("x1", "x2", "x3")
        w = WeightVector((0.25, 0.25, 0.5))
        pattern = Ifs.from_pairs(u, [(0.3, 0.1), (0.0, 0.0), (0.5, 0.3)])
        unknown = Ifs.from_pairs(u, [(0.35, 0.15), (1e-9, 0.0), (0.1, 0.8)])
        assert score(pattern["x1"]) == score(unknown["x1"])
        assert score(unknown["x2"]) - score(pattern["x2"]) == DEFAULT_POLICY.eps_order
        d = reference_distance(pattern, unknown, w)
        assert rho(pattern["x2"], unknown["x2"]) == 1e-9 / 3.0
        assert distance(pattern, unknown, w) == d
        assert classify(unknown, [("P", pattern)], w).ranking == (("P", 1.0 - d),)

    @given(libraries())
    def test_identical_pattern_is_exactly_one(self, library):
        unknown, patterns, w, policy = library
        twin = Ifs(unknown.universe, dict(unknown.values))
        result = classify(unknown, patterns + [("twin", twin)], w, policy)
        assert result.similarities["twin"] == 1.0
        assert similarity(twin, unknown, w, policy) == 1.0
        assert distance(unknown, twin, w, policy) == 0.0

    def test_every_pattern_is_checked(self):
        unknown, patterns, w = load_request("building_materials.json")
        n = len(unknown.universe)
        stranger = Ifs.from_pairs(tuple(f"y{j}" for j in range(n)), [(0.1, 0.2)] * n)
        with pytest.raises(UniverseMismatch):
            classify(unknown, patterns + [("stranger", stranger)], w)
        with pytest.raises(LengthMismatch):
            classify(unknown, patterns, equal_weights(len(w) + 1))
        with pytest.raises(UniverseMismatch):
            similarity(unknown, stranger, w)
