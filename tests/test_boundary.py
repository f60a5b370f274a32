"""Malformed input at the library boundary raises an IfvkitError, never a bare
Python error, and a parser's error names the failing JSON value by its path."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvkit import (
    BadParameter,
    DomainViolation,
    Ifs,
    Ifv,
    IfvkitError,
    NumericPolicy,
    Qrofn,
    UniverseMismatch,
    WeightVector,
    equal_weights,
    from_ifv,
    ifwa,
    make_ifv,
    make_qrofn,
    power,
    scalar_mul,
)

from conftest import any_json, json_text

A = make_ifv(0.5, 0.3)
HUGE = 10**400  # a JSON integer literal beyond float range


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: WeightVector(("x",)), id="weight-vector-text"),
        pytest.param(lambda: ifwa([A], ["x"]), id="ifwa-text-weight"),
        pytest.param(lambda: ifwa([A], None), id="ifwa-no-weights"),
        pytest.param(lambda: scalar_mul("x", A), id="scalar-mul-text"),
        pytest.param(lambda: power(A, None), id="power-none"),
        pytest.param(lambda: NumericPolicy(eps_order="x"), id="policy-text"),
        pytest.param(lambda: equal_weights(2.5), id="equal-weights-float"),
        pytest.param(lambda: equal_weights("3"), id="equal-weights-text"),
        pytest.param(lambda: make_ifv("a", 0), id="make-ifv-text"),
        pytest.param(lambda: make_ifv(HUGE, 0), id="make-ifv-huge"),
        pytest.param(lambda: make_qrofn(0.1, 0.2, None), id="make-qrofn-no-rung"),
        pytest.param(lambda: from_ifv(A, "x"), id="from-ifv-text-rung"),
        # every argument is converted before any domain check
        pytest.param(lambda: make_ifv(1.5, "a"), id="make-ifv-domain-then-text"),
        pytest.param(lambda: make_qrofn(1.5, "a", 2), id="make-qrofn-domain-then-text"),
    ],
)
def test_scalar_parameters_raise_bad_parameter(call):
    with pytest.raises(BadParameter):
        call()


_numbers = st.floats(0.0, 1.0) | st.floats() | st.integers(-HUGE, HUGE) | any_json
_cells = st.fixed_dictionaries({"mu": _numbers, "nu": _numbers}, optional={"q": _numbers})
_near_valid = (
    _cells
    | st.fixed_dictionaries(
        {
            "universe": st.lists(json_text, max_size=3) | any_json,
            "values": st.dictionaries(json_text, _cells | any_json, max_size=3) | any_json,
        }
    )
    | any_json
)


@pytest.mark.parametrize(
    "parse", [Ifv.from_json, Qrofn.from_json, Ifs.from_json], ids=["ifv", "qrofn", "ifs"]
)
@given(obj=_near_valid)
@example(obj=[0.5, 0.3])
@example(obj={"mu": "a", "nu": 0.3})
@example(obj={"mu": HUGE, "nu": 0.3})
@example(obj={"mu": None, "nu": 0.3})
@example(obj={"mu": 0.1, "nu": 0.2, "q": "two"})
@example(obj={"universe": 5, "values": {}})
@example(obj={"universe": ["x"]})
@example(obj={"universe": ["x"], "values": {"x": [0.5, 0.3]}})
@example(obj={"universe": [["x"]], "values": {}})
@example(obj=[{"universe": ["x"], "values": {"x": {"mu": 0.1, "nu": 0.2}}}])
def test_parsers_return_or_raise_ifvkit_error(parse, obj):
    try:
        parse(obj)
    except IfvkitError:
        pass


class TestIfsFromJson:
    ROW = {"x1": {"mu": 0.5, "nu": 0.3}, "x2": {"mu": 0.2, "nu": 0.6}}

    def test_rejects_an_element_outside_the_universe(self):
        with pytest.raises(UniverseMismatch, match=r"\['x3'\]"):
            Ifs.from_json({"universe": ["x1", "x2"], "values": {**self.ROW, "x3": {"mu": 0, "nu": 0}}})

    def test_shape_is_checked_before_any_cell(self):
        bad_cell = {"mu": 0.9, "nu": 0.9}
        with pytest.raises(UniverseMismatch):
            Ifs.from_json({"universe": ["x1"], "values": {"x1": bad_cell, "x2": bad_cell}})
        with pytest.raises(BadParameter):
            Ifs.from_json({"universe": "x1", "values": {"x1": bad_cell}})

    @pytest.mark.parametrize(
        "cell,error",
        [({"mu": 0.9, "nu": 0.9}, DomainViolation), ({"mu": "a", "nu": 0}, BadParameter), ([0, 1], BadParameter)],
        ids=["domain", "text", "list"],
    )
    def test_cell_error_names_its_label(self, cell, error):
        with pytest.raises(error) as info:
            Ifs.from_json({"universe": ["x1", "x2"], "values": {**self.ROW, "x2": cell}})
        assert info.value.path == ("x2",)
        assert str(info.value).startswith("x2: ")

    def test_errors_outside_a_parser_have_no_path(self):
        with pytest.raises(DomainViolation) as info:
            make_ifv(0.9, 0.9)
        assert info.value.path == ()
        assert not str(info.value).startswith(":")
