import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvkit.cli import EXIT_DOMAIN, EXIT_OK, EXIT_RUNG, EXIT_SCHEMA, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompare:
    def test_less(self, capsys):
        code, out, _ = run(capsys, "compare", "0.5,0.3", "0.4,0.1")
        assert (code, out.strip()) == (EXIT_OK, "LT")

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "compare", "0.5,0.3", "0.5,0.3")
        assert (code, out.strip()) == (EXIT_OK, "EQ")

    def test_zx_order_flag(self, capsys):
        code, out, _ = run(capsys, "compare", "0.5,0.3", "0.4,0.1", "--order", "zx")
        assert (code, out.strip()) == (EXIT_OK, "LT")

    def test_bad_pair_is_schema_error(self, capsys):
        code, _, err = run(capsys, "compare", "0.5;0.3", "0.4,0.1")
        assert code == EXIT_SCHEMA
        assert "error" in err

    def test_domain_violation_exit(self, capsys):
        code, _, err = run(capsys, "compare", "0.9,0.9", "0.4,0.1")
        assert code == EXIT_DOMAIN
        assert "error" in err


class TestNegate:
    def test_balanced(self, capsys):
        code, out, _ = run(capsys, "negate", "0,0")
        assert (code, out.strip()) == (EXIT_OK, "⟨0.5, 0.5⟩")

    def test_zx(self, capsys):
        code, out, _ = run(capsys, "negate", "0.3,0.3", "--order", "zx")
        assert code == EXIT_OK
        mu, nu = out.strip().strip("⟨⟩").split(", ")
        assert float(mu) == pytest.approx(0.2, abs=1e-9)
        assert float(nu) == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("order", ["xy", "zx"])
    def test_next_to_the_midline(self, capsys, order):
        code, out, _ = run(capsys, "negate", "0.5000000004,0.4999999996", "--order", order)
        assert code == EXIT_OK
        mu, nu = out.strip().strip("⟨⟩").split(", ")
        assert 0.0 <= float(mu) and 0.0 <= float(nu)


class TestTransport:
    def test_to_ifv(self, capsys):
        code, out, _ = run(
            capsys, "transport", "0.6,0.8", "--q", "2", "--direction", "to-ifv"
        )
        assert code == EXIT_OK
        mu, nu = out.strip().strip("⟨⟩").split(", ")
        assert float(mu) == pytest.approx(0.36, abs=1e-12)
        assert float(nu) == pytest.approx(0.64, abs=1e-12)

    def test_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "transport", "0.36,0.64", "--q", "2", "--direction", "to-qrofn"
        )
        assert code == EXIT_OK
        body = out.strip().split("_q=")[0].strip("⟨⟩")
        mu, nu = body.split(", ")
        assert float(mu) == pytest.approx(0.6, abs=1e-9)
        assert float(nu) == pytest.approx(0.8, abs=1e-9)

    def test_bad_rung(self, capsys):
        code, _, err = run(
            capsys, "transport", "0.5,0.5", "--q", "0.5", "--direction", "to-ifv"
        )
        assert code == EXIT_SCHEMA


class TestAggregate:
    def test_ifwa(self, capsys, tmp_path):
        f = tmp_path / "agg.json"
        f.write_text(
            json.dumps(
                {
                    "values": [
                        {"mu": 0.5, "nu": 0.3},
                        {"mu": 0.2, "nu": 0.6},
                        {"mu": 0.4, "nu": 0.4},
                    ],
                    "weights": [0.5, 0.3, 0.2],
                }
            )
        )
        code, out, _ = run(capsys, "aggregate", str(f), "--op", "ifwa")
        assert code == EXIT_OK
        mu, nu = out.strip().strip("⟨⟩").split(", ")
        # 1 - 0.5^0.5 * 0.8^0.3 * 0.6^0.2
        assert float(mu) == pytest.approx(0.4029066307, abs=1e-9)
        # 0.3^0.5 * 0.6^0.3 * 0.4^0.2
        assert float(nu) == pytest.approx(0.3912172543, abs=1e-9)

    def test_qrofwa_rung_mismatch(self, capsys, tmp_path):
        f = tmp_path / "agg.json"
        f.write_text(
            json.dumps(
                {
                    "values": [
                        {"mu": 0.6, "nu": 0.8, "q": 2},
                        {"mu": 0.6, "nu": 0.8, "q": 3},
                    ],
                    "weights": "equal",
                }
            )
        )
        code, _, err = run(capsys, "aggregate", str(f), "--op", "qrofwa")
        assert code == EXIT_RUNG

    def test_missing_values_key(self, capsys, tmp_path):
        f = tmp_path / "agg.json"
        f.write_text("{}")
        code, _, _ = run(capsys, "aggregate", str(f), "--op", "ifwa")
        assert code == EXIT_SCHEMA

    def test_invalid_json(self, capsys, tmp_path):
        f = tmp_path / "agg.json"
        f.write_text("not json")
        code, _, _ = run(capsys, "aggregate", str(f), "--op", "ifwa")
        assert code == EXIT_SCHEMA


class TestLattice:
    def test_inf(self, capsys, tmp_path):
        f = tmp_path / "vals.json"
        f.write_text(
            json.dumps(
                {"values": [{"mu": 0.5, "nu": 0.2}, {"mu": 0.3, "nu": 0.3}]}
            )
        )
        code, out, _ = run(capsys, "lattice", str(f), "--op", "inf")
        assert (code, out.strip()) == (EXIT_OK, "⟨0.3, 0.3⟩")
        code, out, _ = run(capsys, "lattice", str(f), "--op", "sup")
        assert (code, out.strip()) == (EXIT_OK, "⟨0.5, 0.2⟩")


AGG, LAT = "aggregate", "lattice"
HUGE = 10**400  # a JSON integer literal beyond float range


class TestMalformedValues:
    @pytest.mark.parametrize(
        "verb,op,doc,expected",
        [
            pytest.param(AGG, "ifwa", {"values": [{"nu": 0.3}]}, EXIT_SCHEMA, id="agg-no-mu"),
            pytest.param(AGG, "ifwg", {"values": [[0.5, 0.3]]}, EXIT_SCHEMA, id="agg-list-row"),
            pytest.param(
                AGG, "ifwa", {"values": [{"mu": "a", "nu": 0.3}]}, EXIT_SCHEMA, id="agg-text-mu"
            ),
            pytest.param(
                AGG,
                "ifwa",
                {"values": [{"mu": 0.5, "nu": 0.3}], "weights": ["x"]},
                EXIT_SCHEMA,
                id="agg-text-weight",
            ),
            pytest.param(
                AGG, "qrofwa", {"values": [{"mu": 0.6, "nu": 0.8}]}, EXIT_SCHEMA, id="agg-no-q"
            ),
            pytest.param(
                AGG,
                "qrofwg",
                {"values": [{"mu": 0.6, "nu": 0.8, "q": "two"}]},
                EXIT_SCHEMA,
                id="agg-text-q",
            ),
            pytest.param(LAT, "inf", {"values": [{"nu": 0.3}]}, EXIT_SCHEMA, id="lat-no-mu"),
            pytest.param(LAT, "sup", {"values": [[0.5, 0.3]]}, EXIT_SCHEMA, id="lat-list-row"),
            pytest.param(
                LAT, "inf", {"values": [{"mu": "a", "nu": 0.3}]}, EXIT_SCHEMA, id="lat-text-mu"
            ),
            pytest.param(
                AGG, "ifwa", {"values": [{"mu": 0.8, "nu": 0.5}]}, EXIT_DOMAIN, id="agg-domain"
            ),
            pytest.param(
                AGG,
                "qrofwa",
                {"values": [{"mu": 0.9, "nu": 0.9, "q": 2}]},
                EXIT_DOMAIN,
                id="agg-q-domain",
            ),
            pytest.param(
                LAT, "sup", {"values": [{"mu": 1.2, "nu": 0.0}]}, EXIT_DOMAIN, id="lat-domain"
            ),
            pytest.param(
                AGG, "ifwa", {"values": [{"mu": HUGE, "nu": 0.3}]}, EXIT_SCHEMA, id="agg-huge-mu"
            ),
            pytest.param(
                LAT, "inf", {"values": [{"mu": 0.5, "nu": HUGE}]}, EXIT_SCHEMA, id="lat-huge-nu"
            ),
            pytest.param(
                AGG,
                "qrofwa",
                {"values": [{"mu": 0.6, "nu": 0.8, "q": HUGE}]},
                EXIT_SCHEMA,
                id="agg-huge-q",
            ),
            pytest.param(
                AGG,
                "ifwg",
                {"values": [{"mu": 0.5, "nu": 0.3}], "weights": [HUGE]},
                EXIT_SCHEMA,
                id="agg-huge-weight",
            ),
        ],
    )
    def test_exit_code(self, capsys, tmp_path, verb, op, doc, expected):
        f = tmp_path / "values.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, verb, str(f), "--op", op)
        assert code == expected
        if "weights" not in doc:
            assert "values/0" in err

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"values": [{"mu": ' + "1" * 5000 + ', "nu": 0}]}', id="long-int"),
            pytest.param("[" * 100_000, id="deep-nesting"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [(AGG, "--op", "ifwa"), (LAT, "--op", "sup"), ("classify",)],
        ids=["aggregate", "lattice", "classify"],
    )
    def test_unparsable_document(self, capsys, tmp_path, text, argv):
        f = tmp_path / "values.json"
        f.write_text(text)
        code, _, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == EXIT_SCHEMA
        assert "not valid JSON" in err


# Documents near the valid shapes, with any part possibly replaced by any JSON.
# Text may hold lone surrogates, which st.text() leaves out by default.
_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=4)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_text, kids, max_size=3),
    max_leaves=8,
)
_numbers = st.floats(0.0, 1.0) | st.just(2) | st.floats() | st.integers(-HUGE, HUGE)
_cells = (
    st.fixed_dictionaries(
        {"mu": st.floats(0.0, 0.5), "nu": st.floats(0.0, 0.5)}, optional={"q": st.just(2)}
    )
    | st.fixed_dictionaries({"mu": _numbers, "nu": _numbers}, optional={"q": _numbers})
    | _json
)
_weights = st.just("equal") | st.lists(_numbers, max_size=3) | _json
_rows = st.fixed_dictionaries({"x": _cells, "y": _cells}) | _json
_documents = (
    st.fixed_dictionaries(
        {"values": st.lists(_cells, min_size=1, max_size=3) | _json},
        optional={"weights": _weights},
    )
    | st.fixed_dictionaries(
        {
            "universe": st.just(["x", "y"]) | _json,
            "patterns": st.dictionaries(_text, _rows, min_size=1, max_size=2)
            | _json,
            "unknown": _rows,
        },
        optional={
            "weights": _weights,
            "eps": _numbers | _json,
            "order": st.sampled_from(["xy", "zx"]) | _json,
        },
    )
    | _json
)


@pytest.mark.parametrize(
    "before,after",
    [
        ((AGG,), ("--op", "ifwa")),
        ((AGG,), ("--op", "qrofwg")),
        ((LAT,), ("--op", "inf", "--order", "zx")),
        (("classify",), ()),
        (("--format", "json", "classify"), ()),
    ],
    ids=["aggregate-ifwa", "aggregate-qrofwg", "lattice-inf", "classify", "classify-json"],
)
@settings(max_examples=150, deadline=None)
@given(doc=_documents)
def test_any_json_document_keeps_the_exit_contract(tmp_path_factory, before, after, doc):
    f = tmp_path_factory.getbasetemp() / "any-document.json"
    f.write_text(json.dumps(doc))
    # a real stdout encodes what it prints; a StringIO would take a lone surrogate
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([*before, str(f), *after])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_DOMAIN, EXIT_RUNG)


class TestClassify:
    def test_golden_report(self, capsys):
        code, out, _ = run(capsys, "classify", str(DATA / "building_materials.json"))
        assert code == EXIT_OK
        golden = (DATA / "building_materials_report.golden.txt").read_text()
        assert out == golden

    def test_equal_weights_report(self, capsys):
        code, out, _ = run(
            capsys, "classify", str(DATA / "building_materials_equal.json")
        )
        assert code == EXIT_OK
        lines = dict(
            line.split("\t") for line in out.strip().splitlines() if "\t" in line
        )
        assert lines == {
            "I1": "0.3793",
            "I2": "0.3773",
            "I3": "0.5354",
            "I4": "0.6500",
        }
        assert out.strip().splitlines()[-1] == "winner: I4"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "classify",
            str(DATA / "building_materials.json"),
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["winner"] == "I4"
        assert obj["similarities"]["I4"] == pytest.approx(0.6491, abs=5e-4)
        assert [label for label, _ in obj["ranking"]] == ["I4", "I3", "I1", "I2"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("where", ["pattern", "element"])
    def test_lone_surrogate_label_is_schema_error(self, capsys, tmp_path, fmt, where):
        doc = json.loads((DATA / "building_materials.json").read_text())
        if where == "pattern":
            doc["patterns"]["\ud800"] = doc["patterns"].pop("I1")
        else:
            doc["universe"][0] = "\udfff"
            for row in [*doc["patterns"].values(), doc["unknown"]]:
                row["\udfff"] = row.pop("x1")
        f = tmp_path / "surrogate.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--format", fmt, "classify", str(f))
        assert (code, out) == (EXIT_SCHEMA, "")
        assert "lone surrogate" in err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "classify", str(DATA / "building_materials.json"))
        _, second, _ = run(capsys, "classify", str(DATA / "building_materials.json"))
        assert first == second

    def test_domain_violation_names_cell(self, capsys, tmp_path):
        request = json.loads((DATA / "building_materials.json").read_text())
        request["patterns"]["I2"]["x5"] = {"mu": 0.9, "nu": 0.9}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(request))
        code, _, err = run(capsys, "classify", str(f))
        assert code == EXIT_DOMAIN
        assert "I2/x5" in err

    @pytest.mark.parametrize("eps", ["abc", [1e-9], pytest.param(HUGE, id="huge")])
    def test_schema_error_on_non_numeric_eps(self, capsys, tmp_path, eps):
        request = json.loads((DATA / "building_materials.json").read_text())
        request["eps"] = eps
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(request))
        code, _, err = run(capsys, "classify", str(f))
        assert code == EXIT_SCHEMA
        assert "'eps'" in err

    def test_schema_error_on_missing_unknown(self, capsys, tmp_path):
        request = json.loads((DATA / "building_materials.json").read_text())
        del request["unknown"]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(request))
        code, _, _ = run(capsys, "classify", str(f))
        assert code == EXIT_SCHEMA


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_SCHEMA

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "ifvkit.cli", "compare", "0.5,0.3", "0.4,0.1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == "LT"
