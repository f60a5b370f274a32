"""Command-line front-end over JSON inputs.

Verbs: ``compare``, ``negate``, ``transport``, ``aggregate``, ``lattice``,
``classify``.  Exit codes are a fixed contract: 0 success, 2 parse/schema
error, 3 domain violation, 4 rung mismatch.  Every value and set in a JSON
file is parsed by the library's ``from_json`` and every 'mu,nu' argument by
``make_ifv``/``make_qrofn``, so any malformed input raises an IfvkitError;
an error names the failing JSON value by its path (``values/1``, ``I2/x5``).
Values are printed in the canonical text form "⟨mu, nu⟩" (shortest
round-trip decimals); ``classify`` reports similarities rounded to 4 decimals.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from .core import DEFAULT_POLICY, Ifv, NumericPolicy, OrderKind, Ordering, cmp, make_ifv
from .errors import BadParameter, DomainViolation, IfvkitError, RungMismatch, _at
from .ifs import Ifs, _labels
from .lattice import inf_finite, sup_finite
from .negation import negate
from .ops import ifwa, ifwg
from .qrofn import Qrofn, from_ifv, make_qrofn, qrofwa, qrofwg, to_ifv
from .similarity import WeightVector, classify, equal_weights

__all__ = ["main"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_RUNG = 4

_EXIT_CODES = {DomainViolation: EXIT_DOMAIN, RungMismatch: EXIT_RUNG}  # any other error: 2
_ORDER_TOKENS = {Ordering.LESS: "LT", Ordering.EQUAL: "EQ", Ordering.GREATER: "GT"}
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # what a JSON "\ud800" escape decodes to


def _parse_order(tag: str) -> OrderKind:
    try:
        return OrderKind(tag)
    except ValueError:
        raise BadParameter(f"unknown order {tag!r}, expected 'xy' or 'zx'")


def _parse_pair(text: str) -> list[str]:
    """Split 'mu,nu'; make_ifv or make_qrofn converts the two parts."""
    parts = text.split(",")
    if len(parts) != 2:
        raise BadParameter(f"expected 'mu,nu', got {text!r}")
    return parts


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise BadParameter(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # also too-long ints, too-deep nesting
        raise BadParameter(f"{path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise BadParameter(f"{path}: top-level JSON value must be an object")
    return obj


def _weights_from_spec(spec, n: int) -> WeightVector:
    if spec == "equal" or spec is None:
        return equal_weights(n)
    if not isinstance(spec, list):
        raise BadParameter("'weights' must be a list of numbers or \"equal\"")
    if len(spec) != n:
        raise BadParameter(f"{len(spec)} weights for {n} universe elements")
    try:
        return WeightVector(tuple(float(x) for x in spec))
    except (TypeError, ValueError, OverflowError):
        raise BadParameter("'weights' must be a list of numbers or \"equal\"")


def _parse_list(rows, parse) -> list:
    if not isinstance(rows, list) or not rows:
        raise BadParameter("must be a nonempty list")
    return [_at(i, parse, row) for i, row in enumerate(rows)]


def _value_list(obj: dict, rung: bool = False) -> list:
    return _at("values", _parse_list, obj.get("values"), Qrofn.from_json if rung else Ifv.from_json)


def _cmd_compare(args: argparse.Namespace) -> int:
    a = make_ifv(*_parse_pair(args.a))
    b = make_ifv(*_parse_pair(args.b))
    print(_ORDER_TOKENS[cmp(a, b, _parse_order(args.order), args.policy)])
    return EXIT_OK


def _cmd_negate(args: argparse.Namespace) -> int:
    a = make_ifv(*_parse_pair(args.a))
    print(negate(a, _parse_order(args.order), args.policy))
    return EXIT_OK


def _cmd_transport(args: argparse.Namespace) -> int:
    mu, nu = _parse_pair(args.a)
    if args.direction == "to-ifv":
        print(to_ifv(make_qrofn(mu, nu, args.q)))
    else:
        print(from_ifv(make_ifv(mu, nu), args.q))
    return EXIT_OK


def _cmd_aggregate(args: argparse.Namespace) -> int:
    obj = _load_json(args.file)
    agg = {"ifwa": ifwa, "ifwg": ifwg, "qrofwa": qrofwa, "qrofwg": qrofwg}[args.op]
    values = _value_list(obj, rung=args.op.startswith("q"))
    weights = _weights_from_spec(obj.get("weights"), len(values))
    print(agg(values, weights))
    return EXIT_OK


def _cmd_lattice(args: argparse.Namespace) -> int:
    values = _value_list(_load_json(args.file))
    bound = inf_finite if args.op == "inf" else sup_finite
    print(bound(values, _parse_order(args.order), args.policy))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    obj = _load_json(args.file)
    eps = obj.get("eps")
    try:
        policy = NumericPolicy(eps_order=float(eps)) if eps is not None else args.policy
    except (TypeError, ValueError, OverflowError):
        raise BadParameter("'eps' must be a number")
    universe = _labels(obj.get("universe"))
    _parse_order(obj.get("order", "xy"))  # validated; the measure is order-fixed
    weights = _weights_from_spec(obj.get("weights"), len(universe))
    patterns_obj = obj.get("patterns")
    if not isinstance(patterns_obj, dict) or not patterns_obj:
        raise BadParameter("'patterns' must be a nonempty object")
    if any(map(_LONE_SURROGATE.search, (*universe, *patterns_obj))):
        raise BadParameter("labels must be text a report can print, not lone surrogates")
    if "unknown" not in obj:
        raise BadParameter("'unknown' is required")
    patterns = [
        (label, _at(label, Ifs.from_json, {"universe": universe, "values": row}))
        for label, row in patterns_obj.items()
    ]
    unknown = _at("unknown", Ifs.from_json, {"universe": universe, "values": obj["unknown"]})
    result = classify(unknown, patterns, weights, policy)
    if args.format == "json":
        ranking = [[label, round(sim, 4)] for label, sim in result.ranking]
        report = {"similarities": dict(ranking), "ranking": ranking, "winner": result.winner}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sims = result.similarities
        for label, _ in patterns:
            print(f"{label}\t{sims[label]:.4f}")
        print(f"winner: {result.winner}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifvkit",
        description="Ordered algebra of intuitionistic and q-rung orthopair fuzzy values.",
    )
    parser.add_argument("--eps", type=float, help="override the comparison tolerance")
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="compare two values under a linear order")
    p.add_argument("a", help="first value as 'mu,nu'")
    p.add_argument("b", help="second value as 'mu,nu'")
    p.add_argument("--order", choices=["xy", "zx"], default="xy")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("negate", help="strong negation of a value")
    p.add_argument("a", help="value as 'mu,nu'")
    p.add_argument("--order", choices=["xy", "zx"], default="xy")
    p.set_defaults(func=_cmd_negate)

    p = sub.add_parser("transport", help="move a value across the rung bijection")
    p.add_argument("a", help="value as 'mu,nu'")
    p.add_argument("--q", type=float, required=True, help="rung (>= 1)")
    p.add_argument("--direction", choices=["to-ifv", "to-qrofn"], required=True)
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("aggregate", help="weighted aggregation of a JSON value list")
    p.add_argument("file", help="JSON file with 'values' and optional 'weights'")
    p.add_argument("--op", choices=["ifwa", "ifwg", "qrofwa", "qrofwg"], required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("lattice", help="infimum/supremum of a JSON value list")
    p.add_argument("file", help="JSON file with 'values'")
    p.add_argument("--op", choices=["inf", "sup"], required=True)
    p.add_argument("--order", choices=["xy", "zx"], default="xy")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("classify", help="pattern recognition over a JSON request")
    p.add_argument("file", help="classification request JSON file")
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the schema-error code
        return int(exc.code or 0)
    try:
        args.policy = DEFAULT_POLICY if args.eps is None else NumericPolicy(eps_order=args.eps)
        return args.func(args)
    except IfvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_SCHEMA)


if __name__ == "__main__":
    sys.exit(main())
