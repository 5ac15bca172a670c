"""Command-line front end.

Subcommands wrap the library directly: ``ord`` for notation comparison and
normalization, ``pow`` for descending-list comparison, ``chain`` for seeded
descending walks, ``demo`` for the worked programs, and ``check`` for the
property battery.  Exit codes: 0 success, 1 property or budget failure,
2 parse error, 3 invariant violation in input data.  ``--json`` switches
every subcommand to a single JSON object on stdout; the environment
variable ``WFREC_DEPTH`` overrides the recursion depth budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    EvidenceError,
    IncomparableError,
    WellFoundedError,
    fuzz_descent,
    nat_less,
)
from .power import descending, pow_relation
from .checks import named_descent_order, parse_nat, parse_nat_list, run_all
from .demos import ackermann, fib, quicksort
from .ordinal import ParseError, compare, format_ordinal, parse_ordinal

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _fail(args, message: str, code: int) -> int:
    if args.json:
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_ord(args) -> int:
    try:
        if args.action == "compare":
            left = parse_ordinal(args.left, depth_limit=args.depth_limit)
            right = parse_ordinal(args.right, depth_limit=args.depth_limit)
            outcome = compare(left, right).value
            _emit(args, {"result": outcome}, outcome)
        else:
            canonical = format_ordinal(
                parse_ordinal(args.left, depth_limit=args.depth_limit)
            )
            _emit(args, {"result": canonical}, canonical)
    except ParseError as error:
        return _fail(args, str(error), EXIT_PARSE)
    except RecursionError:  # nesting that --depth-limit allows but the stack does not
        return _fail(args, "notation nested too deeply for the Python stack", EXIT_FAILURE)
    return EXIT_OK


def _cmd_pow(args) -> int:
    nat = nat_less()
    power = pow_relation(nat)
    try:
        first = parse_nat_list(args.left)
        second = parse_nat_list(args.right)
    except ValueError as error:
        return _fail(args, str(error), EXIT_PARSE)
    try:
        lower = descending(nat, first)
        upper = descending(nat, second)
    except EvidenceError as error:
        return _fail(args, str(error), EXIT_INVARIANT)
    if lower == upper:
        outcome = "EQ"
    elif power.decide(lower, upper) is not None:
        outcome = "LT"
    elif power.decide(upper, lower) is not None:
        outcome = "GT"
    else:
        outcome = "INCOMPARABLE"
    _emit(args, {"result": outcome}, outcome)
    return EXIT_OK


def _cmd_chain(args) -> int:
    if args.max_steps < 1:
        return _fail(args, f"--max-steps must be at least 1: {args.max_steps}", EXIT_PARSE)
    try:
        order = named_descent_order(args.order)
    except ValueError as error:
        return _fail(args, str(error), EXIT_PARSE)
    try:
        start = order.parse_start(args.start)
    except (ParseError, ValueError) as error:
        return _fail(args, str(error), EXIT_PARSE)
    except (EvidenceError, IncomparableError) as error:
        return _fail(args, str(error), EXIT_INVARIANT)
    chain = fuzz_descent(
        order.relation, start, max_steps=args.max_steps, seed=args.seed
    )
    described = [order.describe(element) for element in chain]
    _emit(
        args,
        {"chain": described, "length": len(chain)},
        "\n".join(described) + f"\nlength {len(chain)}",
    )
    return EXIT_OK


def _cmd_demo(args) -> int:
    try:
        if args.program == "quicksort":
            values = parse_nat_list(args.values[0])
            result = ",".join(
                str(v) for v in quicksort(lambda a, b: a <= b, values)
            )
            _emit(args, {"result": result}, result)
        elif args.program == "ackermann":
            m, n = (parse_nat(v) for v in args.values)
            value = ackermann(m, n)
            _emit(args, {"result": value}, str(value))
        else:
            value = fib(parse_nat(args.values[0]))
            _emit(args, {"result": value}, str(value))
    except (ValueError, IndexError) as error:
        return _fail(args, f"bad demo arguments: {error}", EXIT_PARSE)
    return EXIT_OK


def _cmd_check(args) -> int:
    results = run_all(seed=args.seed)
    all_ok = all(result.ok for result in results)
    if args.json:
        payload = {
            "ok": all_ok,
            "results": [
                {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
            ],
        }
        print(json.dumps(payload))
    else:
        for result in results:
            mark = "ok " if result.ok else "FAIL"
            suffix = f": {result.detail}" if result.detail else ""
            print(f"{mark} {result.name}{suffix}")
    return EXIT_OK if all_ok else EXIT_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wf",
        description="well-founded orders: compare, normalize, walk, demo, check",
        epilog="WFREC_DEPTH in the environment overrides the recursion budget",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    parser.add_argument(
        "--depth-limit", type=int, default=64, help="ordinal parser nesting limit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ord_cmd = commands.add_parser("ord", help="ordinal notations")
    ord_actions = ord_cmd.add_subparsers(dest="action", required=True)
    ord_compare = ord_actions.add_parser("compare", help="print LT, EQ, or GT")
    ord_compare.add_argument("left")
    ord_compare.add_argument("right")
    ord_normalize = ord_actions.add_parser("normalize", help="print canonical form")
    ord_normalize.add_argument("left")

    pow_cmd = commands.add_parser("pow", help="descending nat lists")
    pow_actions = pow_cmd.add_subparsers(dest="action", required=True)
    pow_compare = pow_actions.add_parser("compare", help="print LT, EQ, or GT")
    pow_compare.add_argument("left")
    pow_compare.add_argument("right")

    chain_cmd = commands.add_parser("chain", help="seeded descending walk")
    chain_cmd.add_argument(
        "order", choices=("nat", "pow-nat", "multiset-nat", "ord")
    )
    chain_cmd.add_argument("start")
    chain_cmd.add_argument("--seed", type=int, default=0, help="walk seed")
    chain_cmd.add_argument(
        "--max-steps", type=int, default=10000, help="descent step budget"
    )

    demo_cmd = commands.add_parser("demo", help="worked programs")
    demo_cmd.add_argument("program", choices=("quicksort", "ackermann", "fib"))
    demo_cmd.add_argument("values", nargs="+")

    check_cmd = commands.add_parser("check", help="run the property battery")
    check_cmd.add_argument("--seed", type=int, default=0, help="battery seed")
    return parser


_HANDLERS = {
    "ord": _cmd_ord,
    "pow": _cmd_pow,
    "chain": _cmd_chain,
    "demo": _cmd_demo,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except WellFoundedError as error:
        return _fail(args, str(error), EXIT_FAILURE)


if __name__ == "__main__":
    sys.exit(main())
