"""Command-line front end.

Subcommands wrap the library directly: ``ord`` for notation comparison and
normalization, ``pow`` for descending-list comparison, ``chain`` for seeded
descending walks, ``demo`` for the worked programs, and ``check`` for the
property battery.  Handlers catch nothing: ``main`` maps each exception to
an exit code by its class.  3: ``EvidenceError`` or ``IncomparableError``
(input that violates an invariant); 1: any other ``WellFoundedError`` or a
``RecursionError`` (a budget failure), as for a failed ``check``; 2: a
``ValueError`` (a parse error, or input too large to read or print under
the interpreter's digit limit).  ``--json`` switches every subcommand to a
single JSON object on stdout; the environment variable ``WFREC_DEPTH``
overrides the recursion depth budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import EvidenceError, IncomparableError, WellFoundedError, fuzz_descent
from .checks import run_all
from .demos import ackermann, fib, quicksort
from .ordinal import compare, format_ordinal, parse_ordinal
from .orders import ORDER_NAMES, named_descent_order, parse_nat, parse_nat_list

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _emit(args, payload: dict, text: object) -> None:
    try:
        line = json.dumps(payload) if args.json else str(text)
    except ValueError:  # str() refuses integers past the interpreter's digit limit
        raise ValueError("cannot print a result past the interpreter's digit limit") from None
    print(line)


def _fail(args, message: str, code: int) -> int:
    if args.json:
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_ord(args) -> int:
    left = parse_ordinal(args.left, depth_limit=args.depth_limit)
    if args.action == "compare":
        right = parse_ordinal(args.right, depth_limit=args.depth_limit)
        outcome = compare(left, right).value
    else:
        outcome = format_ordinal(left)
    _emit(args, {"result": outcome}, outcome)
    return EXIT_OK


def _cmd_pow(args) -> int:
    order = named_descent_order("pow-nat")
    lower = order.parse_start(args.left)
    upper = order.parse_start(args.right)
    if lower == upper:
        outcome = "EQ"
    else:  # the list order over < is total
        outcome = "LT" if order.relation.decide(lower, upper) is not None else "GT"
    _emit(args, {"result": outcome}, outcome)
    return EXIT_OK


def _cmd_chain(args) -> int:
    if args.max_steps < 1:
        raise ValueError(f"--max-steps must be at least 1: {args.max_steps}")
    order = named_descent_order(args.order)
    if args.order == "ord":
        start = parse_ordinal(args.start, depth_limit=args.depth_limit)
    else:
        start = order.parse_start(args.start)
    chain = fuzz_descent(order.relation, start, max_steps=args.max_steps, seed=args.seed)
    described = [order.describe(element) for element in chain]
    _emit(
        args,
        {"chain": described, "length": len(chain)},
        "\n".join(described) + f"\nlength {len(chain)}",
    )
    return EXIT_OK


def _cmd_demo(args) -> int:
    count = 2 if args.program == "ackermann" else 1
    if len(args.values) != count:
        takes = "1 value" if count == 1 else f"{count} values"
        raise ValueError(f"demo {args.program} takes {takes}, got {len(args.values)}")
    if args.program == "quicksort":
        values = quicksort(lambda a, b: a <= b, parse_nat_list(args.values[0]))
        value = ",".join(str(v) for v in values)
    elif args.program == "ackermann":
        m, n = (parse_nat(v) for v in args.values)
        value = ackermann(m, n)
    else:
        value = fib(parse_nat(args.values[0]))
    _emit(args, {"result": value}, value)
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
    chain_cmd.add_argument("order", choices=ORDER_NAMES)
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
    except (EvidenceError, IncomparableError) as error:
        return _fail(args, str(error), EXIT_INVARIANT)
    except (WellFoundedError, RecursionError) as error:
        return _fail(args, str(error), EXIT_FAILURE)
    except ValueError as error:  # ParseError too
        return _fail(args, str(error), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
