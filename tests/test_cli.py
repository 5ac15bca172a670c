import json
import sys

import pytest

from wellfounded.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestOrdCommands:
    def test_compare(self, capsys):
        code, out, _ = run(capsys, "ord", "compare", "w", "w^w")
        assert (code, out) == (0, "LT")

    def test_compare_json(self, capsys):
        code, out, _ = run(capsys, "--json", "ord", "compare", "w", "w^w")
        assert code == 0 and json.loads(out) == {"result": "LT"}

    def test_normalize_absorbs(self, capsys):
        code, out, _ = run(capsys, "ord", "normalize", "1+w")
        assert (code, out) == (0, "w")

    def test_syntax_error_exits_two(self, capsys):
        code, _out, err = run(capsys, "ord", "compare", "w^", "w")
        assert code == 2 and "position" in err

    def test_syntax_error_json(self, capsys):
        code, out, _ = run(capsys, "--json", "ord", "normalize", "w^")
        assert code == 2 and "error" in json.loads(out)

    def test_depth_limit_flag(self, capsys):
        deep = "w^" + "(w^" * 8 + "w" + ")" * 8
        code, _out, err = run(capsys, "--depth-limit", "3", "ord", "normalize", deep)
        assert code == 2


class TestPowCommands:
    def test_spec_pair(self, capsys):
        code, out, _ = run(capsys, "pow", "compare", "1,0", "2")
        assert (code, out) == (0, "LT")

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "pow", "compare", "2", "2")
        assert (code, out) == (0, "EQ")

    def test_greater(self, capsys):
        code, out, _ = run(capsys, "pow", "compare", "3,0", "2,1")
        assert (code, out) == (0, "GT")

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "pow", "compare", "1,0", "2")
        assert code == 0 and json.loads(out) == {"result": "LT"}

    def test_long_common_prefix(self, capsys):
        # a 2999-element common prefix under the interpreter's default limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, _ = run(
                capsys,
                "--json",
                "pow",
                "compare",
                ",".join(str(v) for v in range(2999, -1, -1)),
                ",".join(str(v) for v in range(2999, 0, -1)),
            )
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0 and json.loads(out) == {"result": "GT"}

    def test_not_descending_exits_three(self, capsys):
        code, _out, err = run(capsys, "pow", "compare", "1,1", "2")
        assert code == 3 and "descending" in err

    def test_malformed_list_exits_two(self, capsys):
        code, _out, _err = run(capsys, "pow", "compare", "a,b", "2")
        assert code == 2


class TestChainCommand:
    def test_nat_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "nat", "9")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "9" and lines[-1].startswith("length")
        assert int(lines[-1].split()[1]) <= 10

    def test_pow_chain_json(self, capsys):
        code, out, _ = run(capsys, "--json", "chain", "pow-nat", "3,1,0", "--seed", "7")
        payload = json.loads(out)
        assert code == 0
        assert payload["length"] <= 2 ** 4
        assert payload["chain"][0] == "3,1,0"

    def test_budget_exhaustion_exits_one(self, capsys):
        code, _out, err = run(capsys, "chain", "nat", "5", "--max-steps", "2")
        assert code == 1 and "5" in err

    def test_same_seed_same_chain(self, capsys):
        _code, first, _ = run(capsys, "chain", "multiset-nat", "2,1", "--seed", "3")
        _code, second, _ = run(capsys, "chain", "multiset-nat", "2,1", "--seed", "3")
        assert first == second

    def test_different_seeds_may_differ(self, capsys):
        outs = set()
        for seed in range(6):
            _code, out, _ = run(capsys, "chain", "nat", "20", "--seed", str(seed))
            outs.add(out)
        assert len(outs) > 1

    def test_ord_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "ord", "w*2+1", "--seed", "1")
        assert code == 0
        assert out.splitlines()[0] == "w*2 + 1"

    def test_bad_start_exits_two(self, capsys):
        code, _out, _err = run(capsys, "chain", "nat", "zebra")
        assert code == 2


class TestDemoCommand:
    def test_quicksort(self, capsys):
        code, out, _ = run(capsys, "demo", "quicksort", "2,1,3,1")
        assert (code, out) == (0, "1,1,2,3")

    def test_ackermann(self, capsys):
        code, out, _ = run(capsys, "demo", "ackermann", "2", "3")
        assert (code, out) == (0, "9")

    def test_fib(self, capsys):
        code, out, _ = run(capsys, "demo", "fib", "10")
        assert (code, out) == (0, "55")

    def test_demo_json(self, capsys):
        code, out, _ = run(capsys, "--json", "demo", "fib", "10")
        assert code == 0 and json.loads(out) == {"result": 55}

    def test_bad_arguments_exit_two(self, capsys):
        code, _out, _err = run(capsys, "demo", "fib", "ten")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("demo", "fib", "5000"),
            ("demo", "quicksort", ",".join(str(v) for v in range(2100))),
        ],
        ids=["fib", "sorted-quicksort"],
    )
    def test_depth_budget_exits_one_with_json_error(self, capsys, argv):
        code, out, err = run(capsys, "--json", *argv)
        assert code == 1
        assert list(json.loads(out)) == ["error"]
        assert "Traceback" not in out + err


class TestCheckCommand:
    def test_passes_and_prints_one_line_per_suite(self, capsys):
        code, out, _ = run(capsys, "check")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) >= 10
        assert all(line.startswith("ok ") for line in lines)

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "--json", "check", "--seed", "1")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert {"name", "ok", "detail"} <= set(payload["results"][0])


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("pow", "compare", "--", "-1", "0"), 2),
        (("demo", "quicksort", "--", "-3,1"), 2),
        (("demo", "fib", "-3"), 2),
        (("demo", "ackermann", "--", "-1", "0"), 2),
        (("chain", "nat", "--", "-5"), 2),
        (("chain", "multiset-nat", "--", "-1,2"), 2),
        (("chain", "nat", "5", "--max-steps", "0"), 2),
        (("chain", "pow-nat", "1,3"), 3),
    ],
    ids=[
        "pow-negative",
        "quicksort-negative",
        "fib-negative",
        "ackermann-negative",
        "nat-chain-negative",
        "multiset-chain-negative",
        "zero-max-steps",
        "pow-chain-not-descending",
    ],
)
def test_inputs_outside_the_carriers_are_json_errors(capsys, argv, expected):
    code, out, _err = run(capsys, "--json", *argv)
    assert code == expected
    assert list(json.loads(out)) == ["error"]


BIG = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("ord", "normalize", BIG),
        ("ord", "compare", BIG, "w"),
        ("chain", "nat", BIG),
        ("chain", "pow-nat", BIG + ",1"),
        ("chain", "multiset-nat", BIG),
        ("demo", "fib", BIG),
        ("demo", "ackermann", BIG, "1"),
        ("pow", "compare", BIG, "1"),
        ("--depth-limit", "100000", "ord", "normalize", "w^(" * 400 + "w" + ")" * 400),
        ("--depth-limit", "100000", "ord", "normalize", "w^(" * 2000 + "w" + ")" * 2000),
    ],
    ids=[
        "ord-normalize-digits",
        "ord-compare-digits",
        "nat-chain-digits",
        "pow-chain-digits",
        "multiset-chain-digits",
        "fib-digits",
        "ackermann-digits",
        "pow-compare-digits",
        "ord-nesting-400",
        "ord-nesting-2000",
    ],
)
def test_huge_numerals_and_deep_nesting_keep_the_json_contract(capsys, argv):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(capsys, "--json", *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1, 2, 3)
    payload = json.loads(out)  # exactly one JSON value, or this raises
    assert isinstance(payload, dict) and ("error" in payload) == (code != 0)
    for stream in (out, err):
        assert "Traceback" not in stream and "set_int_max_str_digits" not in stream


# outputs of `wf --json` captured before the chain walk became a loop
SEEDED_CHAINS = {
    ("nat", "30", 0): (
        '{"chain": ["30", "27", "12", "6", "0"], "length": 5}'
    ),
    ("nat", "30", 1): (
        '{"chain": ["30", "4", "0"], "length": 3}'
    ),
    ("nat", "30", 2): (
        '{"chain": ["30", "27", "1", "0"], "length": 4}'
    ),
    ("pow-nat", "5,3,1,0", 0): (
        '{"chain": ["5,3,1,0", "2,1", "1", "(empty)"], "length": 4}'
    ),
    ("pow-nat", "5,3,1,0", 1): (
        '{"chain": ["5,3,1,0", "5,2", "5,1,0", "3,2,1", "3", "2,1,0", '
        '"0", "(empty)"], "length": 8}'
    ),
    ("pow-nat", "5,3,1,0", 2): (
        '{"chain": ["5,3,1,0", "5,3,1", "5,1,0", "1,0", "1", '
        '"(empty)"], "length": 6}'
    ),
    ("multiset-nat", "3,1", 0): (
        '{"chain": ["3,1", "2,2,2,2,0", "2,1,0,0", "1,1,0,0,0", '
        '"0,0,0", "(empty)"], "length": 6}'
    ),
    ("multiset-nat", "3,1", 1): (
        '{"chain": ["3,1", "3,0", "0,0,0,0,0", "(empty)"], '
        '"length": 4}'
    ),
    ("multiset-nat", "3,1", 2): (
        '{"chain": ["3,1", "1,1,1,1,1", "0", "(empty)"], "length": 4}'
    ),
    ("ord", "w^2*2+w*3+4", 0): (
        '{"chain": ["w^2*2 + w*3 + 4", "w^2*2 + w*3", "w^2*2 + w*2", '
        '"w^2*2 + w + 3", "w^2*2 + w", "w^2*2", "w^2", "0"], '
        '"length": 8}'
    ),
    ("ord", "w^2*2+w*3+4", 1): (
        '{"chain": ["w^2*2 + w*3 + 4", "w^2*2 + w*3 + 3", '
        '"w^2*2 + w*3 + 2", "w^2*2 + w*3", "w^2*2 + w*2 + 3", '
        '"w^2*2 + w*2", "w^2*2 + w", "w^2*2", "w^2", "0"], '
        '"length": 10}'
    ),
    ("ord", "w^2*2+w*3+4", 2): (
        '{"chain": ["w^2*2 + w*3 + 4", "w^2*2 + w*3 + 3", '
        '"w^2*2 + w*3 + 2", "w^2*2 + w*3 + 1", "w^2*2 + w*3", '
        '"w^2*2 + w*2 + 2", "w^2*2 + w*2", "w^2*2 + w + 1", '
        '"w^2*2 + w", "w^2*2 + 3", "w^2*2 + 2", "w^2*2", "w^2", "0"], '
        '"length": 14}'
    ),
}
CHECK_OUTPUT = (
    '{"ok": true, "results": [{"name": "strictness", "ok": true, "detail": ""}, {'
    '"name": "recursion-equations", "ok": true, "detail": ""}, {'
    '"name": "uniqueness", "ok": true, "detail": ""}, {'
    '"name": "closure-reachability", "ok": true, "detail": ""}, {'
    '"name": "naive-comparators", "ok": true, "detail": ""}, {'
    '"name": "power-rank", "ok": true, "detail": ""}, {'
    '"name": "multiset-oracle", "ok": true, "detail": ""}, {'
    '"name": "tree-characterization", "ok": true, "detail": ""}, {'
    '"name": "ordinal-agreement", "ok": true, "detail": ""}, {'
    '"name": "programs", "ok": true, "detail": ""}, {'
    '"name": "descent-fuzzing", "ok": true, "detail": ""}]}'
)


@pytest.mark.parametrize("order, start, seed", sorted(SEEDED_CHAINS))
def test_seeded_chain_output_is_pinned(capsys, order, start, seed):
    code, out, _ = run(capsys, "--json", "chain", order, start, "--seed", str(seed))
    assert (code, out) == (0, SEEDED_CHAINS[order, start, seed])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_output_is_pinned(capsys, seed):
    code, out, _ = run(capsys, "--json", "check", "--seed", str(seed))
    assert (code, out) == (0, CHECK_OUTPUT)
