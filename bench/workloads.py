"""The benchmark's workloads: fixed, seeded lists of operations.

Each builder takes a seeded ``random.Random``, a tracer (``NullTracer``
for untraced runs) and the freshly imported ``wellfounded`` package, and
returns a list of ``Op``.  Sizes are fixed; the seed chooses contents
(pool members, list values, walk seeds, notations), so every seed costs
about the same.  Checks compare the plain data inside results with
``oracles``; a round-trip property compares the two library values by
equality.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import oracles


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the result is right


def expect(value, wanted, label="result") -> Optional[str]:
    return None if value == wanted else f"{label} {value!r}, expected {wanted!r}"


def census_step(T, rel, pool):
    """Recurse on every pool element below ``x``: exponentially many calls
    on few distinct arguments, the case a memo would serve."""
    decide = rel.decide

    def step(x, rec):
        total = 1
        for y in pool:
            evidence = decide(y, x)
            if evidence is not None:
                total += rec(y, evidence)
        return total

    return T.step(step)


def fib_step(T, W):
    decide = W.nat_less_decide

    def step(n, rec):
        if n < 2:
            return n
        return rec(n - 1, decide(n - 1, n)) + rec(n - 2, decide(n - 2, n))

    return T.step(step)


def chain_base(T, W, labels):
    """Immediate-successor relation along ``labels``, with enumeration; its
    callbacks belong to the benchmark so the closure's use of them counts."""
    position = {label: index for index, label in enumerate(labels)}

    def decide(lower, upper):
        return W.EQUAL if position[lower] + 1 == position[upper] else None

    def predecessors(upper):
        index = position[upper]
        return ((labels[index - 1], W.EQUAL),) if index else ()

    base = W.WFRelation(
        carrier="chain",
        decide=T.callback("bench.base", decide),
        predecessors=T.callback("bench.base", predecessors, "combinators.closure.base_pred_calls"),
    )
    return T.relation(base, "core"), position


def tree_ok(tree, height) -> Optional[str]:
    # the rank tree of n under < has one branch per m < n, in order
    nodes, stack = 0, [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        labels = tuple(branch.label for branch in node.branches)
        if labels != tuple(range(node.label)):
            return f"node {node.label} has branches {labels}"
        stack.extend(node.branches)
    return expect(nodes, 2 ** height, "node count")


def build_recurse(rng: random.Random, T, W) -> list:
    nat = W.nat_less()
    ops = []

    def add_census(kind, rel, pool, top, below):
        expected = oracles.census(pool, below, top)
        step = census_step(T, rel, pool)
        ops.append(Op(kind, lambda: W.wfrec(rel, step, top), lambda r: expect(r, expected)))

    fib = fib_step(T, W)
    for n in (15, 16, 17, 16, 15):
        ops.append(
            Op("fib-generic", lambda n=n: W.wfrec(nat, fib, n), lambda r, n=n: expect(r, oracles.fib(n)))
        )

    for _ in range(5):
        labels = rng.sample(range(1000), 11)
        base, position = chain_base(T, W, labels)
        pool = rng.sample(labels, len(labels))
        add_census(
            "census-closure", W.transitive_closure(base), pool, labels[-1],
            lambda y, x, p=position: p[y] < p[x],
        )

        pairs = rng.sample(list(itertools.product(range(5), repeat=2)), 11)
        add_census("census-lex", W.lex_product(nat, nat), pairs, max(pairs), lambda y, x: y < x)

        lefts, rights = rng.sample(range(20), 6), rng.sample(range(20), 5)
        summands = [W.Inl(v) for v in lefts] + [W.Inr(v) for v in rights]
        key = lambda z: (0 if isinstance(z, W.Inl) else 1, z.value)
        add_census(
            "census-sum", W.disjoint_sum(nat, nat), summands, W.Inr(max(rights)),
            lambda y, x: key(y) < key(x),
        )

        divisors = [d for d in range(1, 73) if 72 % d == 0]
        divides = W.subrelation(
            nat,
            embed=lambda low, up, _e: W.nat_less_decide(low, up),
            sub_decide=lambda low, up: W.EQUAL if low != up and up % low == 0 else None,
            carrier="properly-divides",
        )
        add_census(
            "census-subrelation", divides, rng.sample(divisors, len(divisors)), 72,
            lambda y, x: y != x and x % y == 0,
        )

        lists = [tuple(rng.randrange(100) for _ in range(size)) for size in range(11)]
        add_census(
            "census-inverse-image", W.inverse_image(nat, len), rng.sample(lists, len(lists)),
            lists[-1], lambda y, x: len(y) < len(x),
        )

        # seeded labels on a fixed shape, so the census is the same size
        # for every seed
        digits = sorted(rng.sample(range(6), 4), reverse=True)
        combos = [c for size in range(3) for c in itertools.combinations(digits, size)]
        descending = [W.descending(nat, c) for c in rng.sample(combos, len(combos))]
        top = max(descending, key=lambda d: oracles.binary_rank(d.elements))
        add_census(
            "census-pow", W.pow_relation(nat), descending, top,
            lambda y, x: oracles.binary_rank(y.elements) < oracles.binary_rank(x.elements),
        )

        digits = rng.sample(range(6), 3)
        bags = [c for size in range(3) for c in itertools.combinations_with_replacement(digits, size)]
        multisets = {W.multiset_of(nat, bag): bag for bag in rng.sample(bags, len(bags))}
        pool = list(multisets)
        top = max(pool, key=lambda m: oracles.multiset_key(multisets[m]))
        add_census(
            "census-multiset", W.multiset_relation(nat), pool, top,
            lambda y, x, m=multisets: oracles.multiset_less(m[y], m[x]),
        )

        ops.append(Op("predecessor-tree", lambda: W.predecessor_tree(nat, 9), lambda t: tree_ok(t, 9)))

        ops.append(
            Op(
                "recursion-equation",
                lambda: W.check_recursion_equation(nat, fib, range(14)),
                lambda report: expect((report.ok, report.total), (True, 14)),
            )
        )

        table = {n: oracles.fib(n) for n in range(13)}
        wrong = dict(table)
        wrong[rng.randrange(2, 13)] += 1
        ops.append(
            Op(
                "unique-solution",
                lambda table=table, wrong=wrong: (
                    W.check_unique_solution(nat, fib, table, range(13)),
                    W.check_unique_solution(nat, fib, wrong, range(13)),
                ),
                lambda r: expect(r, (True, False), "accept, reject"),
            )
        )
    return ops


def build_programs(rng: random.Random, T, W) -> list:
    # The 12 nat_less descents straddle the median, with the 24 cheaper
    # fib and fold operations below them and 22 dearer ones above; the
    # second ackermann(3, 3) holds the tail rank under the eight sorted
    # and reversed sorts and the two ackermann(2, 50) calls.
    nat = W.nat_less()
    ops = []
    le = T.callback("bench.le", lambda b, a: b <= a, "demos.quicksort.le_calls")

    def add_sort(kind, values):
        values = tuple(values)
        ops.append(
            Op(kind, lambda: W.quicksort(le, values), lambda r: expect(r, tuple(sorted(values))))
        )

    for _ in range(8):
        add_sort("quicksort-random", (rng.randrange(1000) for _ in range(300)))
    for _ in range(4):
        ordered = sorted(rng.sample(range(10**6), 200))
        add_sort("quicksort-sorted", ordered)
        add_sort("quicksort-reversed", reversed(ordered))

    for _ in range(12):
        ops.append(Op("fib-course-of-values", lambda: W.fib(200), lambda r: expect(r, oracles.fib(200))))

    for m, n in ((1, 250), (2, 50), (3, 3)) * 2:
        ops.append(
            Op(
                "ackermann", lambda m=m, n=n: W.ackermann(m, n),
                lambda r, m=m, n=n: expect(r, oracles.ackermann(m, n)),
            )
        )

    decide = W.nat_less_decide
    for _ in range(12):
        weights = [rng.randrange(1000) for _ in range(1001)]

        def chain(n, rec, weights=weights):
            return 0 if n == 0 else weights[n] + rec(n - 1, decide(n - 1, n))

        step = T.step(chain)
        ops.append(
            Op(
                "nat-chain", lambda step=step: W.wfrec(nat, step, 1000),
                lambda r, weights=weights: expect(r, sum(weights[1:])),
            )
        )

    numeral = W.encode_nat(200)
    for _ in range(12):
        a, b, c0 = rng.randrange(1, 997), rng.randrange(997), rng.randrange(997)

        def affine(_label, _branches, values, a=a, b=b, c0=c0):
            return c0 if not values else (a * values[0] + b) % 997

        expected = c0
        for _ in range(200):
            expected = (a * expected + b) % 997
        fold = T.callback("bench.fold", affine)
        ops.append(
            Op("wtree-fold", lambda fold=fold: W.tree_fold(fold, numeral), lambda r, e=expected: expect(r, e))
        )
    return ops


def ordinal_rep(notation) -> tuple:
    """Read a library notation into the oracle's nested tuples."""
    return tuple((ordinal_rep(exponent), count) for exponent, count in notation.terms)


def multiset_items(m) -> tuple:
    return tuple(key for key, count in m.entries for _ in range(count))


def descends(chain, key) -> Optional[str]:
    keys = [key(element) for element in chain]
    for above, below in zip(keys, keys[1:]):
        if not below < above:
            return f"{below!r} does not lie below {above!r}"
    return None


def build_decide(rng: random.Random, T, W) -> list:
    # The 16 to_nested batches straddle the median, so op_p50_ms reads the
    # ordinal layer; the cheap decide batches sit below it and the
    # enumerations and searches above.  Twelve nat_less_decide calls, whose
    # cost no seed changes, hold the tail rank.
    from wellfounded import checks

    nat = W.nat_less()
    ops = []

    def batch(kind, call, pairs, expected):
        ops.append(
            Op(kind, lambda: [call(a, b) for a, b in pairs], lambda r: expect(r, expected, "verdicts"))
        )

    lex = W.lex_product(nat, nat)
    stepped = W.stepped_lex(nat)
    power = W.pow_relation(nat)
    multisets = W.multiset_relation(nat)
    nested = W.nested_multiset_relation(W.empty_relation("unit"), max_depth=10)

    def descending_list(bound):
        size = rng.randrange(1, 6)
        return W.descending(nat, sorted(rng.sample(range(bound), size), reverse=True))

    for _ in range(4):
        pairs = [tuple(tuple(rng.randrange(8) for _ in range(2)) for _ in range(2)) for _ in range(16)]
        batch("lex-decide", lambda a, b: lex.decide(a, b) is not None, pairs, [a < b for a, b in pairs])

        lists = [(descending_list(10), descending_list(10)) for _ in range(16)]
        batch(
            "pow-decide", lambda a, b: power.decide(a, b) is not None, lists,
            [oracles.binary_rank(a.elements) < oracles.binary_rank(b.elements) for a, b in lists],
        )

        tuples = [tuple(rng.randrange(3) for _ in range(rng.randrange(4))) for _ in range(32)]
        tuple_pairs = list(zip(tuples[::2], tuples[1::2]))
        batch(
            "stepped-decide", lambda a, b: stepped.decide(a, b) is not None,
            [(W.stepped(*a), W.stepped(*b)) for a, b in tuple_pairs],
            [(len(a), a) < (len(b), b) for a, b in tuple_pairs],
        )

        bags = [tuple(rng.randrange(6) for _ in range(6)) for _ in range(32)]
        bag_pairs = list(zip(bags[::2], bags[1::2]))
        built = [(W.multiset_of(nat, a), W.multiset_of(nat, b)) for a, b in bag_pairs]
        expected = [oracles.multiset_less(a, b) for a, b in bag_pairs]
        batch("multiset-decide", lambda a, b: multisets.decide(a, b) is not None, built, expected)

    for _ in range(8):
        notations = [oracles.shaped_ordinal(rng) for _ in range(16)]
        texts = [oracles.format_ordinal(o) for o in notations]

        def parse_all(texts=texts):
            parsed = [W.parse_ordinal(text) for text in texts]
            return parsed, [W.parse_ordinal(W.format_ordinal(x)) for x in parsed]

        def parsed_ok(result, notations=notations):
            parsed, again = result
            return expect([ordinal_rep(x) for x in parsed], notations, "notations") or expect(
                again, parsed, "parse(format(x))"
            )

        ops.append(Op("ordinal-parse", parse_all, parsed_ok))

        library = [W.parse_ordinal(text) for text in texts]
        pairs = [(a, b) for a in library[:8] for b in library[8:]]
        batch(
            "ordinal-compare", lambda a, b: W.compare(a, b).value, pairs,
            [oracles.ordinal_verdict(ordinal_rep(a), ordinal_rep(b)) for a, b in pairs],
        )

        more = [W.parse_ordinal(oracles.format_ordinal(oracles.shaped_ordinal(rng))) for _ in range(16)]
        for notations in (library, more):

            def round_trip(notations=notations):
                return [W.from_nested(W.to_nested(x)) for x in notations]

            ops.append(
                Op("ordinal-to-nested", round_trip, lambda r, n=notations: expect(r, n, "round trip"))
            )

    for _ in range(12):
        m = rng.randrange(1000)
        n = m + 8000

        def links(evidence, m=m, n=n):
            count = 0
            while evidence.rest is not None:
                count, evidence = count + 1, evidence.rest
            return expect(count, n - m - 1, "chain wrappers")

        ops.append(Op("nat-less-decide", lambda m=m, n=n: W.nat_less_decide(m, n), links))

    for _ in range(4):
        labels = rng.sample(range(10**6), 350)
        base, _position = chain_base(T, W, labels)
        closure = W.transitive_closure(base)
        ops.append(
            Op(
                "closure-decide",
                lambda c=closure, lo=labels[0], hi=labels[-1]: (c.decide(lo, hi), c.decide(hi, lo)),
                lambda r, labels=labels: expect(
                    (tuple(r[0].nodes), len(r[0].links), r[1]), (tuple(labels), 349, None), "chain"
                ),
            )
        )

        upper = W.descending(nat, [7] + sorted(rng.sample(range(7), 3), reverse=True))
        rank = oracles.binary_rank(upper.elements)

        def below_upper(found, rank=rank):
            ranks = {oracles.binary_rank(element.elements) for element, _e in found}
            return expect((len(found), len(ranks), max(ranks)), (rank, rank, rank - 1), "count, distinct, top")

        ops.append(Op("pow-predecessors", lambda u=upper: power.predecessors(u), below_upper))

        items = [rng.randrange(8) for _ in range(30)]
        ops.append(
            Op(
                "multiset-of", lambda items=items: W.multiset_of(nat, items),
                lambda m, items=items: expect(m.entries, oracles.multiset_entries(items), "entries"),
            )
        )

        notations = [oracles.shaped_ordinal(rng) for _ in range(16)]
        library = [W.parse_ordinal(oracles.format_ordinal(o)) for o in notations]
        views = [W.to_nested(x) for x in library]
        batch(
            "nested-decide", lambda a, b: nested.decide(a, b) is not None,
            list(zip(views[::2], views[1::2])),
            [a < b for a, b in zip(notations[::2], notations[1::2])],
        )

    # every pair of two-element bags over 0..2, dealt into four seeded
    # batches: the replacement search costs the same in total for any seed
    two_bags = list(itertools.combinations_with_replacement(range(3), 2))
    all_pairs = [(a, b) for a in two_bags for b in two_bags]
    rng.shuffle(all_pairs)
    for quarter in range(4):
        small = all_pairs[quarter::4]
        built = [(W.multiset_of(nat, a), W.multiset_of(nat, b)) for a, b in small]
        batch(
            "dm-oracle", lambda a, b: W.dm_oracle(a, b, nat), built,
            [oracles.multiset_less(a, b) for a, b in small],
        )

    walks = {
        "nat": (lambda: 40, lambda x: x, 0),
        "pow-nat": (
            lambda: W.descending(nat, [5] + sorted(rng.sample(range(5), 2), reverse=True)),
            lambda d: oracles.binary_rank(d.elements), 0,
        ),
        "multiset-nat": (
            lambda: W.multiset_of(nat, (2, 1)),
            lambda m: oracles.multiset_key(multiset_items(m)), (),
        ),
        "ord": (lambda: W.parse_ordinal("w^2*2 + w*3 + 4"), ordinal_rep, oracles.ZERO),
    }
    for name, (make_start, key, bottom) in walks.items():
        order = checks.named_descent_order(name)
        relation = T.counting_predecessors(order.relation, "core.fuzz_descent.preds")
        for _ in range(2):
            start, walk_seed = make_start(), rng.randrange(10**6)

            def walked(chain, key=key, bottom=bottom, start=start):
                return (
                    expect(chain[0], start, "first element")
                    or descends(chain, key)
                    or expect(key(chain[-1]), bottom, "last element")
                )

            ops.append(
                Op(
                    "fuzz-" + name,
                    lambda r=relation, s=start, w=walk_seed: W.fuzz_descent(r, s, seed=w),
                    walked,
                )
            )
    return ops


def run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def build_cli(rng: random.Random, T, W) -> list:
    from wellfounded import cli

    ops = []

    def add(kind, argv, check_payload):
        command = argv[0]

        def run(argv=("--json",) + tuple(argv)):
            return T.call("cli." + command, run_cli, cli.main, list(argv))

        def check(result):
            code, text = result
            if code != 0:
                return f"exit code {code}: {text.strip()}"
            return check_payload(json.loads(text))

        ops.append(Op(kind, run, check))

    def nat_list(items):
        return ",".join(str(x) for x in items)

    # 120 cheap commands hold the median well inside their group.  Twelve
    # `check` runs, each far slower than any other command, hold the tail
    # rank, so checks.run_all and the pow_relation decisions and walks it
    # makes move op_tail_ms.
    for _ in range(40):
        a, b = oracles.shaped_ordinal(rng), oracles.shaped_ordinal(rng)
        add(
            "ord-compare", ["ord", "compare", oracles.format_ordinal(a), oracles.format_ordinal(b)],
            lambda p, v=oracles.ordinal_verdict(a, b): expect(p, {"result": v}),
        )
        c, d = oracles.shaped_ordinal(rng), oracles.shaped_ordinal(rng)
        text = oracles.format_ordinal(c) + " + " + oracles.format_ordinal(d)
        add(
            "ord-normalize", ["ord", "normalize", text],
            lambda p, t=oracles.format_ordinal(oracles.parse_ordinal(text)): expect(p, {"result": t}),
        )
        lists = [sorted(rng.sample(range(10), 4), reverse=True) for _ in range(2)]
        ranks = [oracles.binary_rank(x) for x in lists]
        verdict = "LT" if ranks[0] < ranks[1] else "GT" if ranks[0] > ranks[1] else "EQ"
        add(
            "pow-compare", ["pow", "compare", nat_list(lists[0]), nat_list(lists[1])],
            lambda p, v=verdict: expect(p, {"result": v}),
        )

    def walk_check(read, key, bottom):
        def check(payload):
            chain = [read(text) for text in payload["chain"]]
            return (
                expect(payload["length"], len(chain), "length")
                or descends(chain, key)
                or expect(key(chain[-1]), bottom, "last element")
            )

        return check

    def read_list(text):
        return () if text == "(empty)" else tuple(int(x) for x in text.split(","))

    for _ in range(2):
        seed = str(rng.randrange(10**6))
        add("chain-nat", ["chain", "nat", "30", "--seed", seed], walk_check(int, lambda x: x, 0))
        start = nat_list([5] + sorted(rng.sample(range(5), 2), reverse=True))
        add("chain-pow-nat", ["chain", "pow-nat", start, "--seed", seed],
            walk_check(read_list, oracles.binary_rank, 0))
        add("chain-multiset-nat", ["chain", "multiset-nat", "3,1", "--seed", seed],
            walk_check(read_list, oracles.multiset_key, ()))
        add("chain-ord", ["chain", "ord", "w^2*2 + w*3 + 4", "--seed", seed],
            walk_check(oracles.parse_ordinal, lambda o: o, oracles.ZERO))
    for _ in range(4):
        values = [rng.randrange(1000) for _ in range(150)]
        add("demo-quicksort", ["demo", "quicksort", nat_list(values)],
            lambda p, v=values: expect(p, {"result": nat_list(sorted(v))}))
    for _ in range(2):
        add("demo-ackermann", ["demo", "ackermann", "2", "30"],
            lambda p: expect(p, {"result": oracles.ackermann(2, 30)}))
        add("demo-fib", ["demo", "fib", "150"], lambda p: expect(p, {"result": oracles.fib(150)}))

    def battery(payload):
        bad = [r["name"] for r in payload["results"] if not r["ok"]]
        return expect((payload["ok"], len(payload["results"]), bad), (True, 11, []), "ok, entries, failing")

    for _ in range(12):
        add("check", ["check", "--seed", str(rng.randrange(10**6))], battery)
    return ops


BUILDERS = {
    "recurse": build_recurse,
    "programs": build_programs,
    "decide": build_decide,
    "cli": build_cli,
}

# modules each workload imports during set-up
MODULES = {
    "recurse": ("wellfounded",),
    "programs": ("wellfounded",),
    "decide": ("wellfounded", "wellfounded.checks"),
    "cli": ("wellfounded", "wellfounded.cli"),
}
