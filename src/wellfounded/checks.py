"""Desk-scale property battery and the named descent orders.

``run_all`` exercises every construction against its independent oracle:
naive comparators for the composite orders, breadth-first reachability for
the closure, the binary rank for descending lists, replacement search for
multisets, and coefficient vectors for small ordinals.  The CLI ``check``
subcommand prints one line per entry and fails if any check does.

The named orders (``nat``, ``pow-nat``, ``multiset-nat``, ``ord``) bundle a
relation with a start-value parser and a conservative descent bound for
seeded random descending walks.  The multiset and ordinal orders have
infinitely many predecessors, so their walks draw from documented bounded
enumerations instead; every enumerated element is verified smaller, which
keeps the walks strictly descending.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    EQUAL,
    WFRelation,
    check_recursion_equation,
    check_unique_solution,
    empty_relation,
    fuzz_descent,
    nat_less,
    nat_less_decide,
    with_enumerated_predecessors,
)
from .combinators import (
    Inl,
    Inr,
    disjoint_sum,
    inverse_image,
    lex_product,
    refl_trans_reachable,
    subrelation,
    transitive_closure,
)
from .power import descending, pow_nat_rank, pow_relation
from .wtree import (
    WTree,
    check_tree_embedding,
    encode_nat,
    wtree_relation,
)
from .derived import (
    Multiset,
    dm_oracle,
    multiset_elements,
    multiset_of,
    multiset_relation,
    nested_multiset_relation,
    stepped,
    stepped_lex,
)
from . import ordinal as ord_mod
from .ordinal import (
    OrdinalNotation,
    Ordering,
    ZERO_ORD,
    compare,
    format_ordinal,
    from_nested,
    parse_ordinal,
    to_nested,
)
from .demos import ackermann, fib, quicksort


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, fn: Callable[[], Optional[str]]) -> CheckResult:
    try:
        problem = fn()
    except Exception as error:  # a crashing check is a failing check
        return CheckResult(name, False, f"{type(error).__name__}: {error}")
    return CheckResult(name, problem is None, problem or "")


# ---------------------------------------------------------------------------
# Small sample carriers and steps.

def _census_step(rel: WFRelation, pool, first_only: bool = False):
    # recurse on every strictly smaller pool element, or on the first one
    pool = tuple(pool)

    def step(x, rec):
        total = 1
        for candidate in pool:
            evidence = rel.decide(candidate, x)
            if evidence is not None:
                total += rec(candidate, evidence)
                if first_only:
                    break
        return total

    return step


def _all_descending_lists(bound: int):
    nat = nat_less()
    lists = []
    for size in range(bound + 1):
        for combo in itertools.combinations(range(bound - 1, -1, -1), size):
            lists.append(descending(nat, combo))
    return lists


def _all_multisets(carrier, max_size: int):
    nat = nat_less()
    out = []
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(carrier, size):
            out.append(multiset_of(nat, combo))
    return out


def _random_dag(rng: random.Random, size: int) -> WFRelation:
    edges = {
        (low, high)
        for low in range(size)
        for high in range(low + 1, size)
        if rng.random() < 0.4
    }

    def decide(lower, upper):
        return EQUAL if (lower, upper) in edges else None

    rel = WFRelation(carrier=f"dag{size}", decide=decide)
    return with_enumerated_predecessors(rel, range(size))


def random_notation(rng: random.Random, depth: int) -> OrdinalNotation:
    """A seeded random notation with exponents nested up to ``depth``."""
    if depth == 0 or rng.random() < 0.3:
        return ord_mod.from_nat(rng.randrange(0, 4))
    exponents: list = []
    for _ in range(rng.randrange(1, 4)):
        candidate = random_notation(rng, depth - 1)
        if all(compare(candidate, seen) is not Ordering.EQ for seen in exponents):
            exponents.append(candidate)
    exponents.sort(reverse=True)
    return OrdinalNotation(
        tuple((exponent, rng.randrange(1, 4)) for exponent in exponents)
    )


# ---------------------------------------------------------------------------
# Individual checks.

def _check_strictness(seed: int) -> Optional[str]:
    nat = nat_less()
    relations = [
        (nat, [(a, b) for a in range(8) for b in range(8)]),
        (
            lex_product(nat, nat),
            [((a, b), (c, d)) for a in range(3) for b in range(3) for c in range(3) for d in range(3)],
        ),
        (
            pow_relation(nat),
            [(a, b) for a in _all_descending_lists(3) for b in _all_descending_lists(3)],
        ),
    ]
    for rel, pairs in relations:
        for lower, upper in pairs:
            below = rel.decide(lower, upper) is not None
            above = rel.decide(upper, lower) is not None
            if lower == upper and below:
                return f"{rel.carrier}: reflexive at {lower!r}"
            if below and above:
                return f"{rel.carrier}: symmetric on {lower!r}, {upper!r}"
    return None


def _check_recursion_equations(seed: int) -> Optional[str]:
    nat = nat_less()
    suite = []

    suite.append(("nat-linear", nat, _census_step(nat, range(30), True), range(31)))
    fib_step = lambda n, rec: n if n < 2 else (
        rec(n - 1, nat_less_decide(n - 1, n)) + rec(n - 2, nat_less_decide(n - 2, n))
    )
    suite.append(("nat-fib", nat, fib_step, range(15)))

    divides = subrelation(
        nat,
        embed=lambda low, up, _e: nat_less_decide(low, up),
        sub_decide=lambda low, up: (
            EQUAL if low != up and low >= 1 and up % low == 0 else None
        ),
        carrier="properly-divides",
    )
    suite.append(("divides", divides, _census_step(divides, range(1, 13)), range(1, 13)))

    lists = [tuple(bits) for size in range(4) for bits in itertools.product((0, 1), repeat=size)]
    by_length = inverse_image(nat, len, carrier="len")
    suite.append(("inverse-image", by_length, _census_step(by_length, lists[:8]), lists))

    closure = transitive_closure(
        WFRelation(
            carrier="imm",
            decide=lambda low, up: EQUAL if low + 1 == up else None,
            predecessors=lambda up: ((up - 1, EQUAL),) if up > 0 else (),
        )
    )
    suite.append(("closure", closure, _census_step(closure, range(10)), range(11)))

    total = disjoint_sum(nat, nat)
    sum_pool = [Inl(i) for i in range(5)] + [Inr(i) for i in range(5)]
    suite.append(("sum", total, _census_step(total, sum_pool), sum_pool))

    pairs = lex_product(nat, nat)
    grid = [(a, b) for a in range(3) for b in range(3)]
    suite.append(("lex", pairs, _census_step(pairs, grid), grid))

    lists3 = _all_descending_lists(3)
    power = pow_relation(nat)
    suite.append(("power", power, _census_step(power, lists3), lists3))

    trees = wtree_relation()
    shapes = [encode_nat(3)] + [
        WTree(i, tuple(encode_nat(j) for j in range(i))) for i in range(3)
    ]
    height = lambda w, rec: 1 + max(
        (rec(b, trees.decide(b, w)) for b in w.branches), default=0
    )
    suite.append(("wtree", trees, height, shapes))

    tuples = [stepped(*c) for size in range(3) for c in itertools.product(range(3), repeat=size)]
    stepped_rel = stepped_lex(nat)
    suite.append(("stepped", stepped_rel, _census_step(stepped_rel, tuples, True), tuples))

    msets = _all_multisets(range(3), 2)
    mrel = multiset_relation(nat)
    suite.append(("multiset", mrel, _census_step(mrel, msets, True), msets))

    for name, rel, step, samples in suite:
        report = check_recursion_equation(rel, step, samples)
        if not report.ok:
            return f"{name}: {len(report.failures)} recursion-equation failures"
    return None


def _check_uniqueness(seed: int) -> Optional[str]:
    nat = nat_less()
    fib_step = lambda n, rec: n if n < 2 else (
        rec(n - 1, nat_less_decide(n - 1, n)) + rec(n - 2, nat_less_decide(n - 2, n))
    )
    table = {n: fib(n) for n in range(12)}
    if not check_unique_solution(nat, fib_step, table, range(12)):
        return "oracle fibonacci table rejected"
    wrong = dict(table)
    wrong[7] += 1
    if check_unique_solution(nat, fib_step, wrong, range(12)):
        return "perturbed table accepted"
    return None


def _check_closure_reachability(seed: int) -> Optional[str]:
    rng = random.Random(seed)
    for _ in range(8):
        rel = _random_dag(rng, 7)
        closed = transitive_closure(rel)
        for low in range(7):
            for up in range(7):
                direct = closed.decide(low, up) is not None
                expected = low != up and refl_trans_reachable(rel, low, up)
                if direct != expected:
                    return f"closure mismatch on {low} -> {up}"
    return None


def _check_naive_comparators(seed: int) -> Optional[str]:
    nat = nat_less()
    summed = disjoint_sum(nat, nat)
    pool = [Inl(i) for i in range(4)] + [Inr(i) for i in range(4)]
    for lower in pool:
        for upper in pool:
            naive = (
                isinstance(lower, Inl)
                and isinstance(upper, Inl)
                and lower.value < upper.value
                or isinstance(lower, Inl)
                and isinstance(upper, Inr)
                or isinstance(lower, Inr)
                and isinstance(upper, Inr)
                and lower.value < upper.value
            )
            if (summed.decide(lower, upper) is not None) != naive:
                return f"sum comparator differs at {lower!r}, {upper!r}"
    pairs = lex_product(nat, nat)
    for lower in itertools.product(range(5), repeat=2):
        for upper in itertools.product(range(5), repeat=2):
            naive = lower[0] < upper[0] or (lower[0] == upper[0] and lower[1] < upper[1])
            if (pairs.decide(lower, upper) is not None) != naive:
                return f"lex comparator differs at {lower!r}, {upper!r}"
    stepped_rel = stepped_lex(nat)
    tuples = [stepped(*c) for size in range(4) for c in itertools.product(range(3), repeat=size)]
    for lower in tuples:
        for upper in tuples:
            naive = (lower.arity, lower.components) < (upper.arity, upper.components)
            if (stepped_rel.decide(lower, upper) is not None) != naive:
                return f"stepped comparator differs at {lower!r}, {upper!r}"
    return None


def _check_power_rank(seed: int) -> Optional[str]:
    power = pow_relation(nat_less())
    lists = _all_descending_lists(4)
    for lower in lists:
        for upper in lists:
            if (power.decide(lower, upper) is not None) != (
                pow_nat_rank(lower) < pow_nat_rank(upper)
            ):
                return f"rank mismatch on {lower!r}, {upper!r}"
    return None


def _check_multiset_oracle(seed: int) -> Optional[str]:
    nat = nat_less()
    mrel = multiset_relation(nat)
    msets = _all_multisets(range(3), 2)
    for lower in msets:
        for upper in msets:
            if (mrel.decide(lower, upper) is not None) != dm_oracle(lower, upper, nat):
                return f"multiset mismatch on {lower!r}, {upper!r}"
    return None


def _check_tree_characterization(seed: int) -> Optional[str]:
    nat = nat_less()
    report = check_tree_embedding(nat, range(5))
    if not report.ok:
        return "rank trees disagree with < on 0..4"
    closure = transitive_closure(wtree_relation())
    for low in range(6):
        for up in range(6):
            if (closure.decide(encode_nat(low), encode_nat(up)) is not None) != (low < up):
                return f"numeral subtree closure differs at {low}, {up}"
    return None


def _check_ordinals(seed: int) -> Optional[str]:
    rng = random.Random(seed)
    unit_rel = empty_relation("unit")
    nested = nested_multiset_relation(unit_rel, max_depth=10)
    for _ in range(100):
        a = random_notation(rng, 3)
        b = random_notation(rng, 3)
        if from_nested(to_nested(a)) != a:
            return f"round trip failed on {format_ordinal(a)}"
        direct = compare(a, b) is Ordering.LT
        via_nested = nested.decide(to_nested(a), to_nested(b)) is not None
        if direct != via_nested:
            return f"nested comparison differs on {format_ordinal(a)} vs {format_ordinal(b)}"
    for text in ("w^2*3 + w + 5", "1 + w", "w + w", "0", "w^(w+1)*2"):
        if parse_ordinal(format_ordinal(parse_ordinal(text))) != parse_ordinal(text):
            return f"print/parse round trip failed on {text!r}"
    return None


def _check_programs(seed: int) -> Optional[str]:
    rng = random.Random(seed)
    for _ in range(100):
        values = [rng.randrange(100) for _ in range(rng.randrange(30))]
        if quicksort(lambda a, b: a <= b, values) != tuple(sorted(values)):
            return f"quicksort differs on {values!r}"
    oracle = [0, 1]
    while len(oracle) < 25:
        oracle.append(oracle[-1] + oracle[-2])
    if any(fib(n) != oracle[n] for n in range(25)):
        return "fibonacci differs from the iterative oracle"

    def direct(m, n):
        if m == 0:
            return n + 1
        if n == 0:
            return direct(m - 1, 1)
        return direct(m - 1, direct(m, n - 1))

    for m in range(3):
        for n in range(4):
            if ackermann(m, n) != direct(m, n):
                return f"ackermann differs at {(m, n)}"
    return None


def _check_descents(seed: int) -> Optional[str]:
    for name in ("nat", "pow-nat", "multiset-nat", "ord"):
        order = named_descent_order(name)
        for offset in range(10):
            start = order.sample_starts[offset % len(order.sample_starts)]
            chain = fuzz_descent(order.relation, start, max_steps=10000, seed=seed + offset)
            bound = order.descent_bound(start)
            if bound is not None and len(chain) > bound:
                return f"{name}: chain of {len(chain)} exceeds bound {bound}"
            for above, below in zip(chain, chain[1:]):
                if order.relation.decide(below, above) is None:
                    return f"{name}: non-descending step in chain"
    return None


_CHECKS = (
    ("strictness", _check_strictness),
    ("recursion-equations", _check_recursion_equations),
    ("uniqueness", _check_uniqueness),
    ("closure-reachability", _check_closure_reachability),
    ("naive-comparators", _check_naive_comparators),
    ("power-rank", _check_power_rank),
    ("multiset-oracle", _check_multiset_oracle),
    ("tree-characterization", _check_tree_characterization),
    ("ordinal-agreement", _check_ordinals),
    ("programs", _check_programs),
    ("descent-fuzzing", _check_descents),
)


def run_all(seed: int = 0) -> list:
    return [_result(name, lambda fn=fn: fn(seed)) for name, fn in _CHECKS]


# ---------------------------------------------------------------------------
# Named descent orders for the chain command.

@dataclass(frozen=True)
class NamedOrder:
    name: str
    relation: WFRelation
    parse_start: Callable[[str], object]
    describe: Callable[[object], str]
    descent_bound: Callable[[object], Optional[int]]
    sample_starts: tuple


def parse_nat_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as error:
        raise ValueError(f"expected comma-separated naturals: {text!r}") from error


_MULTISET_SIZE_CAP = 5


def _bounded_multiset_predecessors(upper: Multiset):
    # enumeration capped at total size 5 over the keys reachable below the
    # current maximum; complete only within that bound
    nat = nat_less()
    mrel = multiset_relation(nat)
    max_key = max((key for key, _count in upper.entries), default=0)
    found = []
    for size in range(_MULTISET_SIZE_CAP + 1):
        for combo in itertools.combinations_with_replacement(range(max_key + 1), size):
            candidate = multiset_of(nat, combo)
            evidence = mrel.decide(candidate, upper)
            if evidence is not None:
                found.append((candidate, evidence))
    return tuple(found)


def _capped_multiset_count(max_key: int) -> int:
    universe = max_key + 1
    total = 0
    for size in range(_MULTISET_SIZE_CAP + 1):
        total += len(list(itertools.combinations_with_replacement(range(universe), size)))
    return total


def _bounded_ordinal_predecessors(upper: OrdinalNotation, nested: bool = False):
    # walks must stay well inside the step budget, so the last exponent is
    # only ever lowered by a single drop or decrement, keeping every chain
    # a few hundred steps at most
    candidates: list = []

    def note(candidate: OrdinalNotation):
        if compare(candidate, upper) is Ordering.LT and all(
            candidate != seen for seen in candidates
        ):
            candidates.append(candidate)

    terms = upper.terms
    if not terms:
        return ()
    head, last = terms[:-1], terms[-1]
    exponent, coefficient = last
    note(OrdinalNotation(head))
    if coefficient > 1:
        note(OrdinalNotation(head + ((exponent, coefficient - 1),)))
    if exponent != ZERO_ORD and not nested:
        trimmed = head + ((exponent, coefficient - 1),) if coefficient > 1 else head
        lower_exponents = [
            low for low, _e in _bounded_ordinal_predecessors(exponent, nested=True)
        ]
        for lower_exponent in lower_exponents:
            for repeat in (1, 2, 3):
                note(ord_mod.normalize(trimmed + ((lower_exponent, repeat),)))
    return tuple((candidate, EQUAL) for candidate in sorted(candidates, reverse=True))


def named_descent_order(name: str) -> NamedOrder:
    nat = nat_less()
    if name == "nat":
        return NamedOrder(
            name="nat",
            relation=nat,
            parse_start=lambda text: int(text),
            describe=str,
            descent_bound=lambda start: start + 1,
            sample_starts=(9, 17, 30),
        )
    if name == "pow-nat":
        power = pow_relation(nat)

        def parse_start(text):
            return descending(nat, parse_nat_list(text))

        return NamedOrder(
            name="pow-nat",
            relation=power,
            parse_start=parse_start,
            describe=lambda dl: ",".join(str(e) for e in dl.elements) or "(empty)",
            descent_bound=lambda dl: pow_nat_rank(dl) + 1,
            sample_starts=(
                descending(nat, (3, 1, 0)),
                descending(nat, (4, 2)),
                descending(nat, (2, 1, 0)),
            ),
        )
    if name == "multiset-nat":
        mrel = multiset_relation(nat)
        bounded = WFRelation(
            carrier="multiset(nat), bounded walk",
            decide=mrel.decide,
            predecessors=_bounded_multiset_predecessors,
            recursor=mrel.wfrec,
        )

        def parse_multiset(text):
            return multiset_of(nat, parse_nat_list(text))

        def bound(start: Multiset):
            max_key = max((key for key, _c in start.entries), default=0)
            return _capped_multiset_count(max_key) + 1

        return NamedOrder(
            name="multiset-nat",
            relation=bounded,
            parse_start=parse_multiset,
            describe=lambda m: ",".join(str(e) for e in multiset_elements(m)) or "(empty)",
            descent_bound=bound,
            sample_starts=(
                multiset_of(nat, (2, 1)),
                multiset_of(nat, (3,)),
                multiset_of(nat, (2, 2, 0)),
            ),
        )
    if name == "ord":
        ord_rel = WFRelation(
            carrier="ordinal notations, bounded walk",
            decide=lambda low, up: EQUAL if compare(low, up) is Ordering.LT else None,
            predecessors=_bounded_ordinal_predecessors,
        )
        return NamedOrder(
            name="ord",
            relation=ord_rel,
            parse_start=parse_ordinal,
            describe=format_ordinal,
            descent_bound=lambda _start: None,
            sample_starts=(
                parse_ordinal("w*2+1"),
                parse_ordinal("w^2"),
                parse_ordinal("w^w"),
            ),
        )
    raise ValueError(f"unknown order {name!r}; pick nat, pow-nat, multiset-nat, or ord")
