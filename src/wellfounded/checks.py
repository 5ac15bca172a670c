"""The property battery, its generators and oracles, and the named descent orders.

``PROPERTIES`` is the battery: one entry ``(name, check, small, full)`` per
property, each checking the constructions against an independent oracle --
naive comparators for the composite orders, a reachability search over
the edge set for the closure, the binary rank for descending lists,
replacement search for multisets, nested multisets and coefficient vectors
for ordinals, and plain recursive definitions for the worked programs.
``check(seed, **sizes)`` returns ``None`` or a description of the first
failure.  ``small`` and ``full`` are the sizes: ``run_all(seed)`` runs every
entry at ``small`` for the CLI ``check`` subcommand, and the acceptance
tests run every entry at ``full``, which also pins the seed of the
acceptance criterion the entry reproduces.  The generators, steps and
oracles below are public so that the tests draw their samples from the same
code.

The named orders (``nat``, ``pow-nat``, ``multiset-nat``, ``ord``) bundle a
relation with a start-value parser and a conservative descent bound for
seeded random descending walks.  The multiset and ordinal orders have
infinitely many predecessors, so their walks draw from documented bounded
enumerations instead; every enumerated element is verified smaller, which
keeps the walks strictly descending.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
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
    lex_family,
    lex_product,
    subrelation,
    transitive_closure,
)
from .power import descending, pow_nat_rank, pow_relation
from .wtree import (
    WTree,
    check_tree_embedding,
    encode_nat,
    leaf,
    wtree_relation,
)
from .derived import (
    Multiset,
    dm_oracle,
    finfun_exp,
    finite_function,
    multiset_elements,
    multiset_of,
    multiset_relation,
    nested_multiset_relation,
    nm_atom,
    nm_empty,
    nm_singleton,
    nm_union,
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
from .demos import ackermann, append, fib, filter_list, quicksort


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
# Sample generators.

def all_descending_lists(bound: int) -> list:
    """Every strictly descending list over ``0..bound-1``: ``2**bound`` lists."""
    nat = nat_less()
    lists = []
    for size in range(bound + 1):
        for combo in itertools.combinations(range(bound - 1, -1, -1), size):
            lists.append(descending(nat, combo))
    return lists


def all_multisets(carrier, max_size: int) -> list:
    """Every multiset over ``carrier`` with at most ``max_size`` elements."""
    nat = nat_less()
    out = []
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(carrier, size):
            out.append(multiset_of(nat, combo))
    return out


def random_dag(rng: random.Random, size: int, density: float = 0.4):
    """A seeded random relation on ``0..size-1`` with edges only upward,
    with enumerated predecessors; returns ``(relation, edges)``."""
    edges = {
        (low, high)
        for low in range(size)
        for high in range(low + 1, size)
        if rng.random() < density
    }
    rel = WFRelation(
        carrier=f"dag{size}",
        decide=lambda low, up: EQUAL if (low, up) in edges else None,
    )
    return with_enumerated_predecessors(rel, range(size)), edges


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


def properly_divides() -> WFRelation:
    """Proper divisibility on the positive naturals, a subrelation of ``<``."""
    return subrelation(
        nat_less(),
        embed=lambda low, up, _e: nat_less_decide(low, up),
        sub_decide=lambda low, up: (
            EQUAL if low >= 1 and low != up and up % low == 0 else None
        ),
        carrier="properly-divides",
    )


def _random_tree(rng: random.Random, depth: int) -> WTree:
    if depth == 0 or rng.random() < 0.3:
        return leaf(rng.randrange(5))
    return WTree(
        rng.randrange(5),
        tuple(_random_tree(rng, depth - 1) for _ in range(rng.randrange(1, 4))),
    )


# ---------------------------------------------------------------------------
# Recursion steps.

def census_step(rel: WFRelation, pool):
    """Full fan-out: one plus the values at every pool element below."""
    pool = tuple(pool)

    def step(x, rec):
        total = 1
        for other in pool:
            evidence = rel.decide(other, x)
            if evidence is not None:
                total += rec(other, evidence)
        return total

    return step


def descending_chain_step(rel: WFRelation, pool):
    """Linear depth: one plus the value at the first pool element below, or 0."""
    pool = tuple(pool)

    def step(x, rec):
        for candidate in pool:
            evidence = rel.decide(candidate, x)
            if evidence is not None:
                return 1 + rec(candidate, evidence)
        return 0

    return step


def sorted_descending(rel: WFRelation, pool) -> tuple:
    """``pool`` ordered by falling count of pool elements below each one, so
    that ``descending_chain_step`` meets an immediate predecessor first."""
    pool = list(pool)
    ranked = sorted(
        pool, key=lambda x: sum(1 for y in pool if rel.decide(y, x) is not None)
    )
    return tuple(reversed(ranked))


def fib_step(n, rec):
    """Course-of-values Fibonacci over ``<``."""
    if n < 2:
        return n
    return rec(n - 1, nat_less_decide(n - 1, n)) + rec(n - 2, nat_less_decide(n - 2, n))


# ---------------------------------------------------------------------------
# Oracles.

def iterative_fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def direct_ackermann(m: int, n: int) -> int:
    if m == 0:
        return n + 1
    if n == 0:
        return direct_ackermann(m - 1, 1)
    return direct_ackermann(m - 1, direct_ackermann(m, n - 1))


def edge_reachable(edges, lower, upper) -> bool:
    """True iff a path of one or more ``(low, high)`` edges leads from
    ``lower`` up to ``upper``: a search over the edge set alone."""
    frontier, seen = [upper], set()
    while frontier:
        node = frontier.pop()
        for low, high in edges:
            if high == node and low not in seen:
                seen.add(low)
                frontier.append(low)
    return lower in seen


def _holds(rel: WFRelation):
    # the verdict of a decision procedure, without its evidence
    return lambda lower, upper: rel.decide(lower, upper) is not None


def _disagreement(label: str, pool, got, expected) -> Optional[str]:
    # every ordered pair of the pool, the diagonal included
    pool = tuple(pool)
    for lower in pool:
        for upper in pool:
            if got(lower, upper) != expected(lower, upper):
                return f"{label} differs from its oracle at {lower!r}, {upper!r}"
    return None


# ---------------------------------------------------------------------------
# The properties.

def _check_strictness(seed: int) -> Optional[str]:
    nat = nat_less()
    relations = [
        (nat, range(8)),
        (lex_product(nat, nat), itertools.product(range(3), repeat=2)),
        (pow_relation(nat), all_descending_lists(3)),
    ]
    for rel, pool in relations:
        pool = tuple(pool)
        for lower in pool:
            for upper in pool:
                below = rel.decide(lower, upper) is not None
                if below and lower == upper:
                    return f"{rel.carrier}: reflexive at {lower!r}"
                if below and rel.decide(upper, lower) is not None:
                    return f"{rel.carrier}: symmetric on {lower!r}, {upper!r}"
    return None


def _nested_pool(nat: WFRelation) -> list:
    atom0, atom1 = nm_atom(0), nm_atom(1)
    return [
        atom0,
        atom1,
        nm_empty(),
        nm_singleton(atom0),
        nm_singleton(atom1),
        nm_union(nat, nm_singleton(atom0), nm_singleton(atom0)),
        nm_union(nat, nm_singleton(atom1), nm_singleton(atom0)),
        nm_singleton(nm_singleton(atom0)),
        nm_singleton(nm_singleton(atom1)),
        nm_union(nat, nm_singleton(nm_singleton(atom0)), nm_singleton(atom1)),
        nm_singleton(nm_empty()),
        nm_singleton(nm_union(nat, nm_singleton(atom1), nm_singleton(atom0))),
    ]


# One suite per construction.  The sizes: the top of the ``<`` chain, the
# bound of the divisibility carrier, bit lists shorter than ``bits``, the
# closure census's pool, the summands on each side, the width of the lex,
# lex-family, power and stepped carriers, the random trees and numerals, the
# values of the finite functions, the multiset size, and a prefix of the
# nested multisets.
def _check_recursion_equations(
    seed, chain, divisors, bits, closure, summands, grid, trees, numerals, values,
    multisets, nested,
) -> Optional[str]:
    nat = nat_less()
    chain_step = descending_chain_step(nat, range(chain, -1, -1))
    suite = [
        ("nat <", nat, chain_step, range(chain + 1)),
        ("fibonacci", nat, fib_step, range(21)),
    ]

    divides = properly_divides()
    divisor_pool = range(1, divisors)
    suite.append(
        ("subrelation", divides, census_step(divides, divisor_pool), divisor_pool)
    )

    bit_lists = [
        tuple(combo)
        for size in range(bits)
        for combo in itertools.product((0, 1), repeat=size)
    ]
    by_length = inverse_image(nat, len, carrier="len")
    pool = bit_lists[: 2 ** (bits - 1)]
    suite.append(("inverse image", by_length, census_step(by_length, pool), bit_lists))

    imm = transitive_closure(
        WFRelation(
            carrier="imm",
            decide=lambda low, up: EQUAL if low + 1 == up else None,
            predecessors=lambda up: ((up - 1, EQUAL),) if up > 0 else (),
        )
    )
    imm_step = census_step(imm, range(closure))
    suite.append(("transitive closure", imm, imm_step, range(closure + 1)))

    summed = disjoint_sum(nat, nat)
    sum_pool = [Inl(i) for i in range(summands)] + [Inr(i) for i in range(summands)]
    suite.append(("disjoint sum", summed, census_step(summed, sum_pool), sum_pool))

    pairs = lex_product(nat, nat)

    def pascal_step(z, rec):
        a, b = z
        total = 1
        if a > 0:
            total += rec((a - 1, b), pairs.decide((a - 1, b), z))
        if b > 0:
            total += rec((a, b - 1), pairs.decide((a, b - 1), z))
        return total

    squares = list(itertools.product(range(grid), repeat=2))
    suite.append(("lex product", pairs, pascal_step, squares))

    dependent = lex_family(nat, lambda _x: nat)
    triangle = [(x, y) for x in range(grid) for y in range(x + 1)]
    suite.append(("lex family", dependent, census_step(dependent, triangle), triangle))

    power = pow_relation(nat)
    lists = all_descending_lists(grid)
    suite.append(("power", power, census_step(power, lists), lists))

    rng = random.Random(seed)
    tree_pool = [_random_tree(rng, 4) for _ in range(trees)]
    tree_pool += [encode_nat(n) for n in range(numerals)]
    subtree = wtree_relation()
    height_step = lambda w, rec: 1 + max(
        (rec(b, subtree.decide(b, w)) for b in w.branches), default=0
    )
    suite.append(("wtree", subtree, height_step, tree_pool))

    stepped_rel = stepped_lex(nat)
    tuples = [
        stepped(*combo)
        for size in range(3)
        for combo in itertools.product(range(grid), repeat=size)
    ]
    finfun = finfun_exp(nat, nat)
    functions = [
        finite_function(nat, list(zip(keys, image)))
        for keys in ((), (0,), (1,), (1, 0))
        for image in itertools.product(range(values), repeat=len(keys))
    ]
    for label, rel, samples in (
        ("stepped lex", stepped_rel, tuples),
        ("finfun exp", finfun, functions),
        ("multiset", multiset_relation(nat), all_multisets(range(3), multisets)),
        (
            "nested multiset",
            nested_multiset_relation(nat, max_depth=5),
            _nested_pool(nat)[:nested],
        ),
    ):
        step = descending_chain_step(rel, sorted_descending(rel, samples))
        suite.append((label, rel, step, samples))

    for label, rel, step, samples in suite:
        report = check_recursion_equation(rel, step, samples)
        if not report.ok:
            return f"{label}: {len(report.failures)} recursion-equation failures"
    return None


def _check_uniqueness(seed: int, points: int) -> Optional[str]:
    nat = nat_less()
    carrier = range(points)
    table = {n: iterative_fib(n) for n in carrier}
    if not check_unique_solution(nat, fib_step, table, carrier):
        return "the Fibonacci table is rejected"
    for point in carrier:
        perturbed = dict(table)
        perturbed[point] += 1
        if check_unique_solution(nat, fib_step, perturbed, carrier):
            return f"a table perturbed at {point} is accepted"
    return None


def _check_closure_reachability(
    seed: int, relations: int, sizes: tuple
) -> Optional[str]:
    rng = random.Random(seed)
    for _ in range(relations):
        size = rng.randrange(*sizes)
        rel, edges = random_dag(rng, size)
        problem = _disagreement(
            f"closure of {sorted(edges)}",
            range(size),
            _holds(transitive_closure(rel)),
            lambda low, up: edge_reachable(edges, low, up),
        )
        if problem:
            return problem
    return None


def _check_naive_comparators(seed: int) -> Optional[str]:
    nat = nat_less()
    sum_pool = [Inl(i) for i in range(4)] + [Inr(i) for i in range(4)]
    tuples = [
        stepped(*combo)
        for size in range(4)
        for combo in itertools.product(range(3), repeat=size)
    ]
    side = lambda x: (isinstance(x, Inr), x.value)  # Inl below Inr
    return (
        _disagreement(
            "sum",
            sum_pool,
            _holds(disjoint_sum(nat, nat)),
            lambda low, up: side(low) < side(up),
        )
        or _disagreement(
            "lex",
            itertools.product(range(5), repeat=2),
            _holds(lex_product(nat, nat)),
            lambda low, up: low < up,
        )
        or _disagreement(
            "stepped",
            tuples,
            _holds(stepped_lex(nat)),
            lambda low, up: (low.arity, low.components) < (up.arity, up.components),
        )
    )


def _check_power_rank(seed: int, bound: int) -> Optional[str]:
    lists = all_descending_lists(bound)
    if len(lists) != 2 ** bound:
        return f"{len(lists)} descending lists below {bound}, not {2 ** bound}"
    return _disagreement(
        "power",
        lists,
        _holds(pow_relation(nat_less())),
        lambda low, up: pow_nat_rank(low) < pow_nat_rank(up),
    )


def _check_multiset_oracle(seed: int, keys: int, size: int) -> Optional[str]:
    nat = nat_less()
    return _disagreement(
        "multiset",
        all_multisets(range(keys), size),
        _holds(multiset_relation(nat)),
        lambda low, up: dm_oracle(low, up, nat),
    )


def _check_tree_characterization(
    seed: int, nat: int, grid: int, dag: int, numerals: int
) -> Optional[str]:
    less = nat_less()
    squares = list(itertools.product(range(grid), repeat=2))
    lex = with_enumerated_predecessors(lex_product(less, less), squares)
    random_rel, _edges = random_dag(random.Random(seed), dag)
    for label, rel, elements in (
        ("<", less, range(nat)),
        ("lex", lex, squares),
        ("a random dag", random_rel, range(dag)),
    ):
        if not check_tree_embedding(rel, elements).ok:
            return f"rank trees disagree with {label}"
    trees = {encode_nat(n): n for n in range(numerals)}
    return _disagreement(
        "numeral subtree closure",
        trees,
        _holds(transitive_closure(wtree_relation())),
        lambda low, up: trees[low] < trees[up],
    )


def ordinal_disagreements(rng: random.Random, pairs: int, depth: int):
    """Compare random notation pairs directly and as nested multisets.

    Yields one line per failed round trip through ``to_nested`` and one per
    pair whose direct comparison disagrees with the nested-multiset order.
    """
    nested = nested_multiset_relation(empty_relation("unit"), max_depth=4 + 2 * depth)
    for _ in range(pairs):
        a = random_notation(rng, depth)
        b = random_notation(rng, depth)
        if from_nested(to_nested(a)) != a:
            yield f"round trip failed on {format_ordinal(a)}"
        direct = compare(a, b) is Ordering.LT
        via_nested = nested.decide(to_nested(a), to_nested(b)) is not None
        if direct != via_nested:
            yield f"nested comparison differs on {format_ordinal(a)} vs {format_ordinal(b)}"


def _check_ordinals(
    seed: int, pairs: int, coefficients: int, width: int
) -> Optional[str]:
    problem = next(ordinal_disagreements(random.Random(seed), pairs, 3), None)
    if problem:
        return problem
    # below w^width, a notation is its vector of coefficients
    vectors = {}
    exponents = [ord_mod.from_nat(e) for e in range(width - 1, -1, -1)]
    for vector in itertools.product(range(coefficients), repeat=width):
        terms = tuple((e, c) for e, c in zip(exponents, vector) if c)
        vectors[OrdinalNotation(terms)] = vector

    def vector_order(low, up):
        left, right = vectors[low], vectors[up]
        if left == right:
            return Ordering.EQ
        return Ordering.LT if left < right else Ordering.GT

    problem = _disagreement("compare", vectors, compare, vector_order)
    if problem:
        return problem
    for text in ("w^2*3 + w + 5", "1 + w", "w + w", "0", "w^(w+1)*2"):
        if parse_ordinal(format_ordinal(parse_ordinal(text))) != parse_ordinal(text):
            return f"print/parse round trip failed on {text!r}"
    return None


def _check_programs(
    seed: int, sorts: int, length: int, unfoldings: int, fibs: int, ackermanns: tuple
) -> Optional[str]:
    rng = random.Random(seed)
    le = lambda a, b: a <= b
    for _ in range(sorts):
        values = [rng.randrange(1000) for _ in range(rng.randrange(length))]
        if quicksort(le, values) != tuple(sorted(values)):
            return f"quicksort differs on {values!r}"
    if quicksort(le, ()) != ():
        return "quicksort of the empty list is not empty"
    for _ in range(unfoldings):
        items = tuple(rng.randrange(50) for _ in range(rng.randrange(1, 20)))
        head, tail = items[0], items[1:]
        front = filter_list(lambda b: le(b, head), tail)
        back = filter_list(lambda b: not le(b, head), tail)
        unfolded = append(quicksort(le, front), (head,) + quicksort(le, back))
        if quicksort(le, items) != unfolded:
            return f"quicksort does not unfold on {items!r}"
    if any(fib(n) != iterative_fib(n) for n in range(fibs)):
        return "fibonacci differs from the iterative oracle"
    m_bound, n_bound = ackermanns
    for m in range(m_bound):
        for n in range(n_bound):
            if ackermann(m, n) != direct_ackermann(m, n):
                return f"ackermann differs at {(m, n)}"
    return None


def _check_descents(seed: int, walks: int) -> Optional[str]:
    for name in ("nat", "pow-nat", "multiset-nat", "ord"):
        order = named_descent_order(name)
        for offset in range(walks):
            start = order.sample_starts[offset % len(order.sample_starts)]
            chain = fuzz_descent(
                order.relation, start, max_steps=10000, seed=seed + offset
            )
            bound = order.descent_bound(start)
            if bound is not None and len(chain) > bound:
                return f"{name}: chain of {len(chain)} exceeds bound {bound}"
            for above, below in zip(chain, chain[1:]):
                if order.relation.decide(below, above) is None:
                    return f"{name}: non-descending step in chain"
    return None


# (name, check, small, full): ``run_all`` runs each check at ``small``;
# ``full`` reproduces an acceptance criterion's samples, its seed included.
PROPERTIES = (
    ("strictness", _check_strictness, {}, dict(seed=0)),
    (
        "recursion-equations",
        _check_recursion_equations,
        dict(
            chain=30, divisors=13, bits=4, closure=10, summands=5, grid=3,
            trees=2, numerals=2, values=1, multisets=2, nested=4,
        ),
        dict(
            seed=7, chain=60, divisors=25, bits=5, closure=12, summands=6, grid=4,
            trees=40, numerals=8, values=3, multisets=3, nested=12,
        ),
    ),
    ("uniqueness", _check_uniqueness, dict(points=12), dict(seed=0, points=30)),
    (
        "closure-reachability",
        _check_closure_reachability,
        dict(relations=8, sizes=(7, 8)),
        dict(seed=6, relations=50, sizes=(4, 9)),
    ),
    ("naive-comparators", _check_naive_comparators, {}, dict(seed=0)),
    ("power-rank", _check_power_rank, dict(bound=4), dict(seed=0, bound=5)),
    (
        "multiset-oracle",
        _check_multiset_oracle,
        dict(keys=3, size=2),
        dict(seed=0, keys=4, size=3),
    ),
    (
        "tree-characterization",
        _check_tree_characterization,
        dict(nat=5, grid=2, dag=4, numerals=6),
        dict(seed=2025, nat=6, grid=3, dag=6, numerals=7),
    ),
    (
        "ordinal-agreement",
        _check_ordinals,
        dict(pairs=100, coefficients=2, width=3),
        dict(seed=8, pairs=500, coefficients=4, width=4),
    ),
    (
        "programs",
        _check_programs,
        dict(sorts=100, length=30, unfoldings=5, fibs=25, ackermanns=(3, 4)),
        dict(
            seed=33, sorts=1000, length=51, unfoldings=100, fibs=31, ackermanns=(4, 6)
        ),
    ),
    ("descent-fuzzing", _check_descents, dict(walks=10), dict(seed=0, walks=250)),
)


def run_all(seed: int = 0) -> list:
    """Every property at its ``small`` sizes."""
    return [
        _result(name, lambda check=check, small=small: check(seed, **small))
        for name, check, small, _full in PROPERTIES
    ]


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


_NUMERAL_LENGTH_CAP = 4300  # CPython's default int() digit limit, on every version


def parse_nat(text: str) -> int:
    if len(text) > _NUMERAL_LENGTH_CAP:
        raise ValueError(
            f"a numeral of {len(text)} characters is longer than {_NUMERAL_LENGTH_CAP}"
        )
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a natural number: {text!r}")
    return value


def parse_nat_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(parse_nat(part) for part in text.split(","))
    except ValueError as error:
        raise ValueError(f"expected comma-separated naturals: {text!r}") from error


_MULTISET_SIZE_CAP = 5


def _bounded_multiset_predecessors(upper: Multiset):
    # enumeration capped at total size 5 over the keys reachable below the
    # current maximum; complete only within that bound
    max_key = max((key for key, _count in upper.entries), default=0)
    pool = all_multisets(range(max_key + 1), _MULTISET_SIZE_CAP)
    mrel = multiset_relation(nat_less())
    return with_enumerated_predecessors(mrel, pool).predecessors(upper)


def _capped_multiset_count(max_key: int) -> int:
    # multisets of at most the cap's size over max_key + 1 keys
    return math.comb(max_key + 1 + _MULTISET_SIZE_CAP, _MULTISET_SIZE_CAP)


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
            parse_start=parse_nat,
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
        bounded = replace(
            mrel,
            carrier="multiset(nat), bounded walk",
            predecessors=_bounded_multiset_predecessors,
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
