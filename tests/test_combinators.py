import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from wellfounded import (
    EQUAL,
    EvidenceError,
    Inl,
    Inr,
    UndecidableError,
    WFRelation,
    check_recursion_equation,
    descending,
    disjoint_sum,
    finite_power_decide,
    inverse_image,
    lex_family,
    lex_product,
    multiset_of,
    multiset_relation,
    nat_less,
    nat_less_decide,
    pow_relation,
    refl_trans_reachable,
    subrelation,
    transitive_closure,
    validate_chain,
    validated_evidence,
    wfrec,
    with_enumerated_predecessors,
)
from wellfounded import combinators
from wellfounded.checks import (
    PROPERTIES,
    all_descending_lists,
    all_multisets,
    census_step,
    edge_reachable,
    properly_divides,
    random_dag,
)
from wellfounded.combinators import ChainEvidence, lex_second


class TestSubrelation:
    def test_divides_holds(self):
        assert properly_divides().decide(3, 6) is not None

    def test_irreflexive(self):
        assert properly_divides().decide(6, 6) is None

    def test_difference_witness_form(self):
        # m below n when some k satisfies m + k + 1 == n
        def as_difference(low, up):
            return up - low - 1 if low < up else None

        rel = subrelation(
            nat_less(),
            embed=lambda low, up, _k: nat_less_decide(low, up),
            sub_decide=as_difference,
        )
        assert rel.decide(2, 5) == 2
        assert rel.decide(5, 2) is None

    def test_recursion_delegates_to_base(self):
        divides = properly_divides()

        def longest_divisor_chain(n, rec):
            best = 0
            for d in range(1, n):
                e = divides.decide(d, n)
                if e is not None:
                    best = max(best, 1 + rec(d, e))
            return best

        def oracle(n):
            return max(
                (1 + oracle(d) for d in range(1, n) if n % d == 0),
                default=0,
            )

        assert oracle(12) == 3  # 12 -> 6 -> 3 -> 1
        assert wfrec(divides, longest_divisor_chain, 12) == oracle(12)
        report = check_recursion_equation(
            divides, census_step(divides, range(1, 13)), range(1, 13)
        )
        assert report.ok

    def test_never_holds_where_base_fails(self):
        divides = properly_divides()
        for low in range(1, 15):
            for up in range(1, 15):
                if divides.decide(low, up) is not None:
                    assert low < up

    def test_embed_checked_in_debug_mode(self):
        bogus = subrelation(
            nat_less(),
            embed=lambda low, up, _e: NatFakeEvidence,
            sub_decide=lambda low, up: EQUAL if low > up else None,  # wrong way round
        )

        def walk(n, rec):
            if n < 5:
                return rec(n + 1, bogus.decide(n + 1, n))
            return n

        with validated_evidence():
            with pytest.raises(EvidenceError):
                wfrec(bogus, walk, 0)


NatFakeEvidence = object()


class TestInverseImage:
    def test_shorter_list_below(self):
        by_length = inverse_image(nat_less(), len, carrier="len")
        assert by_length.decide((5,), (1, 2)) is not None

    def test_equal_lengths_unrelated(self):
        by_length = inverse_image(nat_less(), len)
        assert by_length.decide((1, 2), (3, 4)) is None

    def test_evidence_is_base_evidence(self):
        by_length = inverse_image(nat_less(), len)
        assert by_length.decide((5,), (1, 2)) == nat_less_decide(1, 2)

    def test_recursion_equation(self):
        lists = [
            tuple(bits)
            for size in range(4)
            for bits in itertools.product((0, 1), repeat=size)
        ]
        by_length = inverse_image(nat_less(), len)
        report = check_recursion_equation(
            by_length, census_step(by_length, lists), lists
        )
        assert report.ok


class TestTransitiveClosure:
    def base(self):
        edges = {(0, 1), (1, 2)}
        rel = WFRelation(
            carrier="two-steps",
            decide=lambda low, up: EQUAL if (low, up) in edges else None,
            predecessors=lambda up: tuple(
                (low, EQUAL) for low, high in sorted(edges) if high == up
            ),
        )
        return rel

    def test_finds_the_two_step_chain(self):
        chain = transitive_closure(self.base()).decide(0, 2)
        assert chain is not None and chain.nodes == (0, 1, 2)

    def test_irreflexive(self):
        assert transitive_closure(self.base()).decide(0, 0) is None

    def test_closure_of_immediate_predecessor_is_less_than(self):
        immediate = WFRelation(
            carrier="imm",
            decide=lambda low, up: EQUAL if low + 1 == up else None,
            predecessors=lambda up: ((up - 1, EQUAL),) if up > 0 else (),
        )
        closure = transitive_closure(immediate)
        for low in range(11):
            for up in range(11):
                assert (closure.decide(low, up) is not None) == (low < up)

    def test_bfs_oracle_on_random_relations(self, rng):
        for _ in range(15):
            rel, edges = random_dag(rng, 7)
            closure = transitive_closure(rel)
            for low in range(7):
                for up in range(7):
                    expected = edge_reachable(edges, low, up)
                    got = closure.decide(low, up)
                    assert (got is not None) == expected
                    if got is not None:
                        assert validate_chain(rel, got)
                        assert got.lower == low and got.upper == up

    def test_battery_catches_a_search_that_stops_at_one_link(self, monkeypatch):
        search = combinators._search_chain

        def one_link(base, lower, upper):
            chain = search(base, lower, upper)
            return chain if chain is not None and len(chain) == 1 else None

        monkeypatch.setattr(combinators, "_search_chain", one_link)
        _name, check, small, full = next(
            entry for entry in PROPERTIES if entry[0] == "closure-reachability"
        )
        assert check(0, **small) is not None
        assert check(**full) is not None

    @given(
        st.integers(0, 10**6),
        st.integers(1, 10),
        st.sampled_from([0.15, 0.3, 0.5]),
    )
    def test_chain_search_against_bfs_over_decide(self, seed, size, density):
        rel, _edges = random_dag(random.Random(seed), size, density)
        closure = transitive_closure(rel)
        for upper in range(size):
            # independent oracle: breadth-first over decide on all pairs
            distance, frontier = {upper: 0}, [upper]
            while frontier:
                below = []
                for node in frontier:
                    for element in range(size):
                        if element not in distance and rel.decide(element, node):
                            distance[element] = distance[node] + 1
                            below.append(element)
                frontier = below
            del distance[upper]
            for lower in range(size):
                chain = closure.decide(lower, upper)
                assert (chain is not None) == (lower in distance)
                if chain is not None:
                    assert validate_chain(rel, chain)
                    assert (chain.lower, chain.upper) == (lower, upper)
                    assert len(chain) == distance[lower]
            found = closure.predecessors(upper)
            assert sorted(element for element, _c in found) == sorted(distance)
            for element, chain in found:
                assert validate_chain(rel, chain)
                assert (chain.lower, chain.upper) == (element, upper)
                assert len(chain) == distance[element]

    def test_unhashable_elements_are_searched(self):
        immediate = WFRelation(
            carrier="lists",
            decide=lambda low, up: EQUAL if low[0] + 1 == up[0] else None,
            predecessors=lambda up: (([up[0] - 1], EQUAL),) if up[0] > 0 else (),
        )
        closure = transitive_closure(immediate)
        chain = closure.decide([0], [3])
        assert chain.nodes == ([0], [1], [2], [3]) and len(chain) == 3
        assert closure.decide([3], [0]) is None
        assert [element for element, _c in closure.predecessors([3])] == [[2], [1], [0]]

    def test_undecidable_without_enumeration(self):
        bare = WFRelation(
            carrier="bare",
            decide=lambda low, up: EQUAL if low + 1 == up else None,
        )
        closure = transitive_closure(bare)
        assert closure.decide(1, 2) is not None  # single supplied step
        with pytest.raises(UndecidableError):
            closure.decide(0, 2)

    def test_recursion_equation(self):
        closure = transitive_closure(self.base())
        report = check_recursion_equation(
            closure, census_step(closure, range(3)), range(3)
        )
        assert report.ok


class TestFinitePowers:
    def base(self):
        return TestTransitiveClosure().base()

    def test_zero_power_is_equality(self):
        assert finite_power_decide(self.base(), 0, 1, 1) is EQUAL
        assert finite_power_decide(self.base(), 0, 0, 1) is None

    def test_two_step_power(self):
        chain = finite_power_decide(self.base(), 2, 0, 2)
        assert chain is not None and len(chain) == 2

    def test_wrong_length_absent(self):
        assert finite_power_decide(self.base(), 2, 0, 1) is None

    def test_path_enumeration_oracle(self, rng):
        for _ in range(10):
            rel, edges = random_dag(rng, 6)

            def paths(low, up, steps):
                if steps == 0:
                    return low == up
                return any(
                    paths(low, mid, steps - 1) for mid in range(6) if (mid, up) in edges
                )

            for n in range(4):
                for low in range(6):
                    for up in range(6):
                        assert (
                            finite_power_decide(rel, n, low, up) is not None
                        ) == paths(low, up, n)

    def test_long_chain_takes_no_frame_per_step(self):
        succ = WFRelation(
            carrier="succ",
            decide=lambda low, up: EQUAL if low + 1 == up else None,
            predecessors=lambda up: ((up - 1, EQUAL),) if up > 0 else (),
        )
        chain = finite_power_decide(succ, 3000, 0, 3000)
        assert chain.nodes == tuple(range(3001)) and len(chain) == 3000


def recursive_finite_power(base, n, lower, upper):
    # the recursive definition: the first path of exactly n steps found
    # depth-first through the predecessors, in their enumeration order
    if n == 0:
        return EQUAL if lower == upper else None

    def down(nodes, links, remaining):
        if remaining == 0:
            return ChainEvidence(nodes, links) if nodes[0] == lower else None
        for element, evidence in base.predecessors(nodes[0]):
            chain = down((element,) + nodes, (evidence,) + links, remaining - 1)
            if chain is not None:
                return chain
        return None

    return down((upper,), (), n)


@given(st.integers(0, 2**32), st.integers(0, 8), st.floats(0.2, 0.9))
def test_finite_power_agrees_with_the_recursive_definition(seed, size, density):
    # predecessors come in a shuffled order, so ties between paths of the
    # same length are decided by the enumeration order
    rng = random.Random(seed)
    rel, _ = random_dag(rng, size, density)
    rel = with_enumerated_predecessors(rel, rng.sample(range(size), size))
    for n in range(6):
        for low in range(size):
            for up in range(size):
                assert finite_power_decide(rel, n, low, up) == (
                    recursive_finite_power(rel, n, low, up)
                )


class TestReflTransReachable:
    def test_reflexive(self):
        rel, _ = random_dag(random.Random(5), 4)
        assert refl_trans_reachable(rel, 2, 2)

    def test_single_edge(self):
        edge = WFRelation(
            carrier="edge",
            decide=lambda low, up: EQUAL if (low, up) == (0, 1) else None,
            predecessors=lambda up: ((0, EQUAL),) if up == 1 else (),
        )
        assert refl_trans_reachable(edge, 0, 1)
        assert not refl_trans_reachable(edge, 1, 0)

    def test_agrees_with_equality_or_closure(self, rng):
        rel, _ = random_dag(rng, 6)
        closure = transitive_closure(rel)
        for low in range(6):
            for up in range(6):
                expected = low == up or closure.decide(low, up) is not None
                assert refl_trans_reachable(rel, low, up) == expected


class TestDisjointSum:
    def test_left_below_right_always(self):
        summed = disjoint_sum(nat_less(), nat_less())
        for x in range(4):
            for y in range(4):
                evidence = summed.decide(Inl(x), Inr(y))
                assert evidence is not None and evidence.kind == "left_right"

    def test_right_never_below_left(self):
        summed = disjoint_sum(nat_less(), nat_less())
        for x in range(4):
            for y in range(4):
                assert summed.decide(Inr(y), Inl(x)) is None

    def test_same_side_delegates(self):
        summed = disjoint_sum(nat_less(), nat_less())
        evidence = summed.decide(Inl(2), Inl(5))
        assert evidence is not None and evidence.kind == "left_left"
        assert evidence.inner == nat_less_decide(2, 5)

    def test_exhaustive_against_defining_equations(self):
        summed = disjoint_sum(nat_less(), nat_less())
        pool = [Inl(i) for i in range(4)] + [Inr(i) for i in range(4)]
        for lower in pool:
            for upper in pool:
                if isinstance(lower, Inl) and isinstance(upper, Inl):
                    expected = lower.value < upper.value
                elif isinstance(lower, Inl):
                    expected = True
                elif isinstance(upper, Inr):
                    expected = lower.value < upper.value
                else:
                    expected = False
                assert (summed.decide(lower, upper) is not None) == expected

    def test_recursion_equation(self):
        summed = disjoint_sum(nat_less(), nat_less())
        pool = [Inl(i) for i in range(5)] + [Inr(i) for i in range(5)]
        report = check_recursion_equation(summed, census_step(summed, pool), pool)
        assert report.ok

    def test_rank_function_through_the_seam(self):
        # position in the combined order: lefts first, then rights
        summed = disjoint_sum(nat_less(), nat_less())
        pool = [Inl(i) for i in range(3)] + [Inr(i) for i in range(3)]

        def position(z, rec):
            below = [rec(o, e) for o in pool if (e := summed.decide(o, z)) is not None]
            return 1 + max(below, default=-1)

        got = [wfrec(summed, position, z) for z in pool]
        assert got == [0, 1, 2, 3, 4, 5]


class TestLexicographic:
    def test_first_component_decides(self):
        pairs = lex_product(nat_less(), nat_less())
        evidence = pairs.decide((1, 5), (2, 0))
        assert evidence is not None and evidence.on_first is not None

    def test_equal_firsts_fall_through(self):
        pairs = lex_product(nat_less(), nat_less())
        evidence = pairs.decide((1, 3), (1, 4))
        assert evidence is not None
        assert evidence.on_first is None and evidence.on_second is not None
        assert evidence.equal is not None

    def test_exhaustive_against_naive_comparator(self):
        pairs = lex_product(nat_less(), nat_less())
        grid = list(itertools.product(range(5), repeat=2))
        for lower in grid:
            for upper in grid:
                naive = lower[0] < upper[0] or (
                    lower[0] == upper[0] and lower[1] < upper[1]
                )
                assert (pairs.decide(lower, upper) is not None) == naive

    def test_dependent_family(self):
        # second components bounded by the first: B(x) = {0..x}
        bounded = lex_family(nat_less(), lambda _x: nat_less())
        carrier = [(x, y) for x in range(4) for y in range(x + 1)]
        report = check_recursion_equation(
            bounded, census_step(bounded, carrier), carrier
        )
        assert report.ok

    def test_recursion_equation_on_grid(self):
        pairs = lex_product(nat_less(), nat_less())
        grid = list(itertools.product(range(3), repeat=2))
        report = check_recursion_equation(pairs, census_step(pairs, grid), grid)
        assert report.ok

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_irreflexive_and_asymmetric(self, lower, upper):
        pairs = lex_product(nat_less(), nat_less())
        if lower == upper:
            assert pairs.decide(lower, upper) is None
        elif pairs.decide(lower, upper) is not None:
            assert pairs.decide(upper, lower) is None

    def test_evidence_constructors_reject_mixed_branches(self):
        with pytest.raises(EvidenceError):
            from wellfounded.combinators import LexEvidence

            LexEvidence(on_first=EQUAL, equal=EQUAL, on_second=EQUAL)


def _successor():
    return WFRelation(
        carrier="succ",
        decide=lambda low, up: EQUAL if low + 1 == up else None,
        predecessors=lambda up: ((up - 1, EQUAL),) if up > 0 else (),
    )


def _bit_lists():
    return [
        tuple(bits) for size in range(4) for bits in itertools.product((0, 1), repeat=size)
    ]


# construction -> (relation, pool, top); every pool element at or below top
CENSUS_CASES = {
    "closure": lambda: (transitive_closure(_successor()), range(10), 9),
    "pow": lambda: (
        pow_relation(nat_less()),
        all_descending_lists(4),
        descending(nat_less(), (3, 2, 1, 0)),
    ),
    "lex": lambda: (
        lex_product(nat_less(), nat_less()),
        list(itertools.product(range(4), repeat=2)),
        (3, 3),
    ),
    "lex-family": lambda: (
        lex_family(nat_less(), lambda _x: nat_less()),
        [(x, y) for x in range(5) for y in range(x + 1)],
        (4, 4),
    ),
    "sum": lambda: (
        disjoint_sum(nat_less(), nat_less()),
        [Inl(i) for i in range(5)] + [Inr(i) for i in range(5)],
        Inr(4),
    ),
    "inverse-image": lambda: (
        inverse_image(nat_less(), len),
        _bit_lists(),
        (1, 1, 1),
    ),
    "subrelation": lambda: (properly_divides(), range(1, 13), 12),
    "multiset": lambda: (
        multiset_relation(nat_less()),
        all_multisets(range(3), 2),
        multiset_of(nat_less(), (2, 2)),
    ),
}


def census_by_decide(rel, pool, top):
    """The census value at ``top`` and the elements it reaches, by a memoized
    recurrence over ``decide`` that makes no use of ``wfrec``."""
    values = {}

    def value(x):
        if x not in values:
            values[x] = 1 + sum(
                value(y) for y in pool if rel.decide(y, x) is not None
            )
        return values[x]

    return value(top), set(values)


class TestOneStepPerElement:
    @pytest.mark.parametrize("name", sorted(CENSUS_CASES))
    def test_census_steps_once_per_element(self, name):
        rel, pool, top = CENSUS_CASES[name]()
        census, calls = census_step(rel, pool), []

        def counted(x, rec):
            calls.append(x)
            return census(x, rec)

        expected, reached = census_by_decide(rel, pool, top)
        assert wfrec(rel, counted, top) == expected
        assert len(calls) == len(reached) and set(calls) == reached

    @pytest.mark.parametrize("name", sorted(CENSUS_CASES))
    def test_step_values_are_freed_on_return(self, name):
        rel, pool, top = CENSUS_CASES[name]()
        watched = []

        class Tally:
            def __init__(self, count):
                self.count = count

        def step(x, rec):
            below = (rec(y, e) for y in pool if (e := rel.decide(y, x)) is not None)
            tally = Tally(1 + sum(t.count for t in below))
            watched.append(weakref.ref(tally))
            return tally

        gc.disable()  # no cycle collection: only the evaluator can let go
        try:
            result = wfrec(rel, step, top)
            alive = [ref() for ref in watched if ref() is not None]
        finally:
            gc.enable()
        assert alive == [result] and len(watched) > 1

    def test_memo_hit_through_lex_still_checks_evidence(self):
        pairs = lex_product(nat_less(), nat_less())

        def step(pair, rec):
            if pair == (1, 1):
                return rec((1, 0), lex_second(nat_less_decide(0, 1))) + rec(
                    (0, 5), pairs.decide((0, 5), (1, 1))
                )
            if pair == (0, 5):
                # up to (1, 0), already in the memo but not below (0, 5)
                return rec((1, 0), lex_second(nat_less_decide(4, 5)))
            return 1

        assert wfrec(pairs, step, (1, 1)) == 2
        with validated_evidence():
            with pytest.raises(EvidenceError):
                wfrec(pairs, step, (1, 1))
