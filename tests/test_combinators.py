import copy
import gc
import itertools
import pickle
import random
import threading
import weakref
from contextlib import nullcontext
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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
    finfun_exp,
    finite_function,
    finite_power_decide,
    inverse_image,
    lex_family,
    lex_product,
    multiset_of,
    multiset_relation,
    nat_less,
    nat_less_decide,
    nested_multiset_relation,
    pow_relation,
    refl_trans_reachable,
    stepped,
    stepped_lex,
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
    _nested_pool,
    all_descending_lists,
    all_multisets,
    census_step,
    edge_reachable,
    properly_divides,
    random_dag,
    successor_relation,
)
from wellfounded import core
from wellfounded.combinators import ChainEvidence, SumEvidence, lex_first, lex_second


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
        closure = transitive_closure(successor_relation())
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

        def one_link(searches, lower, upper):
            chain = search(searches, lower, upper)
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

    def test_steps_run_while_the_base_evaluation_is_open(self):
        # base callbacks made after the base recursor returned, and the
        # elements the base recursor was entered at
        late, entered = [], []

        def recursor(step, a):
            done = []
            entered.append(a)

            def rec(x, _evidence):
                if done:
                    late.append(x)
                return step(x, rec)

            try:
                return step(a, rec)
            finally:
                done.append(True)

        closure = transitive_closure(replace(successor_relation(), recursor=recursor))

        def count_down(n, rec):
            return 0 if n == 0 else rec(n - 1, closure.decide(n - 1, n)) + 1

        cases = [(closure, count_down, 30, 30)]

        # the power runs its fold and its steps inside one closure
        # evaluation, and so inside one evaluation of this base
        less = WFRelation(
            carrier="less",
            decide=nat_less_decide,
            predecessors=nat_less().predecessors,
            recursor=recursor,
        )
        power = pow_relation(less)

        def rank(z, rec):
            return max((rec(low, e) + 1 for low, e in power.predecessors(z)), default=0)

        cases.append((power, rank, descending(less, (5, 3, 1)), 42))

        # a finite-function census whose values the recording base orders:
        # the power's closure keeps its lex columns' callbacks inside open
        # evaluations
        finfuns, pool = finfun_exp(nat_less(), less), all_multisets(range(3), 4)
        top = multiset_of(nat_less(), (2, 2, 1, 1))  # the function {2: 2, 1: 2}
        expected, _reached = census_by_decide(finfuns, pool, top)
        cases.append((finfuns, census_step(finfuns, pool), top, expected))

        # an inverse image runs its step at the start, and a lex order opens
        # its first column, inside the base evaluation; ``stepped_lex``, an
        # inverse image of lex families, answers a first-component call from
        # the memo before it opens a column.  Left out: the lex family under
        # ``nested_multiset_relation``, whose column evaluation can still
        # return the outer glue's function and end before that function is
        # called.
        halves = inverse_image(less, lambda x: x // 2)
        pairs = lex_product(less, nat_less())
        grid = [(x, y) for x in range(6) for y in range(6)]
        family = lex_family(less, lambda x: inverse_image(less, lambda y: y % (x + 1)))
        tuples = [stepped(*c) for n in range(4) for c in itertools.product(range(3), repeat=n)]
        for rel, pool, top in (
            (halves, range(31), 30),
            (pairs, grid, (5, 0)),
            (family, grid, (5, 5)),
            (stepped_lex(less), tuples, stepped(2, 2, 2)),
        ):
            expected, _reached = census_by_decide(rel, pool, top)
            cases.append((rel, census_step(rel, pool), top, expected))

        # only a validated run runs the derived recursors, and so the base's
        for validated in (False, True):
            for rel, step, top, expected in cases:
                entered.clear()
                with validated_evidence() if validated else nullcontext():
                    assert wfrec(rel, step, top) == expected
                assert late == []
                assert bool(entered) == validated, rel

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


def closure_predecessors_before(base, upper):
    # the closure's enumeration as written before the shared walk: the
    # oracle for elements, chains and their order
    seen, unhashable = set(), []
    found, frontier = [], [((upper,), ())]
    for nodes, links in frontier:
        for element, evidence in base.predecessors(nodes[0]):
            if combinators.first_visit(seen, unhashable, element):
                chain = ChainEvidence(
                    nodes=(element,) + nodes, links=(evidence,) + links
                )
                found.append((element, chain))
                frontier.append((chain.nodes, chain.links))
    return tuple(found)


def as_lists(rel):
    # the same relation over one-element lists, which are unhashable
    return WFRelation(
        carrier=f"lists({rel.carrier})",
        decide=lambda low, up: rel.decide(low[0], up[0]),
        predecessors=lambda up: tuple(([low], e) for low, e in rel.predecessors(up[0])),
    )


def as_sets(rel):
    # the same relation over one-element sets, which are unhashable, asked
    # about at frozensets, which are hashable and equal to them
    return WFRelation(
        carrier=f"sets({rel.carrier})",
        decide=lambda low, up: rel.decide(min(low), min(up)),
        predecessors=lambda up: tuple(({low}, e) for low, e in rel.predecessors(min(up))),
    )


@given(st.integers(0, 2**32), st.integers(1, 9), st.floats(0.2, 0.9))
def test_closure_predecessors_match_the_walk_before_the_shared_one(seed, size, density):
    # evidence names its edge, and predecessors come in a shuffled order
    rng = random.Random(seed)
    _rel, edges = random_dag(rng, size, density)
    named = WFRelation(
        carrier=f"dag{size}",
        decide=lambda low, up: (low, up) if (low, up) in edges else None,
    )
    rel = with_enumerated_predecessors(named, rng.sample(range(size), size))
    for base, wrap in ((rel, lambda x: x), (as_lists(rel), lambda x: [x])):
        closure = transitive_closure(base)
        for upper in range(size):
            assert closure.predecessors(wrap(upper)) == (
                closure_predecessors_before(base, wrap(upper))
            )


def search_chain_before(base, lower, upper):
    # the closure's search as written before it kept its walk: a fresh
    # breadth-first search below upper that stops where lower turns up;
    # the chain as (nodes, links), or None
    seen, unhashable = set(), []
    combinators.first_visit(seen, unhashable, upper)
    frontier = [((upper,), ())]
    for nodes, links in frontier:
        for element, evidence in base.predecessors(nodes[0]):
            if element == lower:
                return (element,) + nodes, (evidence,) + links
            if combinators.first_visit(seen, unhashable, element):
                frontier.append(((element,) + nodes, (evidence,) + links))
    return None


def read_chain(chain):
    # a chain as (nodes, links); its lower end and length read first, as
    # a view answers them before it builds its nodes
    if chain is None:
        return None
    lower, length = chain.lower, len(chain)
    assert lower is chain.nodes[0] and length == len(chain.links)
    return chain.nodes, chain.links


def shuffled_graph(rng, size, density, cyclic):
    # evidence names its edge, and predecessors come in a shuffled order; a
    # cyclic graph has edges both ways and self-loops
    if cyclic:
        edges = {
            (low, high)
            for low in range(size)
            for high in range(size)
            if rng.random() < density / 2
        }
    else:
        _rel, edges = random_dag(rng, size, density)
    named = WFRelation(
        carrier=f"graph{size}",
        decide=lambda low, up: (low, up) if (low, up) in edges else None,
    )
    return with_enumerated_predecessors(named, rng.sample(range(size), size))


def in_two_threads(rel, halves):
    # one closure asked from two threads, each its half of the queries, that
    # take turns at every base predecessors call and after every query, so
    # each thread's walk stops half scanned while the other thread searches
    # and between its own calls; the (lower, upper, chain) of every call.
    # Each thread makes the base calls it makes alone on a closure of its own.
    turn, finished, changed, me = [0], [False, False], threading.Condition(), threading.local()
    calls = [0, 0]

    def counted():
        calls[me.index] += 1

    def hand_over():
        with changed:
            turn[0] = 1 - me.index
            changed.notify_all()
            changed.wait_for(lambda: turn[0] == me.index or finished[1 - me.index])

    closure = transitive_closure(
        replace(rel, predecessors=lambda up: counted() or hand_over() or rel.predecessors(up))
    )
    asked = ([], [])

    def run(index):
        me.index = index
        with changed:
            changed.wait_for(lambda: turn[0] == index or finished[1 - index])
        try:
            for low, up in halves[index]:
                asked[index].append((low, up, read_chain(closure.decide(low, up))))
                hand_over()
        finally:
            with changed:
                finished[index] = True
                turn[0] = 1 - index
                changed.notify_all()

    threads = [threading.Thread(target=run, args=(index,)) for index in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert [len(done) for done in asked] == [len(half) for half in halves]
    for index, half in enumerate(halves):
        alone = []
        own = transitive_closure(
            replace(rel, predecessors=lambda up: alone.append(up) or rel.predecessors(up))
        )
        for low, up in half:
            own.decide(low, up)
        assert calls[index] == len(alone)
    return asked[0] + asked[1]


@pytest.mark.parametrize("shape", ["dag", "lists", "sets", "cyclic", "reentrant", "threads"])
@settings(derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 9),
    st.floats(0.2, 0.9),
    st.lists(st.tuples(st.integers(0, 8), st.lists(st.integers(0, 8), max_size=8)), max_size=8),
)
def test_resumed_decide_matches_a_fresh_search(shape, seed, size, density, groups):
    # runs of lowers at one upper, the uppers interleaved
    rng = random.Random(seed)
    rel = shuffled_graph(rng, size, density, cyclic=shape == "cyclic")
    runs = [[(low % size, up % size) for low in lows] for up, lows in groups]
    queries = [query for run in runs for query in run]
    base, wrap, asked, asking = rel, lambda x: x, [], []
    if shape == "lists":
        base, wrap = as_lists(rel), [[x] for x in range(size)].__getitem__
    if shape == "sets":
        base, wrap = as_sets(rel), [frozenset({x}) for x in range(size)].__getitem__
    if shape == "reentrant":
        inside = []

        def predecessors(up):
            # a call on the closure, at the upper being searched or another;
            # one level deep: the inner search's own calls do not re-enter
            if not inside:
                inside.append(up)
                low, high = rng.randrange(size), rng.choice((asking[-1], rng.randrange(size)))
                asked.append((low, high, read_chain(closure.decide(low, high))))
                inside.pop()
            return rel.predecessors(up)

        base = replace(rel, predecessors=predecessors)
    if shape == "threads":
        asked = in_two_threads(rel, [sum(runs[half::2], []) for half in (0, 1)])
    else:
        closure = transitive_closure(base)
        for low, up in queries:
            asking.append(up)
            asked.append((low, up, read_chain(closure.decide(wrap(low), wrap(up)))))
    for low, up, got in asked:
        oracle = base if shape in ("lists", "sets") else rel
        assert got == search_chain_before(oracle, wrap(low), wrap(up)), (low, up)


class TestChainViews:
    def test_long_views_pickle_copy_and_compare_as_eager_chains(self):
        closure = transitive_closure(successor_relation())
        eager = ChainEvidence(tuple(range(3001)), (EQUAL,) * 3000)
        # each view is fresh: its nodes are built by pickling or copying
        for copied in (
            pickle.loads(pickle.dumps(closure.decide(0, 3000))),
            copy.deepcopy(closure.decide(0, 3000)),
            copy.copy(closure.decide(0, 3000)),
        ):
            assert copied == eager and copied.nodes == eager.nodes
        chain = closure.decide(0, 3000)
        assert len(chain) == 3000 and chain.lower == 0
        assert chain == eager and eager == chain and hash(chain) == hash(eager)
        assert repr(chain) == repr(eager) and chain.upper == 3000
        assert chain != closure.decide(1, 3000) and chain != eager.nodes

    @pytest.mark.parametrize("nodes, links", [((0, 1, 2), (EQUAL,)), ((0,), ()), ((0, 1), ())])
    def test_wrong_shaped_chains_are_refused(self, nodes, links):
        with pytest.raises(EvidenceError):
            ChainEvidence(nodes, links)

    @pytest.mark.parametrize("validated", [False, True])
    def test_a_census_walks_below_each_upper_about_once(self, validated):
        # a closure census from 60 over a counted successor relation; a
        # fresh search per pair made 73,810 base predecessor calls released
        # and 109,800 validated
        base, calls = successor_relation(), []
        counted = replace(base, predecessors=lambda up: calls.append(up) or base.predecessors(up))
        closure = transitive_closure(counted)
        with validated_evidence() if validated else nullcontext():
            assert wfrec(closure, census_step(closure, range(60)), 59) == 2**59
        assert len(calls) <= 60**2

    def test_long_enumerations_hold_views(self):
        # the chains share the walk's records, so the enumeration takes
        # linear time, not time quadratic in the depth
        base = successor_relation()
        found = transitive_closure(base).predecessors(3000)
        assert found == closure_predecessors_before(base, 3000)


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

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_power_refused(self, n):
        with pytest.raises(ValueError, match="negative exponent"):
            finite_power_decide(nat_less(), n, 2, 3)

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
        chain = finite_power_decide(successor_relation(), 3000, 0, 3000)
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

    def test_left_step_cannot_call_a_right_element(self):
        # every left lies below every right, so the evidence is well formed,
        # but it points the wrong way: validation refuses it, and a release
        # run, which trusts evidence, returns the value at the called element
        summed = disjoint_sum(nat_less(), nat_less())
        upward = summed.decide(Inl(3), Inr(0))

        def step(z, rec):
            return rec(Inr(0), upward) if isinstance(z, Inl) else 0

        assert wfrec(summed, step, Inl(3)) == 0
        with validated_evidence():
            with pytest.raises(EvidenceError, match=r"no descent from inl\(3\) to inr\(0\)"):
                wfrec(summed, step, Inl(3))


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

    @pytest.mark.parametrize("validated", [False, True])
    def test_second_component_call_must_keep_the_first(self, validated):
        # (2, 9) lies below (3, 5), but on the first component: the second-
        # component witness stands for equal firsts, so the lex recursor of a
        # validated run cannot reach it.  A release run trusts the evidence
        # and returns the value at (2, 9).
        pairs = lex_product(nat_less(), nat_less())
        summed = disjoint_sum(pairs, nat_less())
        wrong_way = lex_second(nat_less_decide(4, 5))

        def on_pairs(pair, rec):
            return rec((2, 9), wrong_way) if pair == (3, 5) else 0

        def on_sum(z, rec):
            if z == Inl((3, 5)):
                return rec(Inl((2, 9)), SumEvidence("left_left", wrong_way))
            return 0

        if not validated:
            assert wfrec(pairs, on_pairs, (3, 5)) == 0
            assert wfrec(summed, on_sum, Inl((3, 5))) == 0
            return
        with validated_evidence():
            with pytest.raises(EvidenceError, match=r"\(2, 9\) is not in the column at 3"):
                wfrec(pairs, on_pairs, (3, 5))
            with pytest.raises(EvidenceError, match=r"\(2, 9\) is not in the column at 3"):
                wfrec(summed, on_sum, Inl((3, 5)))

    def test_evidence_constructors_reject_mixed_branches(self):
        with pytest.raises(EvidenceError):
            from wellfounded.combinators import LexEvidence

            LexEvidence(on_first=EQUAL, equal=EQUAL, on_second=EQUAL)


def _bit_lists():
    return [
        tuple(bits) for size in range(4) for bits in itertools.product((0, 1), repeat=size)
    ]


# construction -> (relation, pool, top); every pool element at or below top
CENSUS_CASES = {
    "closure": lambda: (transitive_closure(successor_relation()), range(10), 9),
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


# the evaluations a census may open: its own and its bases', and a lex
# column or a sum's left side only at an element the census has not yet
# stepped, which that evaluation then steps.  Without the memo recall, the
# lex census over the 4 x 4 grid opens 99 and the 5 + 5 sum census 27.
OPENED_AT_MOST = {
    "closure": lambda reached: 2,  # the census, the base
    "pow": lambda reached: 3,  # the census, the closure, the base
    # the census, the first components, at most a column per element
    "lex": lambda reached: 2 + len(reached),
    "lex-family": lambda reached: 2 + len(reached),
    # the census, the right side, at most a left side per left element
    "sum": lambda reached: 2 + sum(isinstance(z, Inl) for z in reached),
    "inverse-image": lambda reached: 2,  # the census, the base
    "subrelation": lambda reached: 2,  # the census, the base
    # the census, the power, its closure, the entries' first components,
    # and at most a column per entry
    "multiset": lambda reached: 4 + len({entry for m in reached for entry in m.entries}),
}


class TestOneStepPerElement:
    # a release run evaluates every relation in one flat evaluation; a
    # validated one runs the derived recursors, which open the bases
    @pytest.mark.parametrize("name", sorted(CENSUS_CASES))
    def test_evaluations_opened_stay_bounded(self, name):
        rel, pool, top = CENSUS_CASES[name]()
        expected, reached = census_by_decide(rel, pool, top)
        for checking in (nullcontext(), validated_evidence()):
            with checking:
                first = next(core._opened)
                assert wfrec(rel, census_step(rel, pool), top) == expected
                assert next(core._opened) - first - 1 <= OPENED_AT_MOST[name](reached)

    @pytest.mark.parametrize("name", sorted(CENSUS_CASES))
    def test_census_steps_once_per_element(self, name):
        rel, pool, top = CENSUS_CASES[name]()
        census, calls = census_step(rel, pool), []

        def counted(x, rec):
            calls.append(x)
            return census(x, rec)

        expected, reached = census_by_decide(rel, pool, top)
        for checking in (nullcontext(), validated_evidence()):
            calls.clear()
            with checking:
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

        for checking in (nullcontext(), validated_evidence()):
            watched.clear()
            gc.disable()  # no cycle collection: only the evaluator can let go
            try:
                with checking:
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
                # up to (1, 0), already in the memo but not below (0, 5); a
                # first-component call, since a second-component one that
                # leaves its column is refused in a release run too
                return rec((1, 0), lex_first(nat_less_decide(0, 1)))
            return 1

        assert wfrec(pairs, step, (1, 1)) == 2
        with validated_evidence():
            with pytest.raises(EvidenceError):
                wfrec(pairs, step, (1, 1))

    def test_recalled_calls_still_check_evidence(self):
        # each step calls up to an element already in the memo; the lex order
        # and the inverse image answer such a call from the memo, without
        # opening a column or measuring the element
        pairs = lex_product(nat_less(), nat_less())

        def on_pairs(pair, rec):
            if pair == (2, 0):
                return rec((1, 0), lex_first(nat_less_decide(1, 2))) + rec(
                    (0, 0), lex_first(nat_less_decide(0, 2))
                )
            if pair == (0, 0):  # a first-component call up to (1, 0)
                return rec((1, 0), lex_first(nat_less_decide(0, 1)))
            return 1

        # every left element lies below every right one, so no verdict can
        # refuse a right-to-left jump: the left side that the second jump
        # opens calls up to the left element that the first jump stepped
        sums = disjoint_sum(nat_less(), nat_less())

        def on_sums(z, rec):
            if z == Inr(0):
                return rec(Inl(2), sums.decide(Inl(2), z)) + rec(Inl(0), sums.decide(Inl(0), z))
            if z == Inl(0):
                return rec(Inl(2), SumEvidence("left_left", nat_less_decide(0, 2)))
            return 1

        lengths = inverse_image(nat_less(), len)

        def on_lengths(word, rec):
            if word == "abc":
                return rec("ab", nat_less_decide(2, 3)) + rec("a", nat_less_decide(1, 3))
            if word == "a":  # up to "ab", by the evidence for 1 < 2
                return rec("ab", nat_less_decide(1, 2))
            return 1

        for rel, step, top in (
            (pairs, on_pairs, (2, 0)),
            (sums, on_sums, Inr(0)),
            (lengths, on_lengths, "abc"),
        ):
            assert wfrec(rel, step, top) == 2
            with validated_evidence():
                with pytest.raises(EvidenceError):
                    wfrec(rel, step, top)


def _finite_functions():
    nat = nat_less()
    return [
        finite_function(nat, list(zip(keys, image)))
        for keys in ((), (0,), (1,), (1, 0))
        for image in itertools.product(range(2), repeat=len(keys))
    ]


def _last_on_top(rel, pool):
    return rel, pool, pool[-1]


# the census cases, and the derived orders of the battery on its pools; the
# last finite function is {1: 1, 0: 1}
LAW_CASES = {
    **CENSUS_CASES,
    "stepped": lambda: (
        stepped_lex(nat_less()),
        [stepped(*c) for n in range(3) for c in itertools.product(range(3), repeat=n)],
        stepped(2, 2),
    ),
    "finfun": lambda: _last_on_top(finfun_exp(nat_less(), nat_less()), _finite_functions()),
    "nested-multiset": lambda: _last_on_top(
        nested_multiset_relation(nat_less(), max_depth=5), _nested_pool(nat_less())
    ),
}


def step_runs(monkeypatch, run):
    """Run ``run()`` and count the step runs of every evaluation it opens:
    all of them, and the late ones, made after their evaluation returned."""
    evaluate, counts = core._evaluate, [0, 0]

    def probed(step, a, recursor=None, finish=None):
        ended = []

        def counted(x, rec):
            counts[0] += 1
            counts[1] += bool(ended)
            return step(x, rec)

        try:
            return evaluate(counted, a, recursor, finish)
        finally:
            ended.append(True)

    with monkeypatch.context() as patch:
        patch.setattr(core, "_evaluate", probed)  # every evaluation opens there
        value = run()
    return value, tuple(counts)


class TestReleaseAgainstValidated:
    @pytest.mark.parametrize("name", sorted(LAW_CASES))
    def test_an_honest_step_has_one_value_on_both_paths(self, name):
        rel, pool, top = LAW_CASES[name]()
        step = census_step(rel, pool)
        expected, reached = census_by_decide(rel, pool, top)
        released = {}
        for x in reached:
            first = next(core._opened)
            released[x] = wfrec(rel, step, x)
            assert next(core._opened) - first == 2  # one flat evaluation
        assert released[top] == expected
        with validated_evidence():
            assert {x: wfrec(rel, step, x) for x in reached} == released

    def test_late_step_runs_happen_only_on_the_validated_path(self, monkeypatch):
        rel, pool, top = LAW_CASES["nested-multiset"]()
        expected, reached = census_by_decide(rel, pool, top)
        run = lambda: wfrec(rel, census_step(rel, pool), top)
        assert step_runs(monkeypatch, run) == (expected, (len(reached), 0))
        with validated_evidence():
            assert step_runs(monkeypatch, run) == (expected, (116, 6))
