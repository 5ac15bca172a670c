import gc
import random
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import make_dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from wellfounded import core
from wellfounded import (
    DescendingList,
    EvidenceError,
    UndecidableError,
    WFRelation,
    check_recursion_equation,
    descending,
    fuzz_descent,
    is_descending,
    list_lex_decide,
    nat_less,
    nat_less_decide,
    pow_nat_rank,
    pow_relation,
    validated_evidence,
    wfrec,
    with_enumerated_predecessors,
)
from wellfounded.checks import all_descending_lists, random_dag
from wellfounded.combinators import first_visit
from wellfounded.power import (
    NIL_BELOW,
    LexListEvidence,
    _downward_closure,
    head_equal,
    head_less,
)

NAT = nat_less()

nat_lists = st.lists(st.integers(0, 6), max_size=6).map(tuple)
descending_sets = st.sets(st.integers(0, 6), max_size=6).map(
    lambda s: tuple(sorted(s, reverse=True))
)


class TestIsDescending:
    def test_empty(self):
        assert is_descending(NAT, ()) is not None

    def test_strictly_descending(self):
        cert = is_descending(NAT, (2, 1, 0))
        assert cert is not None and len(cert.steps) == 2

    def test_repeats_rejected(self):
        assert is_descending(NAT, (1, 1)) is None

    def test_certificate_length_mismatch_rejected(self):
        from wellfounded import DescentCert

        with pytest.raises(EvidenceError, match="certificate length does not match"):
            DescendingList(elements=(2, 1), cert=DescentCert(steps=()))
        with pytest.raises(EvidenceError, match="certificate length does not match"):
            DescendingList(elements=(), cert=DescentCert(steps=(None,)))

    @given(descending_sets)
    def test_accepts_every_strictly_descending_list(self, elements):
        assert is_descending(NAT, elements) is not None


class TestListLexDecide:
    def test_nil_below_cons(self):
        assert list_lex_decide(NAT, (), (0,)) is not None

    def test_smaller_head_beats_extra_length(self):
        evidence = list_lex_decide(NAT, (1, 0), (2,))
        assert evidence is not None and evidence.kind == "head_less"

    def test_converse_absent(self):
        assert list_lex_decide(NAT, (2,), (1, 0)) is None

    def test_nothing_below_nil(self):
        assert list_lex_decide(NAT, (), ()) is None
        assert list_lex_decide(NAT, (3,), ()) is None

    @given(nat_lists, nat_lists, nat_lists)
    def test_matches_the_recursive_definition(self, common, lower, upper):
        def recursive(lower, upper):
            if not upper:
                return None
            if not lower:
                return NIL_BELOW
            evidence = NAT.decide(lower[0], upper[0])
            if evidence is not None:
                return head_less(evidence)
            if lower[0] == upper[0]:
                rest = recursive(lower[1:], upper[1:])
                if rest is not None:
                    return head_equal(rest)
            return None

        lower, upper = common + lower, common + upper
        assert list_lex_decide(NAT, lower, upper) == recursive(lower, upper)

    def test_unrestricted_order_admits_a_descending_chain(self):
        # raw lists keep descending; the carrier restriction is what stops this
        chain = [(1,), (0, 1), (0, 0, 1)]
        for upper, lower in zip(chain, chain[1:]):
            assert list_lex_decide(NAT, lower, upper) is not None
        assert is_descending(NAT, (0, 1)) is None


# any chain of lex evidence, well-formed or not, as the calls that build it:
# a call is None, or a kind with its head evidence and the call for its rest.
# A chain may end in None, carry an unknown kind, or stack head_equal over
# nil_below; the test makes the calls, so a shape refused there is an error
lex_calls = st.recursive(
    st.sampled_from(
        [None, ("nil_below", None, None), ("head_less", NAT.decide(0, 1), None), ("bogus", None, None)]
    ),
    lambda rest: st.tuples(
        st.sampled_from(["head_equal", "head_less", "nil_below", "bogus"]), st.none(), rest
    ),
    max_leaves=8,
)


def build(call):
    if call is None:
        return None
    kind, head_evidence, rest = call
    return LexListEvidence(kind, head_evidence, build(rest))


# the same fields in a class with the generated, recursive methods: the oracle
GeneratedLexEvidence = make_dataclass(
    "LexListEvidence",
    [("kind", str), ("head_evidence", Any, None), ("rest", Any, None)],
    frozen=True,
)


def generated(evidence):
    chain = []
    while isinstance(evidence, LexListEvidence):
        chain.append(evidence)
        evidence = evidence.rest
    for node in reversed(chain):
        evidence = GeneratedLexEvidence(node.kind, node.head_evidence, evidence)
    return evidence


# every shape a decision gives: head_equal wrappers around nil_below or
# head_less, whose element evidence may itself be list evidence, so that
# equal and unequal evidence turn up
headed_evidence = st.recursive(
    st.sampled_from([NIL_BELOW, head_less(NAT.decide(0, 1)), head_less(NAT.decide(0, 2))]),
    lambda inner: st.one_of(st.builds(head_equal, inner), st.builds(head_less, inner)),
    max_leaves=6,
)


class TestLexListEvidenceMethods:
    @given(headed_evidence, headed_evidence)
    def test_match_the_generated_methods(self, a, b):
        assert (a == b) == (generated(a) == generated(b))
        assert (a != b) == (generated(a) != generated(b))
        assert a != b or hash(a) == hash(b)
        for x in (a, head_equal(a), head_less(head_equal(a))):
            assert x == x and x == head_equal(x).rest
            assert repr(x) == repr(generated(x))

    @pytest.mark.parametrize(
        "kind, head_evidence, rest",
        [
            ("bogus", None, None),
            ("head_equal", None, None),
            ("head_equal", NAT.decide(0, 1), NIL_BELOW),
            ("head_equal", None, NAT.decide(0, 1)),
            ("nil_below", None, NIL_BELOW),
            ("nil_below", NAT.decide(0, 1), None),
            ("head_less", None, None),
            ("head_less", NAT.decide(0, 1), NIL_BELOW),
        ],
        ids=[
            "unknown-kind",
            "head-equal-over-none",
            "head-equal-with-head-evidence",
            "head-equal-over-nat-evidence",
            "nil-below-with-rest",
            "nil-below-with-head-evidence",
            "head-less-without-head-evidence",
            "head-less-with-rest",
        ],
    )
    def test_shapes_no_decision_gives_are_refused(self, kind, head_evidence, rest):
        with pytest.raises(EvidenceError):
            LexListEvidence(kind, head_evidence, rest)

    def test_deep_evidence_prints_compares_and_hashes(self):
        upper = tuple(range(3000, 0, -1))
        evidence = list_lex_decide(NAT, upper[:-1] + (0,), upper)
        again = list_lex_decide(NAT, upper[:-1] + (0,), upper)
        assert evidence == again and hash(evidence) == hash(again)
        assert evidence != list_lex_decide(NAT, upper[:-2] + (0,), upper)
        assert evidence != list_lex_decide(NAT, upper[:-1], upper)
        head = "LexListEvidence(kind='head_equal', head_evidence=None, rest="
        leaf = f"LexListEvidence(kind='head_less', head_evidence={NAT.decide(0, 1)!r}, rest=None)"
        assert repr(evidence) == head * 2999 + leaf + ")" * 2999

    def test_long_common_prefix_allocates_constant_evidence(self):
        # 2999 common heads: one evidence object, not one per head
        upper = tuple(range(3000, 0, -1))
        lower = upper[:-1] + (0,)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            evidence = list_lex_decide(NAT, lower, upper)
            allocated = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert evidence.kind == "head_equal" and allocated < 10


class TestPowRelation:
    def test_spec_pair(self):
        power = pow_relation(NAT)
        assert power.decide(descending(NAT, (1, 0)), descending(NAT, (2,))) is not None

    def test_nothing_below_empty(self):
        power = pow_relation(NAT)
        empty = descending(NAT, ())
        assert power.decide(empty, empty) is None

    def test_rank_oracle_exhaustive(self):
        power = pow_relation(NAT)
        lists = all_descending_lists(5)
        assert len(lists) == 32
        for lower in lists:
            for upper in lists:
                assert (power.decide(lower, upper) is not None) == (
                    pow_nat_rank(lower) < pow_nat_rank(upper)
                )

    def test_rank_values(self):
        assert pow_nat_rank(descending(NAT, ())) == 0
        assert pow_nat_rank(descending(NAT, (1, 0))) == 3
        assert pow_nat_rank(descending(NAT, (2,))) == 4

    def test_rank_overflow_reported(self):
        big = DescendingList(elements=(9000,), cert=is_descending(NAT, (9000,)))
        with pytest.raises(OverflowError):
            pow_nat_rank(big)

    def test_recursion_equation_with_cardinality_step(self):
        power = pow_relation(NAT)
        lists = all_descending_lists(4)
        below = {
            dl.elements: tuple(
                (other, e)
                for other in lists
                if (e := power.decide(other, dl)) is not None
            )
            for dl in lists
        }

        def cardinality(z, rec):
            return 1 + sum(rec(other, e) for other, e in below[z.elements])

        report = check_recursion_equation(power, cardinality, lists)
        assert report.ok and report.total == 16

    def test_wfrec_counts_the_whole_order(self):
        # with the cardinality step the top list counts every list below it
        power = pow_relation(NAT)
        lists = all_descending_lists(4)

        def cardinality(z, rec):
            return 1 + sum(
                rec(other, e)
                for other in lists
                if (e := power.decide(other, z)) is not None
            )

        top = descending(NAT, (3, 2, 1, 0))
        assert wfrec(power, cardinality, top) == 2 ** 15

    # the tests of the recursor's frames, memory and evaluations run on the
    # flat release path and on the derived recursor that a validated run runs
    def test_long_list_takes_no_frame_per_element(self, monkeypatch):
        # the recursor folds the list from the rear instead of recursing on it
        monkeypatch.setenv("WFREC_DEPTH", "50")
        top = descending(NAT, range(1999, -1, -1))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for checking in (nullcontext(), validated_evidence()):
                with checking:
                    length = wfrec(pow_relation(NAT), lambda z, _rec: len(z.elements), top)
                assert length == 2000
        finally:
            sys.setrecursionlimit(limit)

    def test_one_call_into_a_long_extension_takes_no_frame_per_link(self, monkeypatch):
        # from [1500] into 1499..0: the handler reaches the callback at each
        # of the 1500 elements in one loop, one closure step per link (the
        # head witness, then the certificate), not one nested call per link
        monkeypatch.setenv("WFREC_DEPTH", "50")
        power = pow_relation(NAT)
        top = descending(NAT, (1500,))
        lower = descending(NAT, range(1499, -1, -1))
        evidence = power.decide(lower, top)

        def step(z, rec):
            if z == top:
                return rec(lower, evidence) + 1
            return len(z.elements)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for checking in (nullcontext(), validated_evidence()):
                with checking:
                    assert wfrec(power, step, top) == 1501
        finally:
            sys.setrecursionlimit(limit)

    def test_step_through_a_long_common_prefix(self, monkeypatch):
        # 2999..0 recurses once into 2999..1: the handler reads the 2999
        # common heads, the divergence index, from the evidence and shares
        # the callbacks before it, under a budget of 50 and a limit of 1000
        monkeypatch.setenv("WFREC_DEPTH", "50")
        power = pow_relation(NAT)
        top = descending(NAT, range(2999, -1, -1))
        lower = descending(NAT, range(2999, 0, -1))

        def step(z, rec):
            if z.elements[-1] == 0:
                return 1 + rec(lower, power.decide(lower, z))
            return len(z.elements)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for checking in (nullcontext(), validated_evidence()):
                with checking:
                    assert wfrec(power, step, top) == 3000
        finally:
            sys.setrecursionlimit(limit)

    def test_step_below_a_long_list_takes_no_frame_per_element(self, monkeypatch):
        # 1000..0 recurses once into 999..0, which leaves the list at its
        # head: one walk down 1000 elements, under a budget of 50 and a
        # limit of 1000
        monkeypatch.setenv("WFREC_DEPTH", "50")
        power = pow_relation(NAT)
        top = descending(NAT, range(1000, -1, -1))
        lower = descending(NAT, range(999, -1, -1))

        def step(z, rec):
            if z == top:
                return 1 + rec(lower, power.decide(lower, z))
            return len(z.elements)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for checking in (nullcontext(), validated_evidence()):
                with checking:
                    assert wfrec(power, step, top) == 1001
        finally:
            sys.setrecursionlimit(limit)

    @given(descending_sets, descending_sets, lex_calls)
    def test_any_list_evidence_gives_a_value_or_an_evidence_error(
        self, upper, lower, call
    ):
        # only the first step recurses: a release run trusts the evidence,
        # so a step that recursed on every call would loop when it places
        # top below itself.  A validated run refuses a call that does not
        # descend, and the recursor refuses evidence that does not route it.
        try:
            evidence = build(call)
        except EvidenceError:
            return  # a shape no decision gives is refused when it is built
        power = pow_relation(NAT)
        top, below = descending(NAT, upper), descending(NAT, lower)
        stepped = []

        def step(z, rec):
            stepped.append(z)
            if len(stepped) == 1:
                return rec(below, evidence)
            return len(z.elements)

        assert wfrec(power, step, top) == len(lower)
        stepped.clear()
        try:
            with validated_evidence():
                assert wfrec(power, step, top) == len(lower)
        except EvidenceError as error:
            if power.decide(below, top) is None:
                assert str(error).startswith(f"no descent from {top!r} to {below!r}")
            else:
                assert str(error) == "pow(nat): malformed list evidence"

    def test_long_list_holds_no_prefix_copies(self):
        # a step that never recurses keeps one handler per element alive,
        # not a prefix copy per element
        power = pow_relation(NAT)

        def peak(length):
            top = descending(NAT, range(length - 1, -1, -1))
            tracemalloc.start()
            try:
                wfrec(power, lambda z, _rec: len(z.elements), top)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for checking in (nullcontext(), validated_evidence()):
            with checking:
                assert peak(4000) < 6 * peak(1000)

    def test_long_list_leaves_no_cyclic_garbage_per_element(self):
        # one closure evaluation serves every element, so what the collector
        # frees afterwards does not grow with the list
        top = descending(NAT, range(1999, -1, -1))
        for checking in (nullcontext(), validated_evidence()):
            gc.collect()
            gc.disable()
            try:
                with checking:
                    wfrec(pow_relation(NAT), lambda z, _rec: len(z.elements), top)
                assert gc.collect() < 200
            finally:
                gc.enable()

    def test_long_list_keeps_few_objects_alive_per_element(self):
        top = descending(NAT, range(999, -1, -1))
        for checking in (nullcontext(), validated_evidence()):
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                with checking:
                    alive = wfrec(
                        pow_relation(NAT), lambda _z, _rec: len(gc.get_objects()) - before, top
                    )
            finally:
                gc.enable()
            assert alive < 20 * 1000

    def test_evaluations_opened_do_not_grow_with_the_list(self):
        power = pow_relation(NAT)

        def opened(length):
            top = descending(NAT, range(length - 1, -1, -1))
            first = next(core._opened)
            wfrec(power, lambda z, _rec: len(z.elements), top)
            return next(core._opened) - first

        for checking in (nullcontext(), validated_evidence()):
            with checking:
                assert opened(1) == opened(10) == opened(100)

    def test_predecessors_cover_exactly_the_lists_below(self):
        power = pow_relation(NAT)
        lists = all_descending_lists(4)
        for upper in lists:
            enumerated = {dl.elements for dl, _e in power.predecessors(upper)}
            expected = {
                dl.elements
                for dl in lists
                if power.decide(dl, upper) is not None
            }
            assert enumerated == expected

    def test_no_enumeration_without_one_for_the_elements(self):
        unlisted = WFRelation(carrier="unlisted", decide=nat_less_decide)
        power = pow_relation(unlisted)
        assert power.predecessors is None
        with pytest.raises(UndecidableError, match="has no predecessor enumeration"):
            fuzz_descent(power, descending(unlisted, (2, 0)))

    def test_fuzz_descent_within_rank_bound(self):
        power = pow_relation(NAT)
        start = descending(NAT, (3, 2, 1, 0))
        for seed in range(10):
            chain = fuzz_descent(power, start, seed=seed)
            assert len(chain) <= pow_nat_rank(start) + 1
            assert chain[-1].elements == ()


@settings(max_examples=40)
@given(nat_lists, nat_lists, nat_lists)
def test_append_is_associative_with_nil_unit(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + () == a


@given(nat_lists)
def test_reverse_involution(items):
    assert tuple(reversed(tuple(reversed(items)))) == items


def downward_closure_before(rel, seeds):
    # the power's universe as computed before the shared walk: the oracle
    seen, unhashable = set(), []
    closed = [seed for seed in seeds if first_visit(seen, unhashable, seed)]
    for element in closed:
        closed.extend(
            below
            for below, _e in rel.predecessors(element)
            if first_visit(seen, unhashable, below)
        )
    return tuple(closed)


def pow_predecessors_before(rel, upper):
    # the power's enumeration before it kept the evidence it decides while
    # growing each sequence: certificates come from is_descending
    def grow(sequence):
        yield sequence
        for element in universe:
            if not sequence or rel.decide(element, sequence[-1]) is not None:
                yield from grow(sequence + (element,))

    universe = downward_closure_before(rel, upper.elements)
    found = []
    for elements in grow(()):
        evidence = list_lex_decide(rel, elements, upper.elements)
        if evidence is not None:
            cert = is_descending(rel, elements)
            found.append((DescendingList(elements, cert), evidence))
    return tuple(found)


def shuffled_dag(rng, size):
    # predecessors come in a shuffled order, so the walk's order shows
    rel, _edges = random_dag(rng, size, 0.5)
    return with_enumerated_predecessors(rel, rng.sample(range(size), size))


def random_descent(rng, rel, size):
    # a strictly descending list: a random top, then random predecessors
    items = [rng.randrange(size)]
    while rng.random() < 0.7:
        below = rel.predecessors(items[-1])
        if not below:
            break
        items.append(rng.choice(below)[0])
    return descending(rel, items)


@given(st.integers(0, 2**32), st.integers(1, 9))
def test_downward_closure_matches_the_walk_before_the_shared_one(seed, size):
    rng = random.Random(seed)
    dag = shuffled_dag(rng, size)
    for rel in (dag, NAT):
        seeds = [rng.randrange(size) for _ in range(rng.randrange(4))]
        assert _downward_closure(rel, seeds) == downward_closure_before(rel, seeds)


@settings(deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_pow_predecessors_match_the_enumeration_before_kept_evidence(seed, size):
    rng = random.Random(seed)
    for rel in (shuffled_dag(rng, size), NAT):
        upper = random_descent(rng, rel, size)
        found = pow_relation(rel).predecessors(upper)
        assert found == pow_predecessors_before(rel, upper)
        for lower, _evidence in found:
            assert lower.cert == is_descending(rel, lower.elements)


@settings(deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5))
def test_rank_through_the_predecessors_matches_a_memoized_oracle(seed, size):
    # the step recurses on every list below its argument, so most calls
    # reach a list the evaluation has already stepped
    rng = random.Random(seed)
    for rel in (shuffled_dag(rng, size), NAT):
        power = pow_relation(rel)
        upper = random_descent(rng, rel, size)
        ranks = {}

        def oracle(z):
            if z.elements not in ranks:
                ranks[z.elements] = 1 + max(
                    (oracle(lower) for lower, _e in power.predecessors(z)), default=-1
                )
            return ranks[z.elements]

        stepped = []

        def rank(z, rec):
            stepped.append(z.elements)
            return 1 + max(
                (rec(lower, e) for lower, e in power.predecessors(z)), default=-1
            )

        for checking in (nullcontext(), validated_evidence()):
            stepped.clear()
            with checking:
                assert wfrec(power, rank, upper) == oracle(upper)
            assert sorted(stepped) == sorted(ranks)
