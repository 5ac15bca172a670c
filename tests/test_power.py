import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wellfounded import (
    BelowLeft,
    BelowSplit,
    DescendingList,
    EvidenceError,
    RecursionBudgetError,
    below_append_cases,
    check_recursion_equation,
    descending,
    fuzz_descent,
    is_descending,
    last_element_chain,
    list_lex_decide,
    nat_less,
    pow_nat_rank,
    pow_relation,
    prefix_below,
    snoc_fold,
    split_descent,
    transitive_closure,
    validate_chain,
    wfrec,
)
from wellfounded.checks import all_descending_lists
from wellfounded.power import NIL_BELOW, LexListEvidence, head_equal, head_less

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

        with pytest.raises(EvidenceError):
            DescendingList(elements=(2, 1), cert=DescentCert(steps=()))

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


class TestSnocFold:
    def test_sum(self):
        assert snoc_fold(0, lambda _prefix, last, acc: acc + last, (1, 2, 3)) == 6

    def test_nil_case(self):
        sentinel = object()
        assert snoc_fold(sentinel, lambda *_: None, ()) is sentinel

    @given(nat_lists)
    def test_rebuild_identity(self, items):
        rebuilt = snoc_fold((), lambda _prefix, last, acc: acc + (last,), items)
        assert rebuilt == items

    def test_range_prefixes_are_ranges(self):
        prefixes = snoc_fold((), lambda prefix, _last, acc: acc + (prefix,), range(3))
        assert prefixes == (range(0), range(1), range(2))

    @given(nat_lists)
    def test_snoc_equation(self, items):
        # value on l + [x] is the snoc case applied to the value on l
        def case(prefix, last, acc):
            return acc * 2 + last

        if items:
            assert snoc_fold(1, case, items) == case(
                items[:-1], items[-1], snoc_fold(1, case, items[:-1])
            )


class TestPrefixBelow:
    def test_empty_suffix_is_identity(self):
        evidence = list_lex_decide(NAT, (0,), (1,))
        assert prefix_below((0,), (), (1,), evidence) == evidence

    def test_strips_the_suffix(self):
        evidence = list_lex_decide(NAT, (1, 0), (2,))
        shrunk = prefix_below((1,), (0,), (2,), evidence)
        assert shrunk == list_lex_decide(NAT, (1,), (2,))

    def test_empty_prefix_gives_nil_evidence(self):
        evidence = list_lex_decide(NAT, (0, 1), (2, 2))
        assert prefix_below((), (0, 1), (2, 2), evidence).kind == "nil_below"

    @given(descending_sets, descending_sets)
    def test_result_always_revalidates(self, combined, target):
        for cut in range(len(combined) + 1):
            evidence = list_lex_decide(NAT, combined, target)
            if evidence is None:
                continue
            shrunk = prefix_below(combined[:cut], combined[cut:], target, evidence)
            assert shrunk == list_lex_decide(NAT, combined[:cut], target)


class TestBelowAppendCases:
    def test_split_through_the_equal_head(self):
        evidence = list_lex_decide(NAT, (2, 0), (2, 1))
        case = below_append_cases((2, 0), (2,), (1,), evidence)
        assert isinstance(case, BelowSplit)
        assert case.extension == (0,)
        assert case.evidence == list_lex_decide(NAT, (0,), (1,))

    def test_strictly_smaller_head_stays_left(self):
        evidence = list_lex_decide(NAT, (1,), (2, 9))
        case = below_append_cases((1,), (2,), (9,), evidence)
        assert isinstance(case, BelowLeft)
        assert case.evidence == list_lex_decide(NAT, (1,), (2,))

    def test_whole_left_part_splits_to_nil(self):
        evidence = list_lex_decide(NAT, (3, 1), (3, 1, 0))
        case = below_append_cases((3, 1), (3, 1), (0,), evidence)
        assert isinstance(case, BelowSplit)
        assert case.extension == ()
        assert case.evidence.kind == "nil_below"

    @given(descending_sets, descending_sets)
    def test_exactly_one_valid_branch(self, lower, target):
        for cut in range(len(target) + 1):
            left, right = target[:cut], target[cut:]
            evidence = list_lex_decide(NAT, lower, target)
            if evidence is None:
                continue
            case = below_append_cases(lower, left, right, evidence)
            if isinstance(case, BelowLeft):
                assert case.evidence == list_lex_decide(NAT, lower, left)
            else:
                assert lower == left + case.extension
                assert case.evidence == list_lex_decide(NAT, case.extension, right)


def recursive_prefix_below(prefix, suffix, target, evidence):
    # the lemma's definition by recursion on the prefix, kept as the oracle
    if not prefix:
        if not target:
            raise EvidenceError("no list lies below the empty list")
        return NIL_BELOW
    if evidence.kind == "head_less":
        return evidence
    if evidence.kind == "head_equal":
        rest = recursive_prefix_below(prefix[1:], suffix, target[1:], evidence.rest)
        return head_equal(rest)
    raise EvidenceError("nil evidence cannot describe a nonempty list")


def recursive_below_append_cases(lower, left, right, evidence):
    # the lemma's definition by recursion on the left part, kept as the oracle
    if not left:
        return BelowSplit(extension=lower, evidence=evidence)
    if evidence.kind == "nil_below":
        return BelowLeft(evidence=NIL_BELOW)
    if evidence.kind == "head_less":
        return BelowLeft(evidence=evidence)
    inner = recursive_below_append_cases(lower[1:], left[1:], right, evidence.rest)
    if isinstance(inner, BelowLeft):
        return BelowLeft(evidence=head_equal(inner.evidence))
    return inner


def outcome(lemma, *args):
    try:
        return lemma(*args)
    except (AttributeError, EvidenceError) as error:
        return type(error), str(error)


# any chain of lex evidence, well-formed or not: a chain may end in None,
# carry an unknown kind, or stack head_equal over nil_below
lex_evidence = st.recursive(
    st.sampled_from(
        [None, NIL_BELOW, head_less(NAT.decide(0, 1)), LexListEvidence(kind="bogus")]
    ),
    lambda rest: st.builds(
        LexListEvidence,
        kind=st.sampled_from(["head_equal", "head_less", "nil_below", "bogus"]),
        rest=rest,
    ),
    max_leaves=8,
)


class TestLemmaLoops:
    @given(descending_sets, descending_sets, st.integers(0, 6))
    def test_match_the_recursive_definitions_on_decided_evidence(self, lower, target, cut):
        evidence = list_lex_decide(NAT, lower, target)
        if evidence is None:
            return
        cut %= len(target) + 1
        left, right = target[:cut], target[cut:]
        assert below_append_cases(lower, left, right, evidence) == (
            recursive_below_append_cases(lower, left, right, evidence)
        )
        cut %= len(lower) + 1
        prefix, suffix = lower[:cut], lower[cut:]
        assert prefix_below(prefix, suffix, target, evidence) == (
            recursive_prefix_below(prefix, suffix, target, evidence)
        )

    @given(nat_lists, nat_lists, nat_lists, lex_evidence)
    def test_match_the_recursive_definitions_on_any_evidence(
        self, first, second, third, evidence
    ):
        assert outcome(below_append_cases, first, second, third, evidence) == (
            outcome(recursive_below_append_cases, first, second, third, evidence)
        )
        assert outcome(prefix_below, first, third, second, evidence) == (
            outcome(recursive_prefix_below, first, third, second, evidence)
        )

    def test_step_through_a_long_common_prefix(self, monkeypatch):
        # 2999..0 recurses once into 2999..1, whose lemmas walk a
        # 2999-element common prefix under a budget of 50 and a limit of 1000
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
            assert wfrec(power, step, top) == 3000
        finally:
            sys.setrecursionlimit(limit)


class TestSplitDescent:
    def test_split_both_parts(self):
        cert = is_descending(NAT, (2, 1, 0))
        left, right = split_descent((2, 1), (0,), cert)
        assert left == is_descending(NAT, (2, 1))
        assert right == is_descending(NAT, (0,))

    def test_empty_prefix(self):
        cert = is_descending(NAT, (3, 2))
        left, right = split_descent((), (3, 2), cert)
        assert left.steps == () and right == cert

    @given(descending_sets, st.integers(0, 6))
    def test_random_splits_revalidate(self, elements, raw_cut):
        cert = is_descending(NAT, elements)
        cut = raw_cut % (len(elements) + 1)
        left, right = split_descent(elements[:cut], elements[cut:], cert)
        assert left == is_descending(NAT, elements[:cut])
        assert right == is_descending(NAT, elements[cut:])


class TestLastElementChain:
    def test_single_step(self):
        evidence = list_lex_decide(NAT, (0,), (1,))
        chain = last_element_chain((), 0, 1, is_descending(NAT, (0,)), evidence)
        assert chain.nodes == (0, 1)
        assert validate_chain(NAT, chain)

    def test_through_a_prefix(self):
        evidence = list_lex_decide(NAT, (2, 1), (3,))
        chain = last_element_chain((2,), 1, 3, is_descending(NAT, (2, 1)), evidence)
        assert chain.lower == 1 and chain.upper == 3
        closure = transitive_closure(NAT)
        assert closure.decide(1, 3) is not None
        assert validate_chain(NAT, chain)

    def test_endpoints_exhaustively(self):
        for elements in (e.elements for e in all_descending_lists(5) if e.elements):
            for bound in range(6):
                evidence = list_lex_decide(NAT, elements, (bound,))
                if evidence is None:
                    continue
                prefix, last = elements[:-1], elements[-1]
                cert = is_descending(NAT, elements)
                chain = last_element_chain(prefix, last, bound, cert, evidence)
                assert chain.lower == last and chain.upper == bound
                assert validate_chain(NAT, chain)


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

    def test_budget_counts_every_step(self, monkeypatch):
        # each call drops one binary rank: rank r is r levels deep
        monkeypatch.setenv("WFREC_DEPTH", "50")
        power = pow_relation(NAT)

        def of_rank(rank):
            return descending(NAT, [e for e in range(12, -1, -1) if rank >> e & 1])

        def drop(z, rec):
            rank = pow_nat_rank(z)
            if rank == 0:
                return 0
            lower = of_rank(rank - 1)
            return 1 + rec(lower, power.decide(lower, z))

        with pytest.raises(RecursionBudgetError):
            wfrec(power, drop, of_rank(64))
        assert wfrec(power, drop, of_rank(40)) == 40

    def test_long_list_takes_no_frame_per_element(self, monkeypatch):
        # the recursor folds the list from the rear instead of recursing on it
        monkeypatch.setenv("WFREC_DEPTH", "50")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            top = descending(NAT, range(1999, -1, -1))
            length = wfrec(pow_relation(NAT), lambda z, _rec: len(z.elements), top)
        finally:
            sys.setrecursionlimit(limit)
        assert length == 2000

    def test_one_call_into_a_long_extension_takes_no_frame_per_link(self, monkeypatch):
        # from [1500] into 1499..0: the closure handler walks the 1500-link
        # chain below 1500 in a loop, not one nested call per link
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
            assert wfrec(power, step, top) == 1501
        finally:
            sys.setrecursionlimit(limit)

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

        assert peak(4000) < 6 * peak(1000)

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
