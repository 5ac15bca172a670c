import os
import subprocess
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import wellfounded
from wellfounded import (
    EQUAL,
    DescentBudgetError,
    EvidenceError,
    NatLessEvidence,
    RecursionBudgetError,
    WFRelation,
    check_recursion_equation,
    check_unique_solution,
    empty_relation,
    fuzz_descent,
    nat_less,
    nat_less_decide,
    nat_wfrec,
    validated_evidence,
    wfrec,
    with_enumerated_predecessors,
)
from wellfounded.checks import direct_ackermann, fib_step, iterative_fib
from wellfounded.combinators import (
    Inl,
    Inr,
    disjoint_sum,
    inverse_image,
    lex_first,
    lex_product,
    lex_second,
    single_step,
    subrelation,
    transitive_closure,
)


def ackermann_step(pair, rec):
    m, n = pair
    if m == 0:
        return n + 1
    if n == 0:
        return rec((m - 1, 1), lex_first(nat_less_decide(m - 1, m)))
    inner = rec((m, n - 1), lex_second(nat_less_decide(n - 1, n)))
    return rec((m - 1, inner), lex_first(nat_less_decide(m - 1, m)))


def cheating(n, rec):
    # climbs 1, 2, 3 over nat_less with a leaf for evidence
    if n < 3:
        return rec(n + 1, NatLessEvidence())
    return 0


class TestWfrec:
    def test_course_of_values_fibonacci(self):
        assert iterative_fib(10) == 55
        assert wfrec(nat_less(), fib_step, 10) == 55

    def test_constant_step_at_zero(self):
        def constant(n, _rec):
            return 7

        assert wfrec(nat_less(), constant, 0) == 7

    def test_ackermann_over_lex_product(self):
        assert direct_ackermann(2, 3) == 9
        order = lex_product(nat_less(), nat_less())
        assert wfrec(order, ackermann_step, (2, 3)) == 9

    def test_validation_rejects_bogus_evidence(self):
        with validated_evidence():
            with pytest.raises(EvidenceError):
                wfrec(nat_less(), cheating, 1)


def column_then_drop(top):
    # run the second component down to 0, then drop to (m - 1, top);
    # the value is the number of recursive calls made
    def step(pair, rec):
        m, n = pair
        if n > 0:
            return 1 + rec((m, n - 1), lex_second(nat_less_decide(n - 1, n)))
        if m > 0:
            return 1 + rec((m - 1, top), lex_first(nat_less_decide(m - 1, m)))
        return 0

    return step


def descend(order, below):
    # one level per call, to below(x) until it is None; the value is the
    # number of levels
    def step(x, rec):
        lower = below(x)
        return 0 if lower is None else 1 + rec(lower, order.decide(lower, x))

    return step


def one_below(base):
    # the subrelation m + 1 == n of base
    return subrelation(
        base,
        embed=lambda low, up, _e: base.decide(low, up),
        sub_decide=lambda low, up: EQUAL if low + 1 == up else None,
    )


def nat_below(n):
    return n - 1 if n else None


def right_then_left(z):
    # Inr(m) down to Inr(0), a jump to Inl(24), then down to Inl(0)
    if isinstance(z, Inr):
        return Inr(z.value - 1) if z.value else Inl(24)
    return Inl(z.value - 1) if z.value else None


# name: (order, below, the start that is exactly this many levels deep)
DESCENTS = {
    "nat": (nat_less(), nat_below, int),
    "subrelation": (one_below(nat_less()), nat_below, int),
    "inverse-image": (
        inverse_image(nat_less(), len),
        lambda xs: xs[1:] if xs else None,
        lambda levels: tuple(range(levels)),
    ),
    "sum-right-to-left": (
        disjoint_sum(nat_less(), nat_less()),
        right_then_left,
        lambda levels: Inr(levels - 25),
    ),
    "closure": (transitive_closure(nat_less()), nat_below, int),
    "subrelation-of-subrelation": (
        one_below(one_below(nat_less())),
        nat_below,
        int,
    ),
    "closure-of-enumerated-subrelation": (
        transitive_closure(
            with_enumerated_predecessors(one_below(nat_less()), range(60))
        ),
        nat_below,
        int,
    ),
}


class TestEvaluator:
    @pytest.mark.parametrize("name", list(DESCENTS))
    def test_a_descent_of_exactly_the_budget_evaluates(self, monkeypatch, name):
        monkeypatch.setenv("WFREC_DEPTH", "50")
        order, below, start = DESCENTS[name]
        step = descend(order, below)
        assert wfrec(order, step, start(50)) == 50
        with pytest.raises(RecursionBudgetError):
            wfrec(order, step, start(51))

    def test_deep_budgets_fit_the_frame_ceiling(self):
        # In a fresh interpreter the frame ceiling holds a nat chain of 4998
        # levels (4997 on Python 3.10) and the lex descent from (1, 1248);
        # one more frame per level would cut the chain to about 3750.
        script = (
            "from test_core import *\n"
            "assert wfrec(nat_less(), descend(nat_less(), nat_below), 4990) == 4990\n"
            "order = lex_product(nat_less(), nat_less())\n"
            "assert wfrec(order, column_then_drop(1245), (1, 1245)) == 2491\n"
        )
        src = os.path.dirname(os.path.dirname(wellfounded.__file__))
        path = os.pathsep.join([os.path.dirname(__file__), src])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, WFREC_DEPTH="5000", PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_deep_descents_raise_the_budget_error(self):
        with pytest.raises(RecursionBudgetError):
            nat_wfrec(fib_step, 5000)
        with pytest.raises(RecursionBudgetError):
            wfrec(nat_less(), fib_step, 5000)

    def test_lex_columns_share_the_budget(self):
        order = lex_product(nat_less(), nat_less())
        with pytest.raises(RecursionBudgetError):
            wfrec(order, column_then_drop(1500), (3, 1500))

    def test_budget_counts_the_whole_composed_descent(self, monkeypatch):
        monkeypatch.setenv("WFREC_DEPTH", "50")
        order = lex_product(nat_less(), nat_less())
        step = column_then_drop(30)
        with pytest.raises(RecursionBudgetError):
            wfrec(order, step, (1, 30))  # 30 + 1 + 30 levels
        assert wfrec(order, step, (1, 15)) == 46  # 15 + 1 + 30 levels

    def test_budget_counts_steps_under_the_closure(self, monkeypatch):
        # the closure runs the step outside the lex evaluator's frames
        monkeypatch.setenv("WFREC_DEPTH", "50")
        order = transitive_closure(lex_product(nat_less(), nat_less()))
        inner = column_then_drop(30)

        def step(pair, rec):
            return inner(pair, lambda lower, e: rec(lower, single_step(lower, pair, e)))

        with pytest.raises(RecursionBudgetError):
            wfrec(order, step, (1, 30))  # 30 + 1 + 30 levels
        assert wfrec(order, step, (1, 15)) == 46
        # a recursor that is another relation's wfrec wraps each step
        # twice, and still charges it once
        rewrapped = replace(order, recursor=order.wfrec)
        assert wfrec(rewrapped, step, (1, 15)) == 46

    def test_budget_is_read_once_per_top_level_call(self, monkeypatch):
        monkeypatch.setenv("WFREC_DEPTH", "50")
        order = lex_product(nat_less(), nat_less())
        inner = column_then_drop(30)

        def step(pair, rec):
            os.environ["WFREC_DEPTH"] = "5"  # not seen by the nested columns
            return inner(pair, rec)

        assert wfrec(order, step, (1, 15)) == 46

    def test_stack_exhaustion_is_a_budget_error(self, monkeypatch):
        # a budget beyond what the Python stack holds
        monkeypatch.setenv("WFREC_DEPTH", "1000000")

        def chain(n, rec):
            return 0 if n == 0 else 1 + rec(n - 1, nat_less_decide(n - 1, n))

        with pytest.raises(RecursionBudgetError):
            nat_wfrec(chain, 50000)

    def test_each_element_steps_once_per_call(self):
        calls = []

        def census(x, rec):
            calls.append(x)
            return 1 + sum(rec(y, nat_less_decide(y, x)) for y in range(x))

        assert wfrec(nat_less(), census, 12) == 2 ** 12
        assert sorted(calls) == list(range(13))

    def test_unhashable_elements_unfold_without_the_memo(self):
        by_length = WFRelation(
            carrier="list-by-length",
            decide=lambda lower, upper: nat_less_decide(len(lower), len(upper)),
        )

        def total(items, rec):
            if not items:
                return 0
            return items[0] + rec(items[1:], by_length.decide(items[1:], items))

        assert wfrec(by_length, total, [1, 2, 3, 4]) == 10

    def test_memoized_elements_still_have_their_evidence_checked(self):
        by_length = WFRelation(
            carrier="tuple-by-length",
            decide=lambda lower, upper: nat_less_decide(len(lower), len(upper)),
        )

        def step(items, rec):
            if len(items) == 3:
                return rec((9, 9), None) + rec((7,), None)
            if items == (7,):
                return rec((9, 9), None)  # up to an element already in the memo
            return len(items)

        assert wfrec(by_length, step, (1, 2, 3)) == 4
        with validated_evidence():
            with pytest.raises(EvidenceError):
                wfrec(by_length, step, (1, 2, 3))


class TestEvidenceSwitch:
    def test_threads_started_inside_the_block_run_unvalidated(self):
        results = []
        with validated_evidence():
            worker = threading.Thread(
                target=lambda: results.append(wfrec(nat_less(), cheating, 1))
            )
            worker.start()
            worker.join()
        assert results == [0]

    def test_a_validating_thread_leaves_the_others_unvalidated(self):
        entered, release = threading.Event(), threading.Event()

        def validating():
            with validated_evidence():
                entered.set()
                release.wait(10)

        worker = threading.Thread(target=validating)
        worker.start()
        try:
            assert entered.wait(10)
            assert wfrec(nat_less(), cheating, 1) == 0
        finally:
            release.set()
            worker.join()


class TestNatLessDecide:
    def test_adjacent_is_the_equality_leaf(self):
        evidence = nat_less_decide(2, 3)
        assert evidence is not None
        assert evidence.rest is None
        assert evidence.equality is not None

    def test_irreflexive(self):
        assert nat_less_decide(3, 3) is None

    def test_three_unfoldings(self):
        evidence = nat_less_decide(0, 3)
        assert evidence == NatLessEvidence(
            rest=NatLessEvidence(rest=NatLessEvidence())
        )
        assert evidence.depth() == 2

    def test_chain_depth_matches_distance(self):
        for m in range(6):
            for n in range(m + 1, 8):
                assert nat_less_decide(m, n).depth() == n - m - 1

    def test_deep_evidence_prints_compares_and_hashes(self):
        deep = nat_less_decide(0, 10**5)
        gap = 10**5 - 1
        assert repr(deep) == "inr(" * gap + "inl(eq)" + ")" * gap
        assert deep == nat_less_decide(7, 10**5 + 7)
        assert deep != nat_less_decide(0, 10**5 - 1)
        assert hash(deep) == hash(nat_less_decide(7, 10**5 + 7))
        assert deep.depth() == gap

    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))
    def test_rest_unfolds_every_wrapper(self, pair):
        m, n = pair
        evidence, wrappers = nat_less_decide(m, n), 0
        while evidence.rest is not None:
            assert evidence.equality is None
            evidence, wrappers = evidence.rest, wrappers + 1
        assert wrappers == n - m - 1
        assert evidence.equality is EQUAL

    def test_equals_the_hand_nested_chain(self):
        def recursive_repr(evidence):  # the form of the unary chain's repr
            if evidence.rest:
                return "inr(" + recursive_repr(evidence.rest) + ")"
            return "inl(eq)"

        nested = NatLessEvidence()
        for gap in range(40):
            decided = nat_less_decide(3, gap + 4)
            assert decided == nested and hash(decided) == hash(nested)
            assert nested.depth() == gap
            assert repr(decided) == repr(nested) == recursive_repr(nested)
            assert decided != NatLessEvidence(rest=nested)
            nested = NatLessEvidence(rest=nested)

    def test_evidence_is_immutable(self):
        evidence = nat_less_decide(0, 3)
        with pytest.raises(AttributeError):
            evidence.gap = 0
        with pytest.raises(AttributeError):
            evidence.rest = None
        assert evidence.depth() == 2

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_host_comparison(self, m, n):
        assert (nat_less_decide(m, n) is not None) == (m < n)

    @given(st.integers(0, 25), st.integers(0, 25))
    def test_asymmetric(self, m, n):
        if nat_less_decide(m, n) is not None:
            assert nat_less_decide(n, m) is None


class TestNatWfrec:
    def test_fibonacci(self):
        assert nat_wfrec(fib_step, 10) == 55
        for n in range(25):
            assert nat_wfrec(fib_step, n) == iterative_fib(n)

    def test_step_ignoring_rec(self):
        assert nat_wfrec(lambda n, _rec: n, 4) == 4

    def test_agreement_with_generic_operator(self):
        def triangular(n, rec):
            return 0 if n == 0 else n + rec(n - 1, nat_less_decide(n - 1, n))

        nat = nat_less()
        for n in range(51):
            assert nat_wfrec(triangular, n) == wfrec(nat, triangular, n)
        for n in range(21):
            assert nat_wfrec(fib_step, n) == wfrec(nat, fib_step, n)


class TestEmptyRelation:
    def test_never_decides(self):
        unit = empty_relation()
        assert unit.decide("u", "u") is None

    def test_wfrec_is_one_step(self):
        unit = empty_relation()
        assert wfrec(unit, lambda x, _rec: (x, "done"), "u") == ("u", "done")

    def test_rec_is_uncallable(self):
        unit = empty_relation()

        def misbehaving(x, rec):
            return rec(x, None)

        with pytest.raises(EvidenceError):
            wfrec(unit, misbehaving, "u")

    def test_no_predecessors(self):
        assert empty_relation().predecessors("u") == ()


class TestRecursionEquationHarness:
    def test_fibonacci_passes(self):
        report = check_recursion_equation(nat_less(), fib_step, range(21))
        assert report.ok and report.total == 21

    def test_constant_on_empty_relation(self):
        report = check_recursion_equation(
            empty_relation(), lambda x, _rec: 1, ["u"]
        )
        assert report.ok

    def test_detects_a_broken_operator(self):
        from dataclasses import replace

        broken = replace(
            nat_less(), recursor=lambda step, a: -1  # ignores the step entirely
        )
        report = check_recursion_equation(broken, fib_step, range(3))
        assert not report.ok


class TestUniqueSolution:
    def test_oracle_table_is_the_solution(self):
        table = {n: iterative_fib(n) for n in range(6)}
        assert check_unique_solution(nat_less(), fib_step, table, range(6))

    def test_perturbed_table_fails(self):
        table = {n: iterative_fib(n) for n in range(6)}
        table[3] += 1
        assert not check_unique_solution(nat_less(), fib_step, table, range(6))

    def test_wfrec_table_is_the_solution(self):
        nat = nat_less()
        table = {n: wfrec(nat, fib_step, n) for n in range(6)}
        assert check_unique_solution(nat, fib_step, table, range(6))


class TestFuzzDescent:
    def test_nat_chain_bottoms_out(self):
        chain = fuzz_descent(nat_less(), 9, seed=0)
        assert chain[0] == 9 and chain[-1] == 0
        assert len(chain) <= 10
        assert all(b < a for a, b in zip(chain, chain[1:]))

    def test_empty_relation_chain_is_the_start(self):
        assert fuzz_descent(empty_relation(), "u", seed=3) == ["u"]

    def test_budget_exhaustion_reports(self):
        with pytest.raises(DescentBudgetError):
            fuzz_descent(nat_less(), 50, max_steps=3, seed=0)

    def test_same_seed_same_chain(self):
        first = fuzz_descent(nat_less(), 30, seed=11)
        second = fuzz_descent(nat_less(), 30, seed=11)
        assert first == second


class TestCoherence:
    def test_predecessors_match_decide(self):
        nat = nat_less()
        for n in range(10):
            below = dict(nat.predecessors(n))
            for m in range(12):
                if nat.decide(m, n) is not None:
                    assert m in below
                else:
                    assert m not in below
