import itertools

import pytest
from hypothesis import given, strategies as st

from wellfounded import (
    App,
    DescentBudgetError,
    Var,
    ackermann,
    check_recursion_equation,
    expr_substructure,
    expr_vars,
    fib,
    quicksort,
    transitive_closure,
    validated_evidence,
    wfrec,
)
from wellfounded.checks import direct_ackermann, iterative_fib
from wellfounded.demos import (
    append,
    filter_below_cons,
    filter_list,
    length,
    list_length_order,
)


class TestListBasics:
    def test_length_of_nil(self):
        assert length(()) == 0

    def test_length_unfolds_by_one(self):
        for items in ((), (1,), (1, 2, 3)):
            assert length((0,) + items) == 1 + length(items)

    def test_length_counts_any_iterable(self):
        assert length(n for n in range(7)) == 7
        for items in ((1, 2, 3), [1, 2, 3], range(3, 9)):
            assert length(items) == len(items)

    def test_filter(self):
        assert filter_list(lambda n: n % 2 == 0, (1, 2, 3, 4)) == (2, 4)

    def test_append(self):
        assert append((1,), (2, 3)) == (1, 2, 3)

    @given(st.lists(st.integers(0, 9)).map(tuple))
    def test_filter_never_lengthens(self, items):
        assert length(filter_list(lambda n: n % 2 == 0, items)) <= length(items)


class TestFilterEvidence:
    def test_keep_everything(self):
        evidence = filter_below_cons(lambda _x: True, 0, (1, 2))
        assert evidence is not None and evidence.depth() == 0  # 2 < 3

    def test_keep_nothing_on_nil(self):
        evidence = filter_below_cons(lambda _x: False, 0, ())
        assert evidence is not None  # 0 < 1

    @given(st.lists(st.integers(0, 9)).map(tuple), st.integers(0, 9))
    def test_always_validates(self, items, head):
        order = list_length_order()
        keep = lambda n: n % 3 != 0
        evidence = filter_below_cons(keep, head, items)
        assert evidence is not None
        filtered = filter_list(keep, items)
        assert order.decide(filtered, (head,) + items) is not None


class TestQuicksort:
    def test_nil(self):
        assert quicksort(lambda a, b: a <= b, ()) == ()

    def test_singleton(self):
        assert quicksort(lambda a, b: a <= b, (5,)) == (5,)

    def test_duplicates(self):
        assert quicksort(lambda a, b: a <= b, (2, 1, 3, 1)) == (1, 1, 2, 3)

    def test_matches_reference_sort(self, rng):
        for _ in range(300):
            values = [rng.randrange(100) for _ in range(rng.randrange(51))]
            assert quicksort(lambda a, b: a <= b, values) == tuple(sorted(values))

    def test_filters_each_partition_once(self):
        calls = []

        def le(b, a):
            calls.append((b, a))
            return b <= a

        with validated_evidence():
            assert quicksort(le, range(30)) == tuple(range(30))
        assert len(calls) == 30 * 29 // 2  # one comparison per element of every tail

    def test_an_inconsistent_comparator_still_partitions(self):
        # answers True, False, False, ... regardless of its arguments
        answers = itertools.cycle((True, False, False))
        result = quicksort(lambda _b, _a: next(answers), range(20))
        assert sorted(result) == list(range(20))

    def test_unfolded_recursion_equations(self, rng):
        le = lambda a, b: a <= b
        for _ in range(100):
            items = tuple(rng.randrange(20) for _ in range(rng.randrange(1, 12)))
            head, tail = items[0], items[1:]
            front = filter_list(lambda b: le(b, head), tail)
            back = filter_list(lambda b: not le(b, head), tail)
            assert quicksort(le, items) == append(
                quicksort(le, front), (head,) + quicksort(le, back)
            )

    def test_step_satisfies_the_recursion_equation(self, rng):
        order = list_length_order()
        le = lambda a, b: a <= b

        def step(l, rec):
            if not l:
                return ()
            head, tail = l[0], l[1:]
            before = lambda b: le(b, head)
            after = lambda b: not le(b, head)
            return append(
                rec(filter_list(before, tail), filter_below_cons(before, head, tail)),
                (head,)
                + rec(filter_list(after, tail), filter_below_cons(after, head, tail)),
            )

        samples = [
            tuple(rng.randrange(10) for _ in range(rng.randrange(8)))
            for _ in range(40)
        ]
        report = check_recursion_equation(order, step, samples)
        assert report.ok


class TestNumericPrograms:
    def test_fibonacci_against_iterative_oracle(self):
        for n in range(31):
            assert fib(n) == iterative_fib(n)

    def test_ackermann_base_equation(self):
        for n in range(5):
            assert ackermann(0, n) == n + 1

    def test_ackermann_small_table(self):
        assert direct_ackermann(2, 3) == 9
        assert ackermann(2, 3) == 9
        for m in range(4):
            for n in range(4):
                assert ackermann(m, n) == direct_ackermann(m, n)

    def test_ackermann_value_budget(self):
        with pytest.raises(DescentBudgetError):
            ackermann(3, 3, value_budget=10)


class TestExpressions:
    def setup_method(self):
        self.x, self.y = Var("x"), Var("y")
        self.sub = expr_substructure()

    def test_immediate_subexpression(self):
        assert self.sub.decide(self.x, App("f", (self.x, self.y))) is not None

    def test_not_a_subexpression_of_itself(self):
        f = App("f", (self.x,))
        assert self.sub.decide(f, f) is None

    def test_proper_substructure_via_closure(self):
        proper = transitive_closure(self.sub)
        nested = App("f", (App("g", (self.x,)),))
        assert proper.decide(self.x, nested) is not None
        assert self.sub.decide(self.x, nested) is None

    def test_vars(self):
        expression = App("f", (self.x, App("g", (self.y, self.x))))
        assert expr_vars(expression) == frozenset({"x", "y"})

    def test_size_by_recursion(self):
        def size_step(e, rec):
            if isinstance(e, Var):
                return 1
            return 1 + sum(rec(a, self.sub.decide(a, e)) for a in set(e.args))

        tree = App("f", (self.x, App("g", (self.y,))))
        assert wfrec(self.sub, size_step, tree) == 4
