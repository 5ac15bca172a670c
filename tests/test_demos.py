import copy
import itertools
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import example, given, strategies as st

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
    unification_ordering,
    validated_evidence,
    wfrec,
)
from wellfounded.checks import direct_ackermann, iterative_fib
from wellfounded.wtree import WTree, leaf, subtree_decide
from wellfounded.demos import (
    _nodes,
    append,
    expr_to_wtree,
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

    def test_an_iterator_gives_the_evidence_of_its_tuple(self):
        keep = lambda b: b < 5
        from_tuple = filter_below_cons(keep, 9, (1, 7, 3))
        assert repr(from_tuple) == "inr(inl(eq))"  # 2 < 4
        assert filter_below_cons(keep, 9, iter([1, 7, 3])) == from_tuple

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

    def test_deep_expressions_take_no_frame_per_level(self):
        deep = self.x
        for _ in range(3000):
            deep = App("f", (deep, self.y))
        assert expr_vars(deep) == frozenset({"x", "y"})
        tree, levels = expr_to_wtree(deep), 0
        while tree.branches:
            assert tree.label == ("app", "f") and tree.branches[1] == leaf(("var", "y"))
            tree, levels = tree.branches[0], levels + 1
        assert (levels, tree.label) == (3000, ("var", "x"))
        assert self.sub.decide(deep.args[0], deep) == 0

    def test_deep_expressions_compare_hash_and_decide(self):
        def build():
            deep = self.x
            for _ in range(3000):
                deep = App("f", (deep,))
            return deep

        deep, again = build(), build()
        assert transitive_closure(self.sub).decide(deep.args[0], deep) is not None
        pairs = unification_ordering(self.sub, expr_vars)
        assert pairs.decide((deep.args[0], deep), (deep, deep)) is not None
        assert deep == again and hash(deep) == hash(again)
        assert deep != App("f", (again,)) and deep != again.args[0]
        assert repr(deep) == "f(" * 3000 + "x" + ")" * 3000
        evidence = repr(pairs.decide((deep.args[0], deep), (deep, deep)))
        assert evidence.startswith("UnifEvidence(") and "f(" * 3000 + "x" in evidence
        for copied in (pickle.loads(pickle.dumps(deep)), copy.deepcopy(deep)):
            assert copied == deep and copied is not deep


def substructure_predecessors_before(expression):
    # the enumeration as written before the first-occurrence rule, one tree
    # per argument: the oracle
    if isinstance(expression, Var):
        return ()
    tree = expr_to_wtree(expression)
    found = []
    for argument in expression.args:
        if all(argument != seen for seen, _e in found):
            found.append((argument, subtree_decide(expr_to_wtree(argument), tree)))
    return tuple(found)


# few names, so arguments repeat
expressions = st.recursive(
    st.sampled_from((Var("x"), Var("y"), App("c"))),
    lambda inner: st.builds(
        App, st.sampled_from(("f", "g")), st.lists(inner, max_size=4).map(tuple)
    ),
    max_leaves=12,
)


def recursive_vars_and_tree(expression):
    # the recursive definitions: the oracle for the stack walks
    if isinstance(expression, Var):
        return frozenset({expression.name}), leaf(("var", expression.name))
    parts = [recursive_vars_and_tree(a) for a in expression.args]
    names = frozenset().union(*(names for names, _tree in parts))
    return names, WTree(label=("app", expression.head), branches=tuple(t for _n, t in parts))


@given(expressions)
def test_stack_walks_match_the_recursive_definitions(expression):
    assert (expr_vars(expression), expr_to_wtree(expression)) == recursive_vars_and_tree(
        expression
    )


@dataclass(frozen=True)
class GeneratedApp:
    head: str
    args: tuple = ()


def generated(expression):
    # the same expression built from a class with the generated methods
    if isinstance(expression, Var):
        return expression
    return GeneratedApp(expression.head, tuple(generated(a) for a in expression.args))


def recursive_repr(expression):
    # App's printer before the term base, one frame per level: the oracle
    if not isinstance(expression, App):
        return repr(expression)
    if not expression.args:
        return expression.head
    return expression.head + "(" + ", ".join(recursive_repr(a) for a in expression.args) + ")"


@given(expressions, expressions)
def test_equality_and_hash_match_generated_methods(a, b):
    assert (a == b) == (generated(a) == generated(b))
    assert hash(a) == hash(generated(a))
    assert App("h", (a, b, a)) == App("h", (a, b, a))  # hashed and fresh nodes mixed
    assert hash(App("h", (a, b, a))) == hash(generated(App("h", (a, b, a))))
    assert repr(a) == recursive_repr(a)
    assert repr(App("h", (a, b, a))) == recursive_repr(App("h", (a, b, a)))
    if isinstance(a, App):  # the same label and branches in another term class
        assert a != WTree(a.head, a.args) and WTree(a.head, a.args) != a
    copied = pickle.loads(pickle.dumps(a))
    assert copied == a
    assert not any("_hash" in node.__dict__ for node in _nodes(copied) if isinstance(node, App))


@given(expressions)
@example(App("f", (Var("y"), Var("x"), Var("y"), App("g", (Var("x"),)), App("g", (Var("x"),)))))
def test_substructure_predecessors_match_the_tree_decision(expression):
    found = expr_substructure().predecessors(expression)
    assert found == substructure_predecessors_before(expression)
    tree = expr_to_wtree(expression)
    for argument, index in found:
        assert index == subtree_decide(expr_to_wtree(argument), tree)

