"""Worked programs driven by the recursion operators.

Quicksort recurses on the length measure of its list, Fibonacci is
course-of-values recursion on the naturals, and Ackermann descends through
the lexicographic product of two copies of ``<``.  Each recursive call
carries explicit evidence, built by hand where the construction is
instructive.  A small first-order expression type feeds the unification
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple

from .core import (
    DescentBudgetError,
    NatLessEvidence,
    WFRelation,
    nat_less,
    nat_less_decide,
    nat_wfrec,
    wfrec,
)
from .combinators import inverse_image, lex_first, lex_product, lex_second
from .wtree import WTree, leaf, subtree_decide, wtree_relation


def length(items) -> int:
    """The number of items: ``len`` when the argument has one, otherwise a
    count by iteration (a generator is consumed)."""
    try:
        return len(items)
    except TypeError:
        return sum(1 for _ in items)


def filter_list(keep: Callable[[Any], bool], items) -> tuple:
    return tuple(item for item in items if keep(item))


def append(front, back) -> tuple:
    return tuple(front) + tuple(back)


def list_length_order() -> WFRelation:
    """Lists compared by length: the inverse image of ``<`` under ``length``."""
    return inverse_image(nat_less(), length, carrier="list-by-length")


def filter_below_cons(keep, head, items) -> NatLessEvidence:
    """Evidence that filtering ``items`` stays shorter than ``head`` consed on.

    Filtering never lengthens a list, so the filtered length is always
    strictly below ``length(items) + 1``.
    """
    return nat_less_decide(length(filter_list(keep, items)), length(items) + 1)


def quicksort(le: Callable[[Any, Any], bool], items) -> tuple:
    """Sort by recursion on the length measure.

    ``le(b, a)`` reads "b is less than or equal to a"; elements equal under
    the ordering land in the front partition.  Each tail is partitioned in
    one pass that asks ``le(b, head)`` once per element, so the two parts
    always split the tail; each part's evidence is ``length(part) <
    length(tail) + 1``, the bound that ``filter_below_cons`` states.
    """
    order = list_length_order()

    def step(l, rec):
        if not l:
            return ()
        head, tail = l[0], l[1:]
        smaller, larger = [], []
        for b in tail:
            (smaller if le(b, head) else larger).append(b)
        smaller, larger = tuple(smaller), tuple(larger)
        bound = length(tail) + 1
        front = rec(smaller, nat_less_decide(length(smaller), bound))
        back = rec(larger, nat_less_decide(length(larger), bound))
        return append(front, (head,) + back)

    return wfrec(order, step, tuple(items))


def fib(n: int) -> int:
    """Fibonacci by course-of-values recursion; evidence built by hand."""

    def step(k, rec):
        if k < 2:
            return k
        one_below = NatLessEvidence()
        two_below = NatLessEvidence(rest=NatLessEvidence())
        return rec(k - 1, one_below) + rec(k - 2, two_below)

    return nat_wfrec(step, n)


def ackermann(m: int, n: int, value_budget: int = 10**6) -> int:
    """Ackermann by recursion over the lexicographic product of ``<`` with
    itself: the outer call drops the first component, the inner call keeps
    it and drops the second.  The pair evidence is spelled out at each call."""
    order = lex_product(nat_less(), nat_less())

    def step(pair, rec):
        first, second = pair
        if first == 0:
            return second + 1
        if second == 0:
            return rec((first - 1, 1), lex_first(nat_less_decide(first - 1, first)))
        inner = rec(
            (first, second - 1), lex_second(nat_less_decide(second - 1, second))
        )
        if inner > value_budget:
            raise DescentBudgetError(
                f"ackermann intermediate value exceeded {value_budget}"
            )
        return rec((first - 1, inner), lex_first(nat_less_decide(first - 1, first)))

    return wfrec(order, step, (m, n))


# ---------------------------------------------------------------------------
# First-order expressions.

@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    head: str
    args: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.head
        return self.head + "(" + ", ".join(repr(a) for a in self.args) + ")"


def expr_vars(expression) -> frozenset:
    if isinstance(expression, Var):
        return frozenset({expression.name})
    names: frozenset = frozenset()
    for argument in expression.args:
        names |= expr_vars(argument)
    return names


def expr_to_wtree(expression) -> WTree:
    if isinstance(expression, Var):
        return leaf(("var", expression.name))
    return WTree(
        label=("app", expression.head),
        branches=tuple(expr_to_wtree(a) for a in expression.args),
    )


def expr_substructure() -> WFRelation:
    """Immediate-subexpression order, read off the tree embedding.

    The embedding is injective, so deciding on trees decides on
    expressions; predecessors enumerate the argument list directly.
    """
    trees = wtree_relation()

    def predecessors(expression):
        if isinstance(expression, Var):
            return ()
        tree = expr_to_wtree(expression)
        found = []
        for argument in expression.args:
            if all(argument != seen for seen, _e in found):
                found.append(
                    (argument, subtree_decide(expr_to_wtree(argument), tree))
                )
        return tuple(found)

    return inverse_image(
        trees, expr_to_wtree, carrier="expr-substructure", predecessors=predecessors
    )
