"""Well-founded relations as executable values.

A relation is bundled with a decision procedure producing *evidence* (a
concrete witness that one element lies below another), an optional finite
predecessor enumeration, and a recursion operator ``wfrec``.  A step
function may only recurse through the callback it is handed, and must
present evidence for every recursive call; evaluation always terminates
when the relation is genuinely well-founded.

Evidence values are ordinary data.  In release mode recursion never
inspects them; inside ``with validated_evidence():`` every recursive call
that the current thread and context make re-checks its evidence against
``decide``.

All recursion runs through one evaluator, whose one runner runs every step,
for composed relations too.  It memoizes step values per top-level call, so
every relation runs the step at most once per element, and frees the memo
on return; steps must be deterministic, as the recursion equation already
requires.  Its depth budget (env ``WFREC_DEPTH``, read once per top-level
call) counts every step and is shared by nested evaluators, such as the
columns of a lexicographic order: a step runs one level below the running
step, unless that one is the glue of an evaluation opened later.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence

Decide = Callable[[Any, Any], Any]
Rec = Callable[[Any, Any], Any]
StepFunction = Callable[[Any, Rec], Any]

DEFAULT_RECURSION_BUDGET = 2000
_STACK_FRAME_CEILING = 15000  # deeper segfaults CPython on this platform


class WellFoundedError(Exception):
    """Base class for errors raised by this package."""


class EvidenceError(WellFoundedError):
    """Evidence presented for a recursive call does not certify descent."""


class RecursionBudgetError(WellFoundedError):
    """A recursion exceeded the configured depth budget."""


class DescentBudgetError(WellFoundedError):
    """A descending walk failed to bottom out within its step budget."""


class UndecidableError(WellFoundedError):
    """The requested comparison cannot be decided with the data at hand."""


class IncomparableError(WellFoundedError):
    """Two elements that must be related by the carrier order are not."""


@dataclass(frozen=True)
class EqualWitness:
    """Unit witness standing in for a host-equality proof."""

    def __repr__(self) -> str:
        return "EQUAL"


EQUAL = EqualWitness()


def recursion_budget() -> int:
    """Logical depth budget for recursion operators (env ``WFREC_DEPTH``)."""
    try:
        value = int(os.environ.get("WFREC_DEPTH", DEFAULT_RECURSION_BUDGET))
    except ValueError:
        return DEFAULT_RECURSION_BUDGET
    return value if value > 0 else DEFAULT_RECURSION_BUDGET


_VALIDATING = ContextVar("validated_evidence", default=False)


@contextmanager
def validated_evidence():
    """Re-check the evidence of every recursive call inside the block, in
    this thread and context only: threads started inside run unvalidated."""
    token = _VALIDATING.set(True)
    try:
        yield
    finally:
        _VALIDATING.reset(token)


@dataclass(frozen=True)
class WFRelation:
    """A decidable well-founded relation packaged with its recursion operator.

    ``decide(lower, upper)`` returns evidence when ``lower`` lies strictly
    below ``upper`` and ``None`` otherwise; it must be irreflexive and
    asymmetric.  ``predecessors``, when present, enumerates every
    ``(element, evidence)`` pair strictly below its argument and must agree
    with ``decide``.  ``recursor`` implements the recursion operator; when
    absent a generic unfolding evaluator is used.
    """

    carrier: str
    decide: Decide
    predecessors: Optional[Callable[[Any], Sequence]] = None
    recursor: Optional[Callable[[StepFunction, Any], Any]] = None

    def wfrec(self, step: StepFunction, a: Any) -> Any:
        return _evaluate(step, a, self.recursor)

    def __repr__(self) -> str:
        return f"WFRelation({self.carrier})"


_threads = threading.local()  # per thread: the running step and the budget
_opened = itertools.count(1)  # numbers evaluations in the order they open
_MISS = object()  # what a memo lookup yields for an element it has not seen


def _evaluate(step: StepFunction, a: Any, recursor=None) -> Any:
    # The recursion evaluator.  ``memoized`` is its one runner of steps: it
    # runs the step at most once per element of this evaluation.  Without
    # a recursor the evaluator unfolds the recursion equation through it;
    # a recursor is handed it as the step.  The memo is freed on return.
    #
    # The per-thread ``running`` list holds the depth and the evaluation of
    # the innermost running step, and the budget, which only the top-level
    # evaluation reads (0 while none runs).  A step runs one below the
    # running step, unless that belongs to an evaluation opened after this
    # one: it is then a composed relation's glue (a lex column, a sum side,
    # a subrelation) handing this evaluation's step the element it stands
    # at, and the step runs at the same level.  Such hand-overs only reach
    # older evaluations, so no chain of them is endless.
    running = _threads.__dict__.setdefault("running", [-1, 0, 0])
    budget = running[2]
    top = not budget
    if top:
        budget = recursion_budget()
        frames = min(8 * budget + 500, _STACK_FRAME_CEILING)  # a few per level
        sys.setrecursionlimit(max(sys.getrecursionlimit(), frames))
        running[2] = budget
    memo: dict = {}
    mine = next(_opened)

    def memoized(x, rec):
        try:
            if x in memo:
                return memo[x]
        except TypeError:  # unhashable: stepped without the memo
            pass
        outer, owner, _budget = running
        depth = outer + 1 if owner <= mine else outer
        if depth > budget:
            raise _budget_error(budget)
        running[0] = depth
        running[1] = mine
        try:
            value = step(x, rec)
        finally:
            running[0] = outer
            running[1] = owner
        try:
            memo[x] = value
        except TypeError:
            pass
        return value

    try:
        if recursor is None:
            def rec(x, _evidence):
                return memoized(x, rec)

            return memoized(a, rec)

        def recall(x):
            try:
                return memo.get(x, _MISS)
            except TypeError:
                return _MISS

        memoized.recall = recall  # for handlers that can skip a chain walk
        return recursor(memoized, a)
    except RecursionError:
        raise RecursionBudgetError(
            f"Python stack exhausted before the depth budget of {budget} ran out"
        ) from None
    finally:
        memo.clear()
        if top:
            running[2] = 0


def _budget_error(budget: int) -> RecursionBudgetError:
    return RecursionBudgetError(
        f"descent deeper than {budget} (override with WFREC_DEPTH)"
    )


def _validating_step(rel: WFRelation, step: StepFunction) -> StepFunction:
    def wrapped(x, rec):
        def checked(x_next, evidence):
            if rel.decide(x_next, x) is None:
                raise EvidenceError(
                    f"no descent from {x!r} to {x_next!r} in {rel.carrier}"
                )
            return rec(x_next, evidence)

        return step(x, checked)

    return wrapped


def wfrec(rel: WFRelation, step: StepFunction, a: Any) -> Any:
    """Evaluate ``step`` by recursion over ``rel``.

    The result satisfies ``wfrec(rel, step, a) ==
    step(a, lambda x, e: wfrec(rel, step, x))`` and evaluation terminates.
    """
    if _VALIDATING.get():
        step = _validating_step(rel, step)
    return rel.wfrec(step, a)


# ---------------------------------------------------------------------------
# The ordering < on the natural numbers.

@dataclass(frozen=True, init=False)
class NatLessEvidence:
    """Witness that ``m < n`` built from ``m < n+1 = (m = n) + (m < n)``.

    The evidence for ``m < n`` is ``n - m - 1`` right injections wrapped
    around a left injection that carries an equality witness.  Only that
    number of wrappers, ``gap``, is stored, so evidence of any size takes
    constant space and time.  ``rest`` unfolds one wrapper on demand: it is
    the evidence for ``gap - 1``, or ``None`` at the leaf.
    ``NatLessEvidence(rest=e)`` wraps ``e`` in one more injection.
    """

    gap: int

    def __init__(self, rest: Optional["NatLessEvidence"] = None):
        object.__setattr__(self, "gap", 0 if rest is None else rest.gap + 1)

    @property
    def rest(self) -> Optional["NatLessEvidence"]:
        return _nat_evidence(self.gap - 1) if self.gap else None

    @property
    def equality(self) -> Optional[EqualWitness]:
        return EQUAL if self.gap == 0 else None

    def depth(self) -> int:
        return self.gap

    def __repr__(self) -> str:
        return "inr(" * self.gap + "inl(eq)" + ")" * self.gap


_NAT_LEAF = NatLessEvidence()  # immutable, so every m < m + 1 shares it


def _nat_evidence(gap: int) -> NatLessEvidence:
    if gap == 0:
        return _NAT_LEAF
    evidence = object.__new__(NatLessEvidence)
    object.__setattr__(evidence, "gap", gap)
    return evidence


def nat_less_decide(m: int, n: int) -> Optional[NatLessEvidence]:
    """Decide ``m < n``, returning the definitional evidence chain."""
    if not 0 <= m < n:
        return None
    return _nat_evidence(n - m - 1)


def _nat_predecessors(n: int):
    return tuple((m, _nat_evidence(n - m - 1)) for m in range(n))


def nat_less() -> WFRelation:
    """The relation ``<`` on the naturals (generic recursion operator)."""
    return WFRelation(
        carrier="nat",
        decide=nat_less_decide,
        predecessors=_nat_predecessors,
    )


def nat_wfrec(step: StepFunction, n: int) -> Any:
    """Course-of-values recursion on the naturals: the step may call back
    on any smaller natural.  Step values are memoized per call, so the step
    must be deterministic, as the recursion equation already requires; the
    depth budget is the ``WFREC_DEPTH`` budget shared by every evaluator."""
    return _evaluate(step, n)


def empty_relation(carrier: str = "unit") -> WFRelation:
    """The relation with no descents at all; every element is minimal."""

    def recursor(step, a):
        def rec(_x, _evidence):
            raise EvidenceError("the empty relation admits no recursive calls")

        return step(a, rec)

    return WFRelation(
        carrier=carrier,
        decide=lambda _lower, _upper: None,
        predecessors=lambda _x: (),
        recursor=recursor,
    )


# ---------------------------------------------------------------------------
# Test harnesses.

@dataclass
class RecursionReport:
    """Outcome of checking the recursion equation over a sample set."""

    total: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failed"
        return f"RecursionReport({self.total} samples, {status})"


def check_recursion_equation(rel: WFRelation, step: StepFunction, samples) -> RecursionReport:
    """Check ``wfrec(step, a) == step(a, (x, e) -> wfrec(step, x))`` on samples."""
    report = RecursionReport()
    for a in samples:
        report.total += 1
        recursed = wfrec(rel, step, a)
        unfolded = step(a, lambda x, _e: wfrec(rel, step, x))
        if recursed != unfolded:
            report.failures.append((a, recursed, unfolded))
    return report


def check_unique_solution(rel: WFRelation, step: StepFunction, candidate, elements) -> bool:
    """True iff ``candidate`` solves the recursion equation on a finite carrier.

    A candidate that solves the equation pointwise must coincide with the
    recursion operator everywhere; that is re-checked and a violation raises,
    since it would mean the relation is not actually well-founded.
    """
    elements = tuple(elements)
    look = candidate.__getitem__ if isinstance(candidate, Mapping) else candidate
    for a in elements:
        if look(a) != step(a, lambda x, _e: look(x)):
            return False
    for a in elements:
        expected = wfrec(rel, step, a)
        if look(a) != expected:
            raise AssertionError(
                f"solution table satisfies the equation but differs from wfrec at {a!r}"
            )
    return True


def with_enumerated_predecessors(rel: WFRelation, elements) -> WFRelation:
    """Equip a relation over a finite carrier with an explicit enumeration.

    Predecessors are found by filtering ``decide`` over ``elements``, so the
    decide/predecessors coherence law holds by construction.
    """
    pool = tuple(elements)

    def predecessors(upper):
        found = []
        for element in pool:
            evidence = rel.decide(element, upper)
            if evidence is not None:
                found.append((element, evidence))
        return tuple(found)

    return replace(rel, predecessors=predecessors)


def fuzz_descent(rel: WFRelation, start, max_steps: int = 10000, seed: int = 0) -> list:
    """Walk a seeded random strictly-descending chain from ``start``.

    Returns the chain (including ``start``) once an element with no
    predecessors is reached.  Raises ``DescentBudgetError`` if the chain
    would exceed ``max_steps`` elements, which signals either a budget too
    small or a relation that is not well-founded.
    """
    if rel.predecessors is None:
        raise UndecidableError(f"{rel.carrier} has no predecessor enumeration")
    rng = random.Random(seed)
    chain = [start]
    current = start
    while True:
        below = tuple(rel.predecessors(current))
        if not below:
            return chain
        if len(chain) >= max_steps:
            raise DescentBudgetError(
                f"no minimal element within {max_steps} steps from {start!r} in {rel.carrier}"
            )
        current = rng.choice(below)[0]
        chain.append(current)
