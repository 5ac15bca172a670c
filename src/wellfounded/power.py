"""Lexicographic exponentiation: strictly descending lists.

Raw lists under the head-first lexicographic order are not well-founded
(the chain ``[1], [0, 1], [0, 0, 1], ...`` keeps descending); restricting
the carrier to lists whose elements strictly descend repairs this.  A
``DescendingList`` pairs the elements with a certificate of that descent,
and the relation compares underlying lists lexicographically.

The recursion operator derived here runs under ``validated_evidence()``;
a release run evaluates the list order flat.  It is ``core._transport``
along one evaluation of the *transitive closure* of the element order,
opened at the list's head, where the closure's value at an element is its
callback.  A list's handler holds the callback at each of its elements.  A
list below it shares those of the common prefix, whose length its
lexicographic evidence stores as one count, and reaches each later element
with one closure step: the evidence's head witness first, then the list's
own certificate links.  Each list is walked once, by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .core import EvidenceError, WFRelation, _derived, _transport
from .combinators import _walk_below, single_step, transitive_closure


@dataclass(frozen=True)
class DescentCert:
    """Certificate that a list strictly descends: one witness per adjacent pair."""

    steps: Tuple[Any, ...]


@dataclass(frozen=True)
class DescendingList:
    """A list whose elements strictly descend, carrying its certificate."""

    elements: Tuple[Any, ...]
    cert: DescentCert

    def __post_init__(self):
        if len(self.cert.steps) != max(len(self.elements) - 1, 0):
            raise EvidenceError("certificate length does not match the list")

    def __repr__(self) -> str:
        return "DescendingList" + repr(list(self.elements))


def is_descending(rel: WFRelation, items) -> Optional[DescentCert]:
    """Certify that adjacent elements strictly descend under ``rel``."""
    items = tuple(items)
    steps = []
    for left, right in zip(items, items[1:]):
        evidence = rel.decide(right, left)
        if evidence is None:
            return None
        steps.append(evidence)
    return DescentCert(steps=tuple(steps))


def descending(rel: WFRelation, items) -> DescendingList:
    """Checked constructor: validates the descent and packs the certificate."""
    items = tuple(items)
    cert = is_descending(rel, items)
    if cert is None:
        raise EvidenceError(f"not strictly descending under {rel.carrier}: {list(items)}")
    return DescendingList(elements=items, cert=cert)


# ---------------------------------------------------------------------------
# The head-first lexicographic order on raw lists.

@dataclass(frozen=True, init=False, repr=False)
class LexListEvidence:
    """Witness that one list lies lexicographically below another.

    ``nil_below``: the empty list below any nonempty list.
    ``head_less``: strictly smaller head, with element evidence.
    ``head_equal``: equal heads, with a witness for the tails.

    Only the number of ``head_equal`` wrappers, ``common``, and the terminal
    inside them are stored, as ``NatLessEvidence`` stores its ``gap``, so
    evidence over any number of common heads takes constant space and time.
    ``kind``, ``head_evidence`` and ``rest`` read the outermost wrapper, and
    ``rest`` unfolds one on demand.  A shape built by hand that no decision
    gives raises ``EvidenceError``.
    """

    common: int
    terminal: str
    terminal_evidence: Any

    def __init__(self, kind: str, head_evidence: Any = None, rest: Any = None):
        if kind == "head_equal" and head_evidence is None and isinstance(rest, LexListEvidence):
            common, kind, head_evidence = rest.common + 1, rest.terminal, rest.terminal_evidence
        elif rest is None and (kind, head_evidence is None) in _TERMINALS:
            common = 0
        else:
            raise EvidenceError(f"no list decision gives a {kind!r} witness of this shape")
        self.__dict__.update(common=common, terminal=kind, terminal_evidence=head_evidence)

    @property
    def kind(self) -> str:
        return "head_equal" if self.common else self.terminal

    @property
    def head_evidence(self) -> Any:
        return None if self.common else self.terminal_evidence

    @property
    def rest(self) -> Optional["LexListEvidence"]:
        if not self.common:
            return None
        return _list_evidence(self.common - 1, self.terminal, self.terminal_evidence)

    def __repr__(self) -> str:
        name = self.__class__.__qualname__
        wrapper = f"{name}(kind='head_equal', head_evidence=None, rest="
        leaf = f"{name}(kind={self.terminal!r}, head_evidence={self.terminal_evidence!r}, rest=None)"
        return wrapper * self.common + leaf + ")" * self.common


# each terminal kind, and whether it carries no element evidence
_TERMINALS = (("nil_below", True), ("head_less", False))


def _list_evidence(common: int, terminal: str, evidence) -> LexListEvidence:
    # the decisions' constructor, for shapes that are right by construction
    made = object.__new__(LexListEvidence)
    made.__dict__.update(common=common, terminal=terminal, terminal_evidence=evidence)
    return made


NIL_BELOW = LexListEvidence(kind="nil_below")


def head_less(evidence) -> LexListEvidence:
    return LexListEvidence(kind="head_less", head_evidence=evidence)


def head_equal(rest: LexListEvidence) -> LexListEvidence:
    return LexListEvidence(kind="head_equal", rest=rest)


def list_lex_decide(rel: WFRelation, lower, upper) -> Optional[LexListEvidence]:
    """Decide the unrestricted lexicographic order on raw lists.

    Nothing lies below the empty list; the empty list lies below any
    nonempty list; otherwise heads decide, with equal heads deferring to
    the tails.
    """
    lower, upper = tuple(lower), tuple(upper)
    common = 0  # heads equal so far
    for low, up in zip(lower, upper):
        evidence = rel.decide(low, up)
        if evidence is not None:
            return _list_evidence(common, "head_less", evidence)
        if low != up:
            return None
        common += 1
    if common == len(upper):
        return None
    return _list_evidence(common, "nil_below", None)


# ---------------------------------------------------------------------------
# The relation on descending lists.

def pow_relation(rel: WFRelation) -> WFRelation:
    """Descending lists over ``rel`` compared lexicographically.

    When the element order has order type a, this order has type 2^a.
    Predecessor enumeration is available whenever the element relation has
    one: the elements of any list below a descending list are drawn from
    the downward closure of its own elements.
    """
    name = f"pow({rel.carrier})"
    closure = transitive_closure(rel)

    def decide(lower: DescendingList, upper: DescendingList):
        return list_lex_decide(rel, lower.elements, upper.elements)

    def predecessors(upper: DescendingList):
        universe = _downward_closure(rel, upper.elements)
        found = []
        for elements, steps in _descending_sequences(rel, universe):
            evidence = list_lex_decide(rel, elements, upper.elements)
            if evidence is not None:
                found.append((DescendingList(elements, DescentCert(steps)), evidence))
        return tuple(found)

    def reach(state, lower: DescendingList, evidence):
        # state: a list's elements and the closure's callback at each
        elements, callbacks = state
        if not elements:
            raise EvidenceError("nothing lies below the empty list")
        if not isinstance(evidence, LexListEvidence):
            raise EvidenceError(f"{name}: malformed list evidence")
        common = evidence.common  # the divergence index
        items = lower.elements
        reached = callbacks[:common]
        if evidence.terminal == "head_less" and common < min(len(items), len(elements)):
            head = items[common]
            link = single_step(head, elements[common], evidence.terminal_evidence)
            reached.append(callbacks[common](head, link))
            _descend(reached, items, lower.cert.steps, common + 1)
        elif not (evidence.terminal == "nil_below" and common == len(items) < len(elements)):
            raise EvidenceError(f"{name}: malformed list evidence")
        return items, reached

    @_derived
    def recursor(step, z: DescendingList):
        elements = z.elements
        if not elements:
            return step(z, lambda lower, evidence: reach(((), []), lower, evidence))
        return _transport(
            step, z, closure, elements[0], reach,
            lambda head: (elements, _descend([head], elements, z.cert.steps, 1)),
        )

    return WFRelation(
        carrier=name,
        decide=decide,
        predecessors=predecessors if rel.predecessors is not None else None,
        recursor=recursor,
    )


def _descend(callbacks: list, elements, links, start: int) -> list:
    # extend callbacks, which reach elements[:start], down the rest of the
    # list: one closure step per certificate link
    callback = callbacks[-1]
    for k in range(start, len(elements)):
        callback = callback(elements[k], single_step(elements[k], elements[k - 1], links[k - 1]))
        callbacks.append(callback)
    return callbacks


def _downward_closure(rel: WFRelation, seeds) -> tuple:
    return tuple(record[0] for record in _walk_below(rel, seeds))


def _descending_sequences(rel: WFRelation, universe):
    # every strictly descending sequence drawn from the universe, with the
    # evidence for each adjacent pair, decided as the sequence grows
    def grow(sequence, steps):
        yield sequence, steps
        for element in universe:
            evidence = rel.decide(element, sequence[-1])
            if evidence is not None:
                yield from grow(sequence + (element,), steps + (evidence,))

    yield (), ()
    for element in universe:
        yield from grow((element,), ())


def pow_nat_rank(value: DescendingList) -> int:
    """Sum of 2^x over the elements; injective on descending nat lists."""
    rank = 0
    for element in value.elements:
        if element > 4096:
            raise OverflowError("rank exponent beyond the supported budget")
        rank += 1 << element
    return rank
