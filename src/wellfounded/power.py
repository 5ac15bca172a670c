"""Lexicographic exponentiation: strictly descending lists.

Raw lists under the head-first lexicographic order are not well-founded
(the chain ``[1], [0, 1], [0, 0, 1], ...`` keeps descending); restricting
the carrier to lists whose elements strictly descend repairs this.  A
``DescendingList`` pairs the elements with a certificate of that descent,
and the relation compares underlying lists lexicographically.

The recursion operator runs in one evaluation over the *transitive
closure* of the element order, started at the list's head, whose value at
an element is the closure's callback there.  A list's handler keeps the
callback at each of its elements.  A list below it shares those of the
common prefix its lexicographic evidence names, and reaches each later
element with one closure step: the evidence's head witness first, then the
list's own certificate links.  Each list is walked once, by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .core import _MISS, EvidenceError, UndecidableError, WFRelation
from .combinators import _inside, _walk_below, single_step, transitive_closure
from .wtree import _Hashed


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

@dataclass(frozen=True, eq=False, repr=False)
class LexListEvidence:
    """Witness that one list lies lexicographically below another.

    ``nil_below``: the empty list below any nonempty list.
    ``head_less``: strictly smaller head, with element evidence.
    ``head_equal``: equal heads, with a witness for the tails.

    Equality, hash and text walk the ``rest`` chain in a loop, so evidence
    over any number of common heads compares, hashes and prints; the
    results are those of the methods a frozen dataclass generates.
    """

    kind: str
    head_evidence: Any = None
    rest: Optional["LexListEvidence"] = None

    def _chain(self) -> list:
        # this node and the evidence below it, down to the last one whose
        # ``rest`` is not list evidence
        chain = [self]
        while chain[-1].rest.__class__ is self.__class__:
            chain.append(chain[-1].rest)
        return chain

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        kind = self.__class__
        a, b = self, other
        while a.__class__ is kind and b.__class__ is kind:
            if a is b:
                return True
            for x, y in ((a.kind, b.kind), (a.head_evidence, b.head_evidence)):
                if not (x is y or x == y):
                    return False
            a, b = a.rest, b.rest
        return a is b or a == b

    def __hash__(self):
        chain = self._chain()
        value = hash(chain[-1].rest)
        for node in reversed(chain):
            value = hash((node.kind, node.head_evidence, _Hashed(value)))
        return value

    def __repr__(self) -> str:
        chain = self._chain()
        name = self.__class__.__qualname__
        parts = [
            f"{name}(kind={node.kind!r}, head_evidence={node.head_evidence!r}, rest="
            for node in chain
        ]
        parts.append(repr(chain[-1].rest) + ")" * len(chain))
        return "".join(parts)


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
    common = 0  # heads equal so far; each wraps the evidence in head_equal
    for low, up in zip(lower, upper):
        evidence = rel.decide(low, up)
        if evidence is not None:
            evidence = head_less(evidence)
            break
        if low != up:
            return None
        common += 1
    else:
        if common == len(upper):
            return None
        evidence = NIL_BELOW
    for _ in range(common):
        evidence = head_equal(evidence)
    return evidence


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
        if rel.predecessors is None:
            raise UndecidableError(f"{name}: element relation has no enumeration")
        universe = _downward_closure(rel, upper.elements)
        found = []
        for elements, steps in _descending_sequences(rel, universe):
            evidence = list_lex_decide(rel, elements, upper.elements)
            if evidence is not None:
                found.append((DescendingList(elements, DescentCert(steps)), evidence))
        return tuple(found)

    def recursor(step, z: DescendingList):
        # The closure's value at an element is its callback.  A list's
        # handler keeps the callback at each of its elements; a list below
        # it shares the callbacks up to the divergence index, where it
        # leaves the list, and is walked down from there one closure step
        # per element: the head witness first, then its certificate links.
        def handler(elements, callbacks):
            def handle(lower: DescendingList, evidence):
                value = step.recall(lower)
                if value is not _MISS:
                    return value
                if not elements:
                    raise EvidenceError("nothing lies below the empty list")
                common = 0  # the divergence index
                while isinstance(evidence, LexListEvidence) and evidence.kind == "head_equal":
                    evidence, common = evidence.rest, common + 1
                kind = evidence.kind if isinstance(evidence, LexListEvidence) else None
                items = lower.elements
                reached = callbacks[:common]
                if kind == "head_less" and common < min(len(items), len(elements)):
                    head = items[common]
                    link = single_step(head, elements[common], evidence.head_evidence)
                    reached.append(callbacks[common](head, link))
                    descend(reached, items, lower.cert.steps, common + 1)
                elif not (kind == "nil_below" and common == len(items) < len(elements)):
                    raise EvidenceError(f"{name}: malformed list evidence")
                return step(lower, handler(items, reached))

            return handle

        def descend(callbacks, elements, links, start):
            # extend callbacks, which reach elements[:start], down the rest
            callback = callbacks[-1]
            for k in range(start, len(elements)):
                link = single_step(elements[k], elements[k - 1], links[k - 1])
                callback = callback(elements[k], link)
                callbacks.append(callback)
            return callbacks

        elements = z.elements
        if not elements:
            return step(z, handler(elements, []))

        def fold(head):
            # head is the closure's callback at the head of z
            return step(z, handler(elements, descend([head], elements, z.cert.steps, 1)))

        return _inside(closure, lambda _x, ih: ih, elements[0], fold)

    return WFRelation(
        carrier=name,
        decide=decide,
        predecessors=predecessors if rel.predecessors is not None else None,
        recursor=recursor,
    )


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
