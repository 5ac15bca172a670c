"""Lexicographic exponentiation: strictly descending lists.

Raw lists under the head-first lexicographic order are not well-founded
(the chain ``[1], [0, 1], [0, 0, 1], ...`` keeps descending); restricting
the carrier to lists whose elements strictly descend repairs this.  A
``DescendingList`` pairs the elements with a certificate of that descent,
and the relation compares underlying lists lexicographically.

The recursion operator runs in one evaluation over the *transitive
closure* of the element order, started at the list's head: the fold over
the list and every append of smaller elements go through its callbacks.
The four lemma constructions (``prefix_below``, ``below_append_cases``,
``split_descent``, ``last_element_chain``) supply exactly the evidence
those appends need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from .core import _MISS, EvidenceError, UndecidableError, WFRelation
from .combinators import ChainEvidence, _inside, _walk_below, single_step, transitive_closure


@dataclass(frozen=True)
class DescentCert:
    """Certificate that a list strictly descends: one witness per adjacent pair."""

    steps: Tuple[Any, ...]


EMPTY_CERT = DescentCert(steps=())


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

@dataclass(frozen=True)
class LexListEvidence:
    """Witness that one list lies lexicographically below another.

    ``nil_below``: the empty list below any nonempty list.
    ``head_less``: strictly smaller head, with element evidence.
    ``head_equal``: equal heads, with a witness for the tails.
    """

    kind: str
    head_evidence: Any = None
    rest: Optional["LexListEvidence"] = None


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


def snoc_fold(nil_case, snoc_case: Callable[[tuple, Any, Any], Any], items):
    """Fold a list from the rear: ``nil_case`` for the empty list, and
    ``snoc_case(prefix, last, value_for_prefix)`` for each extension."""
    items = tuple(items)
    value = nil_case
    for position, last in enumerate(items):
        value = snoc_case(items[:position], last, value)
    return value


# ---------------------------------------------------------------------------
# Evidence lemmas.

def prefix_below(prefix, suffix, target, evidence: LexListEvidence) -> LexListEvidence:
    """From ``prefix + suffix`` below ``target``, conclude ``prefix`` below it."""
    prefix, target = tuple(prefix), tuple(target)
    common = 0  # equal heads walked so far; each wraps the result in head_equal
    for _ in prefix:
        if evidence.kind == "head_less":
            break
        if evidence.kind != "head_equal":
            raise EvidenceError("nil evidence cannot describe a nonempty list")
        evidence = evidence.rest
        common += 1
    else:
        if common >= len(target):
            raise EvidenceError("no list lies below the empty list")
        evidence = NIL_BELOW
    for _ in range(common):
        evidence = head_equal(evidence)
    return evidence


@dataclass(frozen=True)
class BelowLeft:
    """Case result: the whole list already sits below the left part."""

    evidence: LexListEvidence


@dataclass(frozen=True)
class BelowSplit:
    """Case result: the list extends the left part, and the extension sits
    below the right part."""

    extension: Tuple[Any, ...]
    evidence: LexListEvidence


def below_append_cases(lower, left, right, evidence: LexListEvidence):
    """Case-analyse ``lower`` below ``left + right``.

    Either ``lower`` is below ``left`` outright, or ``lower == left +
    extension`` with the extension below ``right``.
    """
    lower, left = tuple(lower), tuple(left)
    common = 0  # equal heads walked so far; each wraps the result in head_equal
    for _ in left:
        if evidence.kind == "nil_below":
            evidence = NIL_BELOW
            break
        if evidence.kind == "head_less":
            break
        evidence = evidence.rest
        common += 1
    else:
        return BelowSplit(extension=lower[common:], evidence=evidence)
    for _ in range(common):
        evidence = head_equal(evidence)
    return BelowLeft(evidence=evidence)


def split_descent(prefix, suffix, cert: DescentCert) -> Tuple[DescentCert, DescentCert]:
    """Split a certificate for ``prefix + suffix`` into one for each part."""
    prefix, suffix = tuple(prefix), tuple(suffix)
    if not prefix:
        return EMPTY_CERT, cert
    if not suffix:
        return cert, EMPTY_CERT
    cut = len(prefix) - 1
    return (
        DescentCert(steps=cert.steps[:cut]),
        DescentCert(steps=cert.steps[cut + 1 :]),
    )


def last_element_chain(prefix, last, bound, cert: DescentCert, evidence: LexListEvidence) -> ChainEvidence:
    """From ``prefix + [last]`` descending and below ``[bound]``, produce a
    descent chain ``last < ... < bound`` in the transitive closure.

    The head of ``prefix + [last]`` is strictly below ``bound`` (a one
    element target admits no equal-head case), and the certificate carries
    the elements down to ``last``.
    """
    prefix = tuple(prefix)
    if evidence.kind != "head_less":
        raise EvidenceError("a one-element target forces a strictly smaller head")
    if not prefix:
        return single_step(last, bound, evidence.head_evidence)
    nodes = tuple(reversed(prefix + (last,))) + (bound,)
    links = tuple(reversed(cert.steps)) + (evidence.head_evidence,)
    return ChainEvidence(nodes=nodes, links=links)


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
        def q1(x, ih):
            # ih(y, chain), kept as ``.ih``, is the append handler for any y
            # below x in the closure; the handler for items[:length] + [x]
            # slices its prefix only when a step recurses through it
            def append_handler(items, length, below_prefix):
                def with_cert(cert):
                    def handle(lower: DescendingList, lex_evidence):
                        value = step.recall(lower)
                        if value is not _MISS:
                            return value
                        prefix = items[:length]
                        case = below_append_cases(
                            lower.elements, prefix, (x,), lex_evidence
                        )
                        if isinstance(case, BelowLeft):
                            prefix_cert, _ = split_descent(prefix, (x,), cert)
                            return below_prefix(prefix_cert)(lower, case.evidence)
                        grow = extend(ih, prefix, below_prefix, x, case.extension)
                        return step(lower, grow(case.evidence)(lower.cert))

                    return handle

                return with_cert

            append_handler.ih = ih
            return append_handler

        def extend(ih, prefix, below_prefix, x, extension):
            # rebuild the handler for prefix + extension, one element at a time
            if not extension:
                return lambda _lex: below_prefix
            front, last = extension[:-1], extension[-1]

            def with_lex(lex_evidence):
                def with_cert(cert):
                    _, tail_cert = split_descent(prefix, front + (last,), cert)
                    chain = last_element_chain(
                        front, last, x, tail_cert, lex_evidence
                    )
                    shorter = extend(ih, prefix, below_prefix, x, front)(
                        prefix_below(front, (last,), (x,), lex_evidence)
                    )
                    before = prefix + front
                    return ih(last, chain)(before, len(before), shorter)(cert)

                return with_cert

            return with_lex

        def nothing_below(_cert):
            def handle(_lower, _evidence):
                raise EvidenceError("nothing lies below the empty list")

            return handle

        elements, links = z.elements, z.cert.steps
        if not elements:
            return step(z, nothing_below(z.cert))

        def fold(handler):
            # handler appends the head; each later element is reached through
            # the previous one's closure callback, with its certificate link
            below_prefix = handler(elements, 0, nothing_below)
            for k, link in enumerate(links):
                x = elements[k + 1]
                handler = handler.ih(x, single_step(x, elements[k], link))
                below_prefix = handler(elements, k + 1, below_prefix)
            return step(z, below_prefix(z.cert))

        return _inside(closure, q1, elements[0], fold)

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
