"""Relation transformers: each takes well-founded relations and produces a
new one whose recursion operator is assembled from the inputs' operators,
so termination is inherited rather than re-proved.  These derived
recursors run under ``validated_evidence()``; a release run evaluates the
relation flat.  They open evaluations only through ``core``: an inverse
image and a closure pull back along their base with ``_transport``; a lex
order opens its first components on the callback step and each column, as
a sum each side, with ``_recall_or_open``.

The evidence type of each construction mirrors its defining equations:
sums carry tagged injections, lexicographic pairs carry a first-component
witness or an equality plus second-component witness, transitive closures
carry explicit descent chains.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .core import (
    EQUAL,
    EqualWitness,
    EvidenceError,
    UndecidableError,
    WFRelation,
    _derived,
    _open,
    _recall_or_open,
    _transport,
    wfrec,
)


def subrelation(
    base: WFRelation,
    embed: Callable[[Any, Any, Any], Any],
    sub_decide: Callable[[Any, Any], Any],
    carrier: Optional[str] = None,
) -> WFRelation:
    """Restrict ``base`` to a sub-relation decided by ``sub_decide``.

    ``embed(lower, upper, sub_evidence)`` must convert sub-relation evidence
    into evidence for ``base``; recursion delegates to ``base`` through that
    conversion.
    """
    name = carrier or f"sub({base.carrier})"

    @_derived
    def recursor(step, a):
        def s(x, ih):
            return step(x, lambda x_next, lt: ih(x_next, embed(x_next, x, lt)))

        # the one glue that validates: wfrec re-checks each embedded descent
        return wfrec(base, s, a)

    return WFRelation(carrier=name, decide=sub_decide, recursor=recursor)


def inverse_image(
    base: WFRelation,
    measure: Callable[[Any], Any],
    carrier: Optional[str] = None,
    predecessors=None,
) -> WFRelation:
    """Pull ``base`` back along a measure: ``x' < x`` iff ``m(x') < m(x)``.

    Evidence is the base evidence between the measures.  ``predecessors``
    is optional because a measure is rarely invertible; supply one when the
    source carrier supports enumeration.
    """
    name = carrier or f"inv({base.carrier})"

    def decide(lower, upper):
        return base.decide(measure(lower), measure(upper))

    def reach(ih, x_next, evidence):
        return ih(measure(x_next), evidence)  # the base callback at the measure

    @_derived
    def recursor(step, a):
        return _transport(step, a, base, measure(a), reach)

    return WFRelation(
        carrier=name, decide=decide, predecessors=predecessors, recursor=recursor
    )


# ---------------------------------------------------------------------------
# Transitive closure.

class ChainEvidence:
    """A descent chain ``x' = n0 < n1 < ... < nk = x`` with per-link evidence.

    A chain that a search returns is a view of the search's records: its
    lower end's ``(node, link to its parent, parent, depth)`` record, whose
    parents lead up to ``x``.  ``lower`` and ``len`` read in O(1), and
    ``nodes`` and ``links`` are built on their first read.  Equality,
    hashing, ``repr`` and pickling go by ``nodes`` and ``links``.
    """

    __slots__ = ("_reached", "_nodes", "_links")
    __match_args__ = ("nodes", "links")

    def __init__(self, nodes, links):
        if len(nodes) != len(links) + 1 or not links:
            raise EvidenceError("a chain needs k+1 nodes for its k >= 1 links")
        self._reached, self._nodes, self._links = None, nodes, links

    @classmethod
    def _view(cls, reached):
        chain = object.__new__(cls)
        chain._reached, chain._nodes, chain._links = reached, None, None
        return chain

    def _read(self):
        # the nodes and links up from the lower end's record
        nodes, links = [], []
        reached = self._reached
        while reached is not None:
            node, link, reached, _depth = reached
            nodes.append(node)
            if reached is not None:
                links.append(link)
        self._nodes, self._links = tuple(nodes), tuple(links)

    @property
    def nodes(self):
        if self._nodes is None:
            self._read()
        return self._nodes

    @property
    def links(self):
        if self._links is None:
            self._read()
        return self._links

    @property
    def lower(self):
        return self._nodes[0] if self._reached is None else self._reached[0]

    @property
    def upper(self):
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self._links) if self._reached is None else self._reached[3]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nodes, self.links) == (other.nodes, other.links)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nodes, self.links))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(nodes={self.nodes!r}, links={self.links!r})"

    def __reduce__(self):
        # the eager form: a view's records nest one tuple per link
        return self.__class__, (self.nodes, self.links)


def single_step(lower, upper, evidence) -> ChainEvidence:
    return ChainEvidence(nodes=(lower, upper), links=(evidence,))


def validate_chain(base: WFRelation, chain: ChainEvidence) -> bool:
    """Re-check every link of a chain against the base decision procedure."""
    return all(
        base.decide(chain.nodes[i], chain.nodes[i + 1]) is not None
        for i in range(len(chain))
    )


def first_visit(seen: set, unhashable: list, element) -> bool:
    """Mark ``element`` visited; False when it already was.  Hashable
    elements go in ``seen``; unhashable ones in ``unhashable``, searched by
    equality, as the recursion evaluator unfolds them without its memo."""
    try:
        if element in seen:
            return False
        seen.add(element)
    except TypeError:
        if element in unhashable:
            return False
        unhashable.append(element)
    return True


_NOTHING = object()  # a lower end no walk finds


class _Walk:
    # A backward breadth-first walk that stops where an element turns up and
    # resumes from there.  One (element, link to its parent, parent, depth)
    # record per element, the roots first at depth 0, then each element
    # below them once, in predecessor order; ``records`` is read as a queue
    # while the scan appends to it, and ``scanned`` records have had their
    # predecessors recorded.  ``first`` maps a hashable element to its
    # record; unhashable ones go in ``unhashable``, searched by equality.
    __slots__ = ("predecessors", "records", "scanned", "first", "unhashable", "roots")

    def __init__(self, base: WFRelation, roots, seen: bool = True):
        # ``seen`` roots are the first scan's elements, each distinct one
        # recorded once and never again below another; the others are
        # recorded as given and again where they turn up below a root: a
        # search for a cycle back to its upper
        self.predecessors = base.predecessors
        self.scanned, self.first, self.unhashable = 0, {}, []
        if seen:
            self.records, self.roots = [], [(root, None) for root in roots]
        else:
            self.records, self.roots = [(root, None, None, 0) for root in roots], ()

    def advance(self, lower=_NOTHING):
        # scan on until a record's predecessors hold ``lower``: the record of
        # the first one equal to it, or None once every record is scanned.
        # A walk whose base raises is left half scanned; no caller keeps it.
        records, first, predecessors = self.records, self.first, self.predecessors
        parent, below, depth = None, self.roots, 0
        self.roots = ()
        while True:
            found = None
            for element, link in below:
                try:
                    if element in first:
                        continue
                    first[element] = reached = (element, link, parent, depth)
                except TypeError:
                    if element in self.unhashable:
                        continue
                    self.unhashable.append(element)
                    reached = (element, link, parent, depth)
                records.append(reached)
                if found is None and element == lower:
                    found = reached
            if found is not None or self.scanned == len(records):
                return found
            parent = records[self.scanned]
            self.scanned += 1
            below, depth = predecessors(parent[0]), parent[3] + 1


def _walk_below(base: WFRelation, roots) -> list:
    # every record of the walk below the distinct roots
    walk = _Walk(base, roots)
    walk.advance()
    return walk.records


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class _Searches(threading.local):
    # a closure's last search in this thread: the walk below the last upper
    def __init__(self, base: WFRelation):
        self.base, self.walk = base, None


def _search_chain(searches: _Searches, lower, upper) -> Optional[ChainEvidence]:
    # The chain up from ``lower``'s first record in the walk below
    # ``upper``: shortest, predecessor order ties.  The walk that this
    # thread's last search left below the same ``upper`` object answers,
    # scanning on until ``lower`` turns up, so its records and visit order
    # are a fresh walk's.  Another upper, or an unhashable ``lower``, starts
    # a walk; one is kept while its upper and elements are hashable.
    walk = searches.walk
    if walk is None or walk.records[0][0] is not upper:
        walk = _Walk(searches.base, (upper,), seen=False)
    else:
        try:
            reached = walk.first.get(lower)
        except TypeError:
            walk = _Walk(searches.base, (upper,), seen=False)
        else:
            if reached is not None:
                return ChainEvidence._view(reached)
    searches.walk = None  # a search made by the base's predecessors walks on its own
    reached = walk.advance(lower)
    if not walk.unhashable and _hashable(upper):
        searches.walk = walk
    return None if reached is None else ChainEvidence._view(reached)


def _walk_chain(ih, x_next, chain: ChainEvidence):
    # the base callback at x_next, one base callback per link, top link first
    nodes, links = chain.nodes, chain.links
    for k in range(len(links) - 1, 0, -1):
        ih = ih(nodes[k], links[k])
    return ih(x_next, links[0])


def transitive_closure(base: WFRelation) -> WFRelation:
    """The strict transitive closure of ``base``; evidence is a chain.

    Deciding a pair searches backward through ``base.predecessors`` when
    available, breadth-first, so a chain is a shortest one.  Each thread
    keeps the walk below the last upper it decided at, until it decides at
    another, and answers the next lower at the same upper from it, scanning
    on as needed; ``base.predecessors`` must therefore be deterministic.
    Without an enumeration only single base steps can be found,
    and a failed single step raises because longer chains cannot be ruled
    out.  Recursion is carried back along one evaluation of ``base`` and
    walks a chain's links top-down in one loop, one base callback per link,
    so termination is inherited.
    """
    name = f"closure({base.carrier})"
    searches = _Searches(base)

    def decide(lower, upper):
        if base.predecessors is not None:
            return _search_chain(searches, lower, upper)
        direct = base.decide(lower, upper)
        if direct is None:
            raise UndecidableError(
                f"{name}: undecidable without predecessor enumeration"
            )
        return single_step(lower, upper, direct)

    def predecessors(upper):
        return tuple(
            (record[0], ChainEvidence._view(record))
            for record in _walk_below(base, (upper,))[1:]
        )

    @_derived
    def recursor(step, a):
        return _transport(step, a, base, a, _walk_chain)

    return WFRelation(
        carrier=name,
        decide=decide,
        predecessors=predecessors if base.predecessors is not None else None,
        recursor=recursor,
    )


def finite_power_decide(base: WFRelation, n: int, lower, upper) -> Optional[ChainEvidence]:
    """Find a chain of exactly ``n`` base steps from ``lower`` up to ``upper``.

    The zero-th power is equality: ``n == 0`` succeeds only when the
    endpoints coincide, in which case the equality witness is returned.
    """
    if n < 0:
        raise ValueError(f"no power of a relation has a negative exponent: {n}")
    if base.predecessors is None:
        raise UndecidableError("finite powers need a predecessor enumeration")
    if n == 0:
        return EQUAL if lower == upper else None
    # depth-first: per path step, a predecessor iterator and its node's record
    pending = [(iter(base.predecessors(upper)), (upper, None, None, 0))]
    while pending:
        below, path = pending[-1]
        for element, evidence in below:
            reached = (element, evidence, path, len(pending))
            if len(pending) < n:
                pending.append((iter(base.predecessors(element)), reached))
                break
            if element == lower:
                return ChainEvidence._view(reached)
        else:
            pending.pop()
    return None


def refl_trans_reachable(base: WFRelation, lower, upper) -> bool:
    """True iff some chain of ``n >= 0`` base steps joins the endpoints."""
    if lower == upper:
        return True
    if base.predecessors is None:
        raise UndecidableError("reachability needs a predecessor enumeration")
    return _Walk(base, (upper,), seen=False).advance(lower) is not None


# ---------------------------------------------------------------------------
# Disjoint sum.

@dataclass(frozen=True)
class Inl:
    value: Any

    def __repr__(self) -> str:
        return f"inl({self.value!r})"


@dataclass(frozen=True)
class Inr:
    value: Any

    def __repr__(self) -> str:
        return f"inr({self.value!r})"


@dataclass(frozen=True)
class SumEvidence:
    """Witness for the sum order; no witness relates a right to a left."""

    kind: str  # "left_left" | "left_right" | "right_right"
    inner: Any = None


def disjoint_sum(rel_a: WFRelation, rel_b: WFRelation) -> WFRelation:
    """Order ``A + B`` with every left element below every right element."""
    name = f"sum({rel_a.carrier}, {rel_b.carrier})"

    def decide(lower, upper):
        if isinstance(lower, Inl) and isinstance(upper, Inl):
            evidence = rel_a.decide(lower.value, upper.value)
            return None if evidence is None else SumEvidence("left_left", evidence)
        if isinstance(lower, Inl) and isinstance(upper, Inr):
            return SumEvidence("left_right", EQUAL)
        if isinstance(lower, Inr) and isinstance(upper, Inr):
            evidence = rel_b.decide(lower.value, upper.value)
            return None if evidence is None else SumEvidence("right_right", evidence)
        return None

    @_derived
    def recursor(step, z):
        def left(x, ih_a):
            def rec(z_next, evidence):
                if isinstance(z_next, Inr):
                    raise EvidenceError("no right element lies below a left one")
                return ih_a(z_next.value, evidence.inner)

            return step(Inl(x), rec)

        def right(y, ih_b):
            def rec(z_next, evidence):
                if isinstance(z_next, Inl):
                    return _recall_or_open(step, z_next, rel_a, z_next.value, left)
                return ih_b(z_next.value, evidence.inner)

            return step(Inr(y), rec)

        if isinstance(z, Inl):
            return _recall_or_open(step, z, rel_a, z.value, left)
        return _recall_or_open(step, z, rel_b, z.value, right)

    return WFRelation(carrier=name, decide=decide, recursor=recursor)


# ---------------------------------------------------------------------------
# Lexicographic ordering on dependent pairs.

@dataclass(frozen=True)
class LexEvidence:
    """Pair witness: first component strictly below, or equal firsts and the
    second component strictly below in the family order at that point."""

    on_first: Any = None
    equal: Optional[EqualWitness] = None
    on_second: Any = None

    def __post_init__(self):
        first_branch = self.on_first is not None
        second_branch = self.equal is not None and self.on_second is not None
        if first_branch == second_branch:
            raise EvidenceError("exactly one lexicographic branch must be taken")


def lex_first(evidence) -> LexEvidence:
    return LexEvidence(on_first=evidence)


def lex_second(evidence) -> LexEvidence:
    return LexEvidence(equal=EQUAL, on_second=evidence)


def lex_family(
    rel_a: WFRelation,
    family: Callable[[Any], WFRelation],
    carrier: Optional[str] = None,
) -> WFRelation:
    """Lexicographic order on pairs ``(x, y)`` with ``y`` in a family at ``x``.

    First components are compared by ``rel_a``; equal first components fall
    through to the family relation at that point.  Equality of first
    components is structural (``==``).
    """
    name = carrier or f"lex({rel_a.carrier}, ...)"

    def decide(lower, upper):
        x_low, y_low = lower
        x_up, y_up = upper
        on_first = rel_a.decide(x_low, x_up)
        if on_first is not None:
            return lex_first(on_first)
        if x_low == x_up:
            on_second = family(x_up).decide(y_low, y_up)
            if on_second is not None:
                return lex_second(on_second)
        return None

    @_derived
    def recursor(step, z):
        def column(x, ih_a, y_start):
            # the pair (x, y_start) in the column at x, where ih_a is the
            # first components' callback
            def q2(y, ih_b):
                def rec(z_next, evidence):
                    x_next = z_next[0]
                    if evidence.on_first is not None:
                        return column(x_next, ih_a(x_next, evidence.on_first), z_next[1])
                    if x_next != x:  # what the EQUAL witness stands for
                        raise EvidenceError(f"{z_next!r} is not in the column at {x!r}")
                    return ih_b(z_next[1], evidence.on_second)

                return step((x, y), rec)

            return _recall_or_open(step, (x, y_start), family(x), y_start, q2)

        x0, y0 = z
        return _open(rel_a, x0, lambda ih_a: column(x0, ih_a, y0))

    return WFRelation(carrier=name, decide=decide, recursor=recursor)


def lex_product(rel_a: WFRelation, rel_b: WFRelation) -> WFRelation:
    """Plain lexicographic product: the constant-family case."""
    return lex_family(
        rel_a,
        lambda _x: rel_b,
        carrier=f"lex({rel_a.carrier}, {rel_b.carrier})",
    )
