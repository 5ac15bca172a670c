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

@dataclass(frozen=True)
class ChainEvidence:
    """A descent chain ``x' = n0 < n1 < ... < nk = x`` with per-link evidence."""

    nodes: tuple
    links: tuple

    def __post_init__(self):
        if len(self.nodes) != len(self.links) + 1 or not self.links:
            raise EvidenceError("a chain needs k+1 nodes for its k >= 1 links")

    @property
    def lower(self):
        return self.nodes[0]

    @property
    def upper(self):
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.links)


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


def _read_chain(reached) -> ChainEvidence:
    # the chain up from a (node, link to its parent, parent) record
    nodes, links = [], []
    while reached is not None:
        node, link, reached = reached
        nodes.append(node)
        if reached is not None:
            links.append(link)
    return ChainEvidence(nodes=tuple(nodes), links=tuple(links))


def _walk_below(base: WFRelation, roots) -> list:
    # backward breadth-first walk: one (element, link to its parent, parent)
    # record per element, the distinct roots first with no parent, then each
    # element below them once, in predecessor order.  The list is read as a
    # queue while the loop appends to it.
    seen, unhashable = set(), []
    reached = [(root, None, None) for root in roots if first_visit(seen, unhashable, root)]
    for record in reached:
        for element, link in base.predecessors(record[0]):
            if first_visit(seen, unhashable, element):
                reached.append((element, link, record))
    return reached


def _search_chain(base: WFRelation, lower, upper) -> Optional[ChainEvidence]:
    # ``_walk_below`` from ``upper`` that stops once ``lower`` turns up:
    # shortest chain, predecessor order ties.  The loop stays inline: built
    # on a generator over the walk's records, the census-closure operations
    # of one ``recurse`` benchmark round took 4.6-5.4 ms instead of 2.8-3.8
    # (unscaled, Python 3.11 on 2 cores).
    seen, unhashable = set(), []
    first_visit(seen, unhashable, upper)
    frontier = [(upper, None, None)]
    for reached in frontier:
        for element, evidence in base.predecessors(reached[0]):
            if element == lower:
                return _read_chain((element, evidence, reached))
            if first_visit(seen, unhashable, element):
                frontier.append((element, evidence, reached))
    return None


def _walk_chain(ih, x_next, chain: ChainEvidence):
    # the base callback at x_next, one base callback per link, top link first
    nodes, links = chain.nodes, chain.links
    for k in range(len(links) - 1, 0, -1):
        ih = ih(nodes[k], links[k])
    return ih(x_next, links[0])


def transitive_closure(base: WFRelation) -> WFRelation:
    """The strict transitive closure of ``base``; evidence is a chain.

    Deciding a pair searches backward through ``base.predecessors`` when
    available; without an enumeration only single base steps can be found,
    and a failed single step raises because longer chains cannot be ruled
    out.  Recursion is carried back along one evaluation of ``base`` and
    walks a chain's links top-down in one loop, one base callback per link,
    so termination is inherited.
    """
    name = f"closure({base.carrier})"

    def decide(lower, upper):
        if base.predecessors is not None:
            return _search_chain(base, lower, upper)
        direct = base.decide(lower, upper)
        if direct is None:
            raise UndecidableError(
                f"{name}: undecidable without predecessor enumeration"
            )
        return single_step(lower, upper, direct)

    def predecessors(upper):
        return tuple(
            (record[0], _read_chain(record)) for record in _walk_below(base, (upper,))[1:]
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
    pending = [(iter(base.predecessors(upper)), (upper, None, None))]
    while pending:
        below, path = pending[-1]
        for element, evidence in below:
            reached = (element, evidence, path)
            if len(pending) < n:
                pending.append((iter(base.predecessors(element)), reached))
                break
            if element == lower:
                return _read_chain(reached)
        else:
            pending.pop()
    return None


def refl_trans_reachable(base: WFRelation, lower, upper) -> bool:
    """True iff some chain of ``n >= 0`` base steps joins the endpoints."""
    if lower == upper:
        return True
    if base.predecessors is None:
        raise UndecidableError("reachability needs a predecessor enumeration")
    return _search_chain(base, lower, upper) is not None


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
