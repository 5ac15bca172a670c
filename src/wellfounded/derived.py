"""Orders assembled from the combinators: stepped tuples, finite functions,
multisets with the replacement ordering, nested multisets, and the
unification ordering on expression pairs.

Multisets here are finite functions into positive counts whose keys must
be pairwise related by the element order; that restriction is inherited by
everything built on top and surfaces as ``IncomparableError`` at
construction time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Tuple

from .core import (
    DescentBudgetError,
    IncomparableError,
    UndecidableError,
    WFRelation,
    empty_relation,
    nat_less,
    nat_less_decide,
)
from .combinators import (
    Inl,
    Inr,
    disjoint_sum,
    inverse_image,
    lex_family,
    lex_first,
    lex_product,
    lex_second,
    subrelation,
    transitive_closure,
)
from .power import DescendingList, DescentCert, list_lex_decide, pow_relation


# ---------------------------------------------------------------------------
# Stepped lexicographic order on tuples of mixed arity.

@dataclass(frozen=True)
class SteppedTuple:
    """A tuple tagged with its arity."""

    arity: int
    components: Tuple[Any, ...]

    def __post_init__(self):
        if len(self.components) != self.arity:
            raise ValueError("component count must equal the arity")

    def __repr__(self) -> str:
        return f"SteppedTuple{self.components!r}"


def stepped(*components) -> SteppedTuple:
    return SteppedTuple(arity=len(components), components=tuple(components))


def _tower(bottom: WFRelation, grow: Callable[[WFRelation, int], WFRelation]):
    """Layer ``n`` on demand, each built once: ``bottom``, then ``grow(below, n)``."""
    layers = [bottom]

    def layer(n):
        while len(layers) <= n:
            layers.append(grow(layers[-1], len(layers)))
        return layers[n]

    return layer


def stepped_lex(rel: WFRelation) -> WFRelation:
    """Shorter tuples precede longer ones; equal lengths compare pointwise."""
    # the width-n power orders nested pairs (c0, (c1, ... ())): lexicographic
    # on the head, then the width n-1 tail
    powers = _tower(
        empty_relation(carrier=f"{rel.carrier}^0"),
        lambda tails, n: lex_family(rel, lambda _head: tails, carrier=f"{rel.carrier}^{n}"),
    )
    base = lex_family(nat_less(), powers, carrier=f"arity-then-{rel.carrier}")

    def measure(t):
        nested = ()
        for component in reversed(t.components):
            nested = (component, nested)
        return t.arity, nested

    return inverse_image(base, measure, carrier=f"stepped({rel.carrier})")


# ---------------------------------------------------------------------------
# Finite functions as descending association lists.

@dataclass(frozen=True)
class FiniteFunction:
    """Association list with keys strictly descending under the key order."""

    entries: Tuple[Tuple[Any, Any], ...]

    def __repr__(self) -> str:
        inside = ", ".join(f"{k!r}: {v!r}" for k, v in self.entries)
        return "{" + inside + "}"


def _key_steps(rel_key: WFRelation, entries) -> list:
    # the key-order evidence for each adjacent pair of entries, upper first;
    # raises unless the keys strictly descend
    steps = []
    for (upper, _), (lower, _) in zip(entries, entries[1:]):
        evidence = rel_key.decide(lower, upper)
        if evidence is None:
            raise IncomparableError(
                f"keys not strictly descending under {rel_key.carrier}: "
                f"{lower!r} after {upper!r}"
            )
        steps.append(evidence)
    return steps


def finite_function(rel_key: WFRelation, entries) -> FiniteFunction:
    """Checked constructor: rejects entry lists whose keys do not descend."""
    entries = tuple((key, value) for key, value in entries)
    _key_steps(rel_key, entries)
    return FiniteFunction(entries=entries)


def finfun_exp(rel_a: WFRelation, rel_b: WFRelation) -> WFRelation:
    """Order finite functions from A to B as descending lists of pairs.

    Descending keys force descending pairs under the pair order, so this is
    the descending-list order pulled back along that reading.  Recursion
    runs through that pull-back: the measure certifies each list's descent
    from its keys.  Deciding reads only the entries, so ``decide`` checks
    the keys of both arguments and compares the entries as lists, which
    gives the evidence the pull-back would.
    """
    pair_rel = lex_product(rel_a, rel_b)

    def as_descending(ff: FiniteFunction) -> DescendingList:
        steps = _key_steps(rel_a, ff.entries)
        cert = DescentCert(tuple([lex_first(evidence) for evidence in steps]))
        return DescendingList(elements=ff.entries, cert=cert)

    def decide(lower: FiniteFunction, upper: FiniteFunction):
        _key_steps(rel_a, lower.entries)
        _key_steps(rel_a, upper.entries)
        return list_lex_decide(pair_rel, lower.entries, upper.entries)

    pulled_back = inverse_image(
        pow_relation(pair_rel),
        as_descending,
        carrier=f"finfun({rel_a.carrier} -> {rel_b.carrier})",
    )
    return replace(pulled_back, decide=decide)


# ---------------------------------------------------------------------------
# Multisets.

Multiset = FiniteFunction


def _sort_descending(rel: WFRelation, items) -> list:
    ordered: list = []
    for item in items:
        position = 0
        while position < len(ordered):
            current = ordered[position]
            if item == current:
                break
            if rel.decide(current, item) is not None:
                break  # current sits below item, so item goes in front
            if rel.decide(item, current) is None:
                raise IncomparableError(
                    f"{item!r} and {current!r} are unrelated under {rel.carrier}"
                )
            position += 1
        ordered.insert(position, item)
    return ordered


def multiset_of(rel: WFRelation, items) -> Multiset:
    """Build the multiset of ``items``; elements must be pairwise related."""
    ordered = _sort_descending(rel, items)
    entries = []
    for element in ordered:
        if entries and entries[-1][0] == element:
            entries[-1] = (element, entries[-1][1] + 1)
        else:
            entries.append((element, 1))
    return Multiset(entries=tuple(entries))


def multiset_elements(m: Multiset) -> tuple:
    out = []
    for key, count in m.entries:
        out.extend([key] * count)
    return tuple(out)


def multiset_relation(rel: WFRelation) -> WFRelation:
    """The replacement ordering on multisets over a carrier order.

    Multiplicities are positive naturals compared by ``<``; the whole thing
    is the finite-function order with counts as values.
    """
    return replace(finfun_exp(rel, nat_less()), carrier=f"multiset({rel.carrier})")


def dm_oracle(lower: Multiset, upper: Multiset, rel: WFRelation, budget: int = 20000) -> bool:
    """Independent multiset-order oracle by exhaustive replacement search.

    True iff ``upper`` reaches ``lower`` by finitely many steps, each
    removing one occurrence and inserting any finite multiset of strictly
    smaller elements.  Intermediate multisets never need to grow past the
    two endpoint sizes combined, so the search is finite; ``budget`` caps
    the number of visited states.
    """
    if rel.predecessors is None:
        raise UndecidableError("the replacement oracle needs predecessors")
    target = multiset_elements(lower)
    start = multiset_elements(upper)
    if target == start:
        return False
    size_cap = len(target) + len(start)
    seen = {start}
    frontier = [start]  # read as a queue while it grows
    for state in frontier:
        for position in range(len(state)):
            if position > 0 and state[position] == state[position - 1]:
                continue  # identical occurrence, same successors
            element = state[position]
            remainder = state[:position] + state[position + 1 :]
            smaller = tuple(p for p, _e in rel.predecessors(element))
            room = size_cap - len(remainder)
            for size in range(0, room + 1):
                for replacement in itertools.combinations_with_replacement(smaller, size):
                    successor = tuple(
                        _sort_descending(rel, remainder + replacement)
                    )
                    if successor == target:
                        return True
                    if successor not in seen:
                        if len(seen) >= budget:
                            raise DescentBudgetError(
                                "replacement search exceeded its budget"
                            )
                        seen.add(successor)
                        frontier.append(successor)
    return False


# ---------------------------------------------------------------------------
# Nested multisets.

@dataclass(frozen=True)
class NestedMultiset:
    """A multiset whose members mix carrier atoms and nested multisets.

    ``payload`` lives at layer ``depth``: layer 0 is a bare atom, layer
    n+1 is either a lifted layer-n value (left injection) or a multiset of
    layer-n values (right injection).  Values are stored at the smallest
    depth that can represent them, so the top payload of a proper multiset
    is always a right injection.
    """

    depth: int
    payload: Any

    def __repr__(self) -> str:
        return f"NestedMultiset(depth={self.depth}, {self.payload!r})"


def nm_atom(value) -> NestedMultiset:
    return NestedMultiset(depth=0, payload=value)


def nm_empty() -> NestedMultiset:
    return NestedMultiset(depth=1, payload=Inr(Multiset(entries=())))


def nm_singleton(member: NestedMultiset) -> NestedMultiset:
    """The one-member multiset ``{member}``; sits one layer above it."""
    return NestedMultiset(
        depth=member.depth + 1,
        payload=Inr(Multiset(entries=((member.payload, 1),))),
    )


def lift_payload(payload, layers: int):
    for _ in range(layers):
        payload = Inl(payload)
    return payload


def _multiset_layers(rel: WFRelation):
    # layer n+1 sums layer n with the multisets over it
    return _tower(rel, lambda below, _n: disjoint_sum(below, multiset_relation(below)))


def level_relation(rel: WFRelation, n: int) -> WFRelation:
    """The order on layer-``n`` payloads: atoms at layer 0, then each layer
    sums the previous layer with multisets over it."""
    return _multiset_layers(rel)(n)


def nm_union(rel: WFRelation, a: NestedMultiset, b: NestedMultiset) -> NestedMultiset:
    """Merge two nested multisets, lifting the shallower into the deeper layer.

    Members must be pairwise related at the shared layer; counts of equal
    members add.
    """
    if a.depth == 0 or b.depth == 0:
        raise ValueError("union is defined on multisets, not atoms")
    depth = max(a.depth, b.depth)
    members = [
        lift_payload(key, depth - source.depth)
        for source in (a, b)
        for key in multiset_elements(source.payload.value)
    ]
    union = multiset_of(level_relation(rel, depth - 1), members)
    return NestedMultiset(depth=depth, payload=Inr(union))


def nested_multiset_relation(rel: WFRelation, max_depth: int = 12) -> WFRelation:
    """Order nested multisets by depth first, then by the layer order.

    Layers are built on first use, up to ``max_depth``; deeper values are
    rejected rather than silently mishandled.
    """
    layer = _multiset_layers(rel)

    def family(n):
        if n > max_depth:
            raise UndecidableError(
                f"nested multisets deeper than {max_depth} are not supported here"
            )
        return layer(n)

    base = lex_family(nat_less(), family, carrier="depth-then-layer")
    return inverse_image(
        base,
        lambda m: (m.depth, m.payload),
        carrier=f"nested-multiset({rel.carrier})",
    )


# ---------------------------------------------------------------------------
# The unification ordering on expression pairs.

@dataclass(frozen=True)
class UnifEvidence:
    """Witness for the unification order: strictly fewer variables, or the
    same variables and a proper-substructure chain on the first expression."""

    fewer_vars: Any = None
    structural: Any = None


def unification_ordering(
    substructure: WFRelation, vars_of: Callable[[Any], frozenset]
) -> WFRelation:
    """Order pairs of expressions for unification-style recursion.

    A pair shrinks when the variables of its two sides form a proper subset
    of the other pair's, or when the variable sets match and its first
    expression is a proper substructure of the other's.  This embeds into
    the measure ``(number of variables, first expression)`` compared
    lexicographically, which makes it well-founded.
    """
    proper = transitive_closure(substructure)
    nat = nat_less()

    def pair_vars(pair):
        return vars_of(pair[0]) | vars_of(pair[1])

    base = inverse_image(
        lex_product(nat, proper),
        lambda pair: (len(pair_vars(pair)), pair[0]),
        carrier="vars-then-structure",
    )

    def sub_decide(lower, upper):
        lower_vars, upper_vars = pair_vars(lower), pair_vars(upper)
        if lower_vars < upper_vars:
            return UnifEvidence(
                fewer_vars=nat_less_decide(len(lower_vars), len(upper_vars))
            )
        if lower_vars == upper_vars:
            chain = proper.decide(lower[0], upper[0])
            if chain is not None:
                return UnifEvidence(structural=chain)
        return None

    def embed(_lower, _upper, evidence):
        if evidence.fewer_vars is not None:
            return lex_first(evidence.fewer_vars)
        return lex_second(evidence.structural)

    return subrelation(base, embed, sub_decide, carrier="unification")
