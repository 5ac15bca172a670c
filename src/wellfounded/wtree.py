"""Finitely branching labelled trees and the immediate-subtree relation.

Trees stand in for wellordering types with enumerable branching: every
node carries a label and an ordered tuple of subtrees.  The subtree
relation is decidable by structural equality, and its recursion runs
through the generic evaluator, like every relation's; ``tree_fold`` is
the structural fold, outside the evaluator.  ``predecessor_tree`` unfolds
any relation with enumerable predecessors into such a tree, which
characterises well-founded relations: an element lies below another
exactly when its tree is an immediate subtree of the other's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from .core import WFRelation


@dataclass(frozen=True)
class WTree:
    label: Any
    branches: Tuple["WTree", ...] = ()

    def __repr__(self) -> str:
        return render(self)

    # Equality and hashing run without Python recursion, so deep trees such
    # as large numerals compare; the results are the generated methods'.
    # Each node keeps its hash once computed, so a tree hashed before costs
    # one lookup, and a new tree over hashed subtrees hashes only its new
    # nodes.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if (
                    a.__class__ is not b.__class__
                    or not (a.label is b.label or a.label == b.label)
                    or len(a.branches) != len(b.branches)
                ):
                    return False
                pairs.extend(zip(reversed(a.branches), reversed(b.branches)))
        return True

    def __hash__(self):
        stack = [self]
        while stack:
            node = stack[-1]
            if "_hash" in node.__dict__:
                stack.pop()
                continue
            unknown = [b for b in node.branches if "_hash" not in b.__dict__]
            if unknown:  # hash the branches first; the node is met again
                stack.extend(unknown)
                continue
            branches = tuple(_Hashed(b.__dict__["_hash"]) for b in node.branches)
            object.__setattr__(node, "_hash", hash((node.label, branches)))
            stack.pop()
        return self.__dict__["_hash"]

    def __getstate__(self):
        # without the cached hash: a label's hash may differ in another process
        return {"label": self.label, "branches": self.branches}


# an int that hashes to itself: a subtree whose hash is already known
_Hashed = type("_Hashed", (int,), {"__hash__": int.__int__})


def leaf(label) -> WTree:
    return WTree(label=label, branches=())


def render(tree: WTree) -> str:
    """Deterministic textual form: label, then parenthesized branches."""
    parts = []
    stack = [tree]  # trees still to render, and the text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label = item.label
        parts.append(label.name if isinstance(label, enum.Enum) else str(label))
        if item.branches:
            parts.append("(")
            stack.append(")")
            for index in range(len(item.branches) - 1, -1, -1):
                stack.append(item.branches[index])
                if index:
                    stack.append(", ")
    return "".join(parts)


def tree_fold(step: Callable[[Any, tuple, tuple], Any], tree: WTree):
    """Structural fold: apply ``step(label, branches, branch_values)`` at each
    node once all branch values are known.  Nodes are visited in post-order,
    left to right, over an explicit stack, so any depth folds."""
    values: list = []  # values of the finished subtrees, in order
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((branch, False) for branch in reversed(node.branches))
            continue
        count = len(node.branches)
        branch_values = tuple(values[len(values) - count:])
        del values[len(values) - count:]
        values.append(step(node.label, node.branches, branch_values))
    return values[0]


def subtree_decide(lower: WTree, upper: WTree) -> Optional[int]:
    """Index of the first branch of ``upper`` structurally equal to ``lower``."""
    for index, branch in enumerate(upper.branches):
        if branch == lower:
            return index
    return None


def _subtree_predecessors(upper: WTree):
    found = []
    for branch in upper.branches:
        if all(branch != seen for seen, _i in found):
            found.append((branch, subtree_decide(branch, upper)))
    return tuple(found)


def wtree_relation() -> WFRelation:
    """The immediate-subtree relation; evidence is a branch index.  Its
    recursion unfolds through the generic evaluator, not ``tree_fold``."""
    return WFRelation(
        carrier="wtree",
        decide=subtree_decide,
        predecessors=_subtree_predecessors,
    )


# ---------------------------------------------------------------------------
# The naturals as a tree type.

class NatLabel(enum.Enum):
    # a fixed two-label alphabet avoids boolean-polarity confusion
    ZERO = 0
    SUCC = 1


def encode_nat(n: int) -> WTree:
    """``0`` is a leaf; each successor is a unary node above it."""
    tree = leaf(NatLabel.ZERO)
    for _ in range(n):
        tree = WTree(label=NatLabel.SUCC, branches=(tree,))
    return tree


def decode_nat(tree: WTree) -> int:
    """Inverse of ``encode_nat``; rejects trees outside its image."""
    count = 0
    node = tree
    while True:
        if len(node.branches) >= 2:
            raise ValueError("not a numeral: node with branching factor >= 2")
        if node.branches:
            if node.label is not NatLabel.SUCC:
                raise ValueError("not a numeral: unary node must be a successor")
            count += 1
            node = node.branches[0]
        else:
            if node.label is not NatLabel.ZERO:
                raise ValueError("not a numeral: leaf must be the zero label")
            return count


# ---------------------------------------------------------------------------
# Rank trees: every well-founded relation is an inverse image of a subtree
# relation.

def predecessor_tree(rel: WFRelation, a) -> WTree:
    """Unfold ``a`` into the tree of its iterated predecessors.

    The node for ``x`` is labelled ``x`` and has one branch per predecessor;
    built by recursion over ``rel``, so it is only as deep as the relation
    is.  Requires a finite predecessor enumeration.
    """

    def step(x, rec):
        return WTree(
            label=x,
            branches=tuple(rec(below, e) for below, e in rel.predecessors(x)),
        )

    return rel.wfrec(step, a)


def root_label(tree: WTree):
    """Read back the element a rank tree was built from."""
    return tree.label


@dataclass
class EmbeddingReport:
    """Outcome of cross-validating a relation against its rank trees."""

    pairs: int = 0
    mismatches: list = field(default_factory=list)
    label_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.label_failures


def check_tree_embedding(rel: WFRelation, elements) -> EmbeddingReport:
    """Check ``a' < a`` iff ``tree(a')`` is an immediate subtree of ``tree(a)``,
    and that the root label recovers the element, over a finite carrier."""
    elements = tuple(elements)
    report = EmbeddingReport()
    trees = {}
    for a in elements:
        trees[a] = predecessor_tree(rel, a)
        if root_label(trees[a]) != a:
            report.label_failures.append(a)
    for lower in elements:
        for upper in elements:
            report.pairs += 1
            related = rel.decide(lower, upper) is not None
            embedded = subtree_decide(trees[lower], trees[upper]) is not None
            if related != embedded:
                report.mismatches.append((lower, upper))
    return report
