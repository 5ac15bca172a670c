import random
from dataclasses import dataclass
from typing import Any

import pytest

from wellfounded import (
    RecursionBudgetError,
    WTree,
    check_recursion_equation,
    check_tree_embedding,
    decode_nat,
    encode_nat,
    leaf,
    lex_product,
    nat_less,
    predecessor_tree,
    render,
    root_label,
    subtree_decide,
    transitive_closure,
    tree_fold,
    wfrec,
    with_enumerated_predecessors,
    wtree_relation,
)
from wellfounded.checks import random_dag
from wellfounded.wtree import NatLabel


def random_tree(rng: random.Random, depth: int) -> WTree:
    if depth == 0 or rng.random() < 0.3:
        return leaf(rng.randrange(10))
    width = rng.randrange(1, 4)
    return WTree(
        label=rng.randrange(10),
        branches=tuple(random_tree(rng, depth - 1) for _ in range(width)),
    )


def relabel(tree: WTree, change) -> WTree:
    return WTree(change(tree.label), tuple(relabel(b, change) for b in tree.branches))


def node_count(tree: WTree) -> int:
    return 1 + sum(node_count(branch) for branch in tree.branches)


def oracle_height(tree: WTree) -> int:
    return 1 + max((oracle_height(b) for b in tree.branches), default=0)


class TestTreeFold:
    def test_node_count(self):
        tree = WTree("a", (leaf("b"), leaf("c")))
        assert tree_fold(lambda _l, _b, values: 1 + sum(values), tree) == 3

    def test_leaf_gets_empty_tuples(self):
        seen = {}

        def step(label, branches, values):
            seen.update(label=label, branches=branches, values=values)
            return 0

        tree_fold(step, leaf("x"))
        assert seen == {"label": "x", "branches": (), "values": ()}

    def test_height_matches_oracle(self, rng):
        def height_step(_label, _branches, values):
            return 1 + max(values, default=0)

        for _ in range(25):
            tree = random_tree(rng, 4)
            assert tree_fold(height_step, tree) == oracle_height(tree)


    def test_post_order_and_values_match_the_recursive_fold(self, rng):
        def recursive_fold(step, tree):
            values = tuple(recursive_fold(step, branch) for branch in tree.branches)
            return step(tree.label, tree.branches, values)

        def recording(visits):
            def step(label, branches, values):
                visits.append((label, len(branches), values))
                return (label * 7 + sum(values)) % 101

            return step

        for _ in range(25):
            tree = random_tree(rng, 5)
            iterative, recursive = [], []
            assert tree_fold(recording(iterative), tree) == recursive_fold(
                recording(recursive), tree
            )
            assert iterative == recursive

    def test_deep_numeral_folds(self):
        def count(_label, _branches, values):
            return values[0] + 1 if values else 0

        assert tree_fold(count, encode_nat(20000)) == 20000


class TestSubtreeDecide:
    def test_first_branch(self):
        assert subtree_decide(leaf("b"), WTree("a", (leaf("b"),))) == 0

    def test_not_its_own_subtree(self):
        tree = WTree("a", (leaf("b"),))
        assert subtree_decide(tree, tree) is None

    def test_numeral_predecessor(self):
        assert subtree_decide(encode_nat(1), encode_nat(2)) == 0

    def test_duplicate_branches_take_the_first_index(self):
        tree = WTree("a", (leaf("b"), leaf("b")))
        assert subtree_decide(leaf("b"), tree) == 0

    def test_predecessors_deduplicate(self):
        trees = wtree_relation()
        tree = WTree("a", (leaf("b"), leaf("b"), leaf("c")))
        assert trees.predecessors(tree) == ((leaf("b"), 0), (leaf("c"), 2))


class TestWtreeRelation:
    def test_wfrec_height(self, rng):
        trees = wtree_relation()

        def height_step(node, rec):
            return 1 + max(
                (rec(b, trees.decide(b, node)) for b in node.branches), default=0
            )

        for _ in range(20):
            tree = random_tree(rng, 4)
            assert wfrec(trees, height_step, tree) == oracle_height(tree)

    def test_steps_run_only_at_the_subtrees_recursed_into(self):
        trees = wtree_relation()
        calls = []

        def first_branch(node, rec):
            calls.append(node.label)
            if not node.branches:
                return node.label
            return rec(node.branches[0], 0)

        tree = WTree("r", (leaf("x"), WTree("y", tuple(leaf(i) for i in range(5)))))
        assert wfrec(trees, first_branch, tree) == "x"
        assert calls == ["r", "x"]

    def test_a_call_yields_the_value_of_the_subtree_passed(self):
        trees = wtree_relation()

        def step(node, rec):
            return rec(leaf("b"), 0) if node.branches else node.label

        assert wfrec(trees, step, WTree("r", (leaf("a"), leaf("b")))) == "b"

    def test_recursion_equation_on_random_trees(self, rng):
        trees = wtree_relation()

        def height_step(node, rec):
            return 1 + max(
                (rec(b, trees.decide(b, node)) for b in node.branches), default=0
            )

        samples = [random_tree(rng, 5) for _ in range(100)]
        report = check_recursion_equation(trees, height_step, samples)
        assert report.ok and report.total == 100

    def test_closure_relates_a_deep_leaf_to_the_root(self, rng):
        trees = wtree_relation()
        closure = transitive_closure(trees)
        root = WTree("r", (WTree("m", (leaf("deep"),)),))
        assert closure.decide(leaf("deep"), root) is not None
        assert closure.decide(root, root) is None


class TestNatEncoding:
    def test_deep_numerals_compare_and_hash(self):
        assert encode_nat(20000) == encode_nat(20000)
        assert hash(encode_nat(20000)) == hash(encode_nat(20000))
        other_leaf = leaf("zero")
        for _ in range(20000):
            other_leaf = WTree(label=NatLabel.SUCC, branches=(other_leaf,))
        assert encode_nat(20000) != other_leaf

    def test_fold_depth_is_charged_to_the_budget(self, monkeypatch):
        monkeypatch.setenv("WFREC_DEPTH", "50")
        trees = wtree_relation()

        def height(w, rec):
            return 1 + max((rec(b, trees.decide(b, w)) for b in w.branches), default=0)

        assert wfrec(trees, height, encode_nat(50)) == 51
        with pytest.raises(RecursionBudgetError):
            wfrec(trees, height, encode_nat(51))

    def test_deep_recursion_is_a_budget_error(self):
        trees = wtree_relation()

        def height(w, rec):
            return 1 + max((rec(b, trees.decide(b, w)) for b in w.branches), default=0)

        assert wfrec(trees, height, encode_nat(1000)) == 1001
        with pytest.raises(RecursionBudgetError):
            wfrec(trees, height, encode_nat(20000))

    def test_equality_and_hash_match_generated_methods(self, rng):
        @dataclass(frozen=True)
        class Generated:
            label: Any
            branches: tuple = ()

        def generated(tree):
            return Generated(tree.label, tuple(generated(b) for b in tree.branches))

        # small labels, so that equal trees turn up among the samples
        trees = [random_tree(rng, 3) for _ in range(60)]
        trees = [relabel(tree, lambda label: label % 2) for tree in trees]
        for a in trees:
            assert hash(a) == hash(generated(a))
            for b in trees:
                assert (a == b) == (generated(a) == generated(b))
        # new trees over subtrees hashed above, one of them twice
        for a, b in zip(trees, reversed(trees)):
            for tree in (WTree(2, (a, b, a)), WTree(3, (WTree(2, (b,)), a))):
                assert hash(tree) == hash(generated(tree))
                assert tree == WTree(tree.label, tree.branches)

    def test_zero_is_a_leaf(self):
        assert encode_nat(0).branches == ()

    def test_round_trip(self):
        for n in range(101):
            assert decode_nat(encode_nat(n)) == n

    def test_rejects_wide_nodes(self):
        with pytest.raises(ValueError):
            decode_nat(WTree("x", (leaf("a"), leaf("b"))))

    def test_rejects_mislabelled_nodes(self):
        with pytest.raises(ValueError):
            decode_nat(leaf("zero?"))

    def test_subtree_is_the_predecessor_and_closure_is_less_than(self):
        assert subtree_decide(encode_nat(1), encode_nat(2)) is not None
        closure = transitive_closure(wtree_relation())
        for low in range(7):
            for up in range(7):
                related = closure.decide(encode_nat(low), encode_nat(up)) is not None
                assert related == (low < up)


class TestPredecessorTrees:
    def test_minimal_element_is_a_leaf(self):
        assert predecessor_tree(nat_less(), 0) == leaf(0)

    def test_root_label_recovers_the_element(self):
        for n in range(5):
            assert root_label(predecessor_tree(nat_less(), n)) == n

    def test_expected_expansion_of_two(self):
        tree = predecessor_tree(nat_less(), 2)
        assert node_count(tree) == 4
        assert render(tree) == "2(0, 1(0))"

    def test_embedding_on_less_than(self):
        report = check_tree_embedding(nat_less(), range(6))
        assert report.ok and report.pairs == 36

    def test_embedding_on_lex_product(self):
        grid = [(a, b) for a in range(3) for b in range(3)]
        pairs = with_enumerated_predecessors(lex_product(nat_less(), nat_less()), grid)
        report = check_tree_embedding(pairs, grid)
        assert report.ok and report.pairs == 81

    def test_embedding_on_random_dag(self, rng):
        rel, _ = random_dag(rng, 6)
        report = check_tree_embedding(rel, range(6))
        assert report.ok

    def test_empty_relation_has_no_pairs_on_either_side(self):
        from wellfounded import empty_relation

        report = check_tree_embedding(empty_relation(), ["u", "v"])
        assert report.ok
        trees = [predecessor_tree(empty_relation(), x) for x in ("u", "v")]
        assert all(t.branches == () for t in trees)


class TestRendering:
    def test_golden_forms(self):
        assert render(leaf("x")) == "x"
        assert render(WTree("f", (leaf("a"), WTree("g", (leaf("b"),))))) == "f(a, g(b))"
        assert render(encode_nat(2)) == "SUCC(SUCC(ZERO))"

    def test_repr_is_the_rendering(self):
        assert repr(leaf("x")) == "x"

    def test_matches_the_recursive_rendering(self, rng):
        def recursive_render(tree):
            if not tree.branches:
                return str(tree.label)
            inner = ", ".join(recursive_render(branch) for branch in tree.branches)
            return f"{tree.label}({inner})"

        for _ in range(50):
            tree = random_tree(rng, 5)
            assert render(tree) == recursive_render(tree)

    def test_deep_numeral_renders(self):
        assert repr(encode_nat(20000)) == "SUCC(" * 20000 + "ZERO" + ")" * 20000
