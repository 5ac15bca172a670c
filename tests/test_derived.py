import itertools

import pytest

from wellfounded import (
    EQUAL,
    App,
    IncomparableError,
    Inl,
    Inr,
    Var,
    check_recursion_equation,
    dm_oracle,
    expr_substructure,
    expr_vars,
    finfun_exp,
    finite_function,
    fuzz_descent,
    multiset_of,
    multiset_relation,
    nat_less,
    nat_less_decide,
    nested_multiset_relation,
    nm_atom,
    nm_empty,
    nm_singleton,
    nm_union,
    stepped,
    stepped_lex,
    subrelation,
    unification_ordering,
)
from wellfounded.checks import (
    _MULTISET_SIZE_CAP,
    _capped_multiset_count,
    all_multisets,
    descending_chain_step,
)
from wellfounded.derived import SteppedTuple, lift_payload

NAT = nat_less()


class TestSteppedLex:
    def test_shorter_tuple_first(self):
        order = stepped_lex(NAT)
        assert order.decide(stepped(5), stepped(0, 0)) is not None

    def test_equal_length_compares_pointwise(self):
        order = stepped_lex(NAT)
        assert order.decide(stepped(1, 2), stepped(1, 3)) is not None

    def test_longer_tuple_never_below(self):
        order = stepped_lex(NAT)
        assert order.decide(stepped(0, 0), stepped(5)) is None

    def test_arity_mismatch_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SteppedTuple(arity=2, components=(1,))

    def test_exhaustive_against_naive_comparator(self):
        order = stepped_lex(NAT)
        tuples = [
            stepped(*components)
            for size in range(4)
            for components in itertools.product(range(4), repeat=size)
        ]
        for lower in tuples:
            for upper in tuples:
                naive = (lower.arity, lower.components) < (upper.arity, upper.components)
                assert (order.decide(lower, upper) is not None) == naive

    def test_recursion_equation(self):
        order = stepped_lex(NAT)
        tuples = [
            stepped(*components)
            for size in range(3)
            for components in itertools.product(range(3), repeat=size)
        ]
        report = check_recursion_equation(
            order, descending_chain_step(order, tuples), tuples
        )
        assert report.ok


class TestFiniteFunctions:
    def test_smaller_key_below(self):
        order = finfun_exp(NAT, NAT)
        low = finite_function(NAT, [(1, 7)])
        up = finite_function(NAT, [(2, 7)])
        assert order.decide(low, up) is not None

    def test_empty_is_irreflexive(self):
        order = finfun_exp(NAT, NAT)
        empty = finite_function(NAT, [])
        assert order.decide(empty, empty) is None

    def test_equal_key_falls_through_to_the_value(self):
        order = finfun_exp(NAT, NAT)
        low = finite_function(NAT, [(2, 3)])
        up = finite_function(NAT, [(2, 5)])
        assert order.decide(low, up) is not None
        assert order.decide(up, low) is None

    def test_non_descending_keys_rejected(self):
        with pytest.raises(IncomparableError):
            finite_function(NAT, [(1, 0), (2, 0)])

    def test_recursion_equation(self):
        order = finfun_exp(NAT, NAT)
        functions = [
            finite_function(NAT, list(zip(keys, values)))
            for keys in ((), (0,), (1,), (1, 0))
            for values in itertools.product(range(2), repeat=len(keys))
        ]
        report = check_recursion_equation(
            order, descending_chain_step(order, functions), functions
        )
        assert report.ok


class TestMultisets:
    def test_canonical_entries(self):
        assert multiset_of(NAT, [1, 2, 1]).entries == ((2, 1), (1, 2))

    def test_one_two_below_two(self):
        order = multiset_relation(NAT)
        assert order.decide(multiset_of(NAT, [1, 1]), multiset_of(NAT, [2])) is not None

    def test_irreflexive(self):
        order = multiset_relation(NAT)
        two = multiset_of(NAT, [2])
        assert order.decide(two, two) is None

    def test_replacement_inside_a_shared_prefix(self):
        order = multiset_relation(NAT)
        assert (
            order.decide(multiset_of(NAT, [3, 1]), multiset_of(NAT, [3, 2, 2]))
            is not None
        )

    def test_incomparable_elements_rejected(self):
        divides = subrelation(
            NAT,
            embed=lambda low, up, _e: nat_less_decide(low, up),
            sub_decide=lambda low, up: (
                EQUAL if low >= 1 and low != up and up % low == 0 else None
            ),
        )
        with pytest.raises(IncomparableError):
            multiset_of(divides, [2, 3])

    def test_oracle_examples(self):
        assert dm_oracle(multiset_of(NAT, [1, 1]), multiset_of(NAT, [2]), NAT)
        assert not dm_oracle(multiset_of(NAT, [2]), multiset_of(NAT, [2]), NAT)

    def test_oracle_agreement_exhaustive(self):
        order = multiset_relation(NAT)
        multisets = all_multisets(range(4), 3)
        for lower in multisets:
            for upper in multisets:
                assert (order.decide(lower, upper) is not None) == dm_oracle(
                    lower, upper, NAT
                )

    def test_recursion_equation(self):
        order = multiset_relation(NAT)
        multisets = all_multisets(range(3), 2)
        report = check_recursion_equation(
            order, descending_chain_step(order, multisets), multisets
        )
        assert report.ok

    def test_capped_walk_count_matches_the_enumeration(self):
        # the descent bound of the multiset-nat walk, in closed form
        for max_key in range(12):
            keys = range(max_key + 1)
            enumerated = sum(
                1
                for size in range(_MULTISET_SIZE_CAP + 1)
                for _combo in itertools.combinations_with_replacement(keys, size)
            )
            assert _capped_multiset_count(max_key) == enumerated


class TestNestedMultisets:
    def test_singleton_depth(self):
        assert nm_singleton(nm_atom("*")).depth == 1

    def test_union_merges_multiplicities(self):
        unit_rel = nat_less()  # any order works for equal members
        single = nm_singleton(nm_atom(0))
        doubled = nm_union(unit_rel, single, single)
        assert doubled.payload == Inr(multiset_of(NAT, [0, 0]))

    def test_three_atoms_below_one_wrapper(self):
        order = nested_multiset_relation(NAT, max_depth=6)
        atom = nm_atom(0)
        three = nm_union(
            NAT, nm_union(NAT, nm_singleton(atom), nm_singleton(atom)), nm_singleton(atom)
        )
        wrapper = nm_singleton(nm_singleton(atom))
        assert order.decide(three, wrapper) is not None
        assert order.decide(wrapper, three) is None

    def test_atom_below_empty_multiset(self):
        order = nested_multiset_relation(NAT, max_depth=4)
        assert order.decide(nm_atom(0), nm_empty()) is not None

    def test_mixed_depth_union_lifts(self):
        inner = nm_singleton(nm_atom(0))
        mixed = nm_union(NAT, nm_singleton(inner), nm_singleton(nm_atom(0)))
        assert mixed.depth == 2
        keys = [key for key, _count in mixed.payload.value.entries]
        assert keys == [Inr(multiset_of(NAT, [0])), Inl(0)]

    def test_union_of_atoms_rejected(self):
        with pytest.raises(ValueError):
            nm_union(NAT, nm_atom(0), nm_atom(1))

    def test_lift_padding(self):
        assert lift_payload("x", 2) == Inl(Inl("x"))

    def test_recursion_equation(self):
        order = nested_multiset_relation(NAT, max_depth=4)
        atom = nm_atom(0)
        values = [
            atom,
            nm_atom(1),
            nm_empty(),
            nm_singleton(atom),
            nm_singleton(nm_atom(1)),
            nm_union(NAT, nm_singleton(atom), nm_singleton(atom)),
            nm_singleton(nm_singleton(atom)),
            nm_union(NAT, nm_singleton(nm_singleton(atom)), nm_singleton(nm_atom(1))),
        ]
        report = check_recursion_equation(
            order, descending_chain_step(order, values), values
        )
        assert report.ok and report.total == len(values)


class TestUnificationOrdering:
    def setup_method(self):
        self.order = unification_ordering(expr_substructure(), expr_vars)
        self.x, self.y = Var("x"), Var("y")

    def test_strictly_fewer_variables_wins(self):
        lower = (self.x, self.x)
        upper = (App("f", (self.x, self.y)), self.y)
        assert self.order.decide(lower, upper) is not None

    def test_equal_variables_need_substructure(self):
        fxy = App("f", (self.x, self.y))
        lower = (self.x, App("g", (self.y,)))
        upper = (fxy, self.y)
        assert self.order.decide(lower, upper) is not None

    def test_identical_pairs_unrelated(self):
        pair = (App("f", (self.x, self.y)), self.y)
        assert self.order.decide(pair, pair) is None

    def test_same_vars_without_substructure_unrelated(self):
        lower = (App("g", (self.x,)), self.y)
        upper = (App("f", (self.x,)), self.y)
        assert self.order.decide(lower, upper) is None


class TestDescents:
    def test_stepped_lex_descends(self):
        order = stepped_lex(NAT)
        pool = [
            stepped(*components)
            for size in range(3)
            for components in itertools.product(range(3), repeat=size)
        ]
        from wellfounded import with_enumerated_predecessors

        enumerated = with_enumerated_predecessors(order, pool)
        for seed in range(5):
            chain = fuzz_descent(enumerated, stepped(2, 2), seed=seed)
            assert chain[-1] == stepped()
            assert len(chain) <= len(pool)
