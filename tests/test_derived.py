import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wellfounded import (
    EQUAL,
    App,
    DescentBudgetError,
    IncomparableError,
    Inl,
    Inr,
    UndecidableError,
    Var,
    WFRelation,
    check_recursion_equation,
    disjoint_sum,
    dm_oracle,
    empty_relation,
    expr_substructure,
    expr_vars,
    finfun_exp,
    finite_function,
    fuzz_descent,
    inverse_image,
    lex_family,
    lex_first,
    lex_product,
    multiset_of,
    multiset_relation,
    nat_less,
    nat_less_decide,
    nested_multiset_relation,
    nm_atom,
    nm_empty,
    nm_singleton,
    nm_union,
    pow_relation,
    stepped,
    stepped_lex,
    subrelation,
    unification_ordering,
    validated_evidence,
    wfrec,
)
from wellfounded.checks import (
    all_multisets,
    census_step,
    descending_chain_step,
    properly_divides,
)
from wellfounded.orders import _MULTISET_SIZE_CAP, _capped_multiset_count
from wellfounded.derived import (
    FiniteFunction,
    SteppedTuple,
    _tower,
    level_relation,
    lift_payload,
)
from wellfounded.power import DescendingList, DescentCert

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


def sliced_stepped_lex(rel):
    # stepped_lex with each tuple power pulled back from a lex product along
    # (t[0], t[1:]): the oracle for the powers on nested pairs
    powers = _tower(
        empty_relation(carrier=f"{rel.carrier}^0"),
        lambda tails, n: inverse_image(
            lex_product(rel, tails), lambda t: (t[0], t[1:]), carrier=f"{rel.carrier}^{n}"
        ),
    )
    base = lex_family(nat_less(), powers, carrier=f"arity-then-{rel.carrier}")
    return inverse_image(
        base, lambda t: (t.arity, t.components), carrier=f"stepped({rel.carrier})"
    )


def test_stepped_lex_matches_the_sliced_powers():
    order, oracle = stepped_lex(NAT), sliced_stepped_lex(NAT)
    tuples = [
        stepped(*components)
        for size in range(5)
        for components in itertools.product(range(3), repeat=size)
    ]
    for lower in tuples:
        for upper in tuples:
            assert decide_outcome(order, lower, upper) == decide_outcome(oracle, lower, upper)
    # the chain meets each tuple's immediate predecessor first: 120 levels
    values = [
        (
            wfrec(rel, descending_chain_step(rel, tuples[::-1]), tuples[-1]),
            wfrec(rel, census_step(rel, tuples[:40]), tuples[39]),
        )
        for rel in (order, oracle)
    ]
    assert values[0] == values[1] == (120, 2 ** 39)


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

    @pytest.mark.parametrize("order", [finfun_exp(NAT, NAT), multiset_relation(NAT)])
    def test_unchecked_keys_are_rejected_in_either_position(self, order):
        # built without the checked constructor, so only the measure sees it
        rising = FiniteFunction(entries=((1, 0), (2, 0)))
        other = finite_function(NAT, [(0, 1)])
        message = "keys not strictly descending under nat: 2 after 1"
        for lower, upper in ((rising, other), (other, rising)):
            with pytest.raises(IncomparableError, match=message):
                order.decide(lower, upper)
        with pytest.raises(IncomparableError, match=message):
            finite_function(NAT, rising.entries)

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


def certified_finfun_exp(rel_a, rel_b):
    # the pull-back with a measure that certifies every list, deciding
    # included: the oracle for deciding on the entries
    def as_descending(ff):
        steps = []
        for (upper, _), (lower, _) in zip(ff.entries, ff.entries[1:]):
            evidence = rel_a.decide(lower, upper)
            if evidence is None:
                raise IncomparableError(
                    f"keys not strictly descending under {rel_a.carrier}: "
                    f"{lower!r} after {upper!r}"
                )
            steps.append(lex_first(evidence))
        return DescendingList(elements=ff.entries, cert=DescentCert(tuple(steps)))

    return inverse_image(pow_relation(lex_product(rel_a, rel_b)), as_descending)


DIVIDES = properly_divides()
LAYER_1 = level_relation(NAT, 1)

# (order, oracle, keys in ascending order, values, wrap): keys are drawn
# as descending index sets (well-formed, unless the key order is partial)
# or as raw index lists (rising and repeated keys)
DIFFERENTIAL_CASES = {
    "finfun": (finfun_exp(NAT, NAT), certified_finfun_exp(NAT, NAT), range(5), range(3), None),
    "finfun-divides": (
        finfun_exp(DIVIDES, NAT),
        certified_finfun_exp(DIVIDES, NAT),
        (1, 2, 3, 4, 6, 12),
        range(2),
        None,
    ),
    "multiset": (multiset_relation(NAT), certified_finfun_exp(NAT, NAT), range(5), (1, 2), None),
    "nested-layer": (
        level_relation(NAT, 2),
        disjoint_sum(LAYER_1, certified_finfun_exp(LAYER_1, NAT)),
        (Inl(0), Inl(1)) + tuple(Inr(multiset_of(NAT, bag)) for bag in ([], [0], [0, 0], [1])),
        (1, 2),
        Inr,
    ),
}


def decide_outcome(order, lower, upper):
    try:
        evidence = order.decide(lower, upper)
    except Exception as error:
        return type(error), str(error)
    return evidence, repr(evidence)


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_entry_decide_matches_the_certified_pull_back(case, data):
    order, oracle, keys, values, wrap = DIFFERENTIAL_CASES[case]
    index = st.integers(0, len(keys) - 1)
    indices = st.one_of(
        st.sets(index, max_size=4).map(lambda chosen: sorted(chosen, reverse=True)),
        st.lists(index, max_size=4),
    )

    def draw_function():
        entries = tuple(
            (keys[i], data.draw(st.sampled_from(values))) for i in data.draw(indices)
        )
        function = FiniteFunction(entries=entries)
        return function if wrap is None else wrap(function)

    lower, upper = draw_function(), draw_function()
    assert decide_outcome(order, lower, upper) == decide_outcome(oracle, lower, upper)


class TestEntryDecide:
    class CertificateBuilt(Exception):
        pass

    def test_deciding_builds_no_certificate_and_recursion_does(self, monkeypatch):
        order = multiset_relation(NAT)
        pool = [multiset_of(NAT, bag) for bag in ([], [0], [1], [1, 0], [1, 1], [2])]
        top, rising = pool[-1], FiniteFunction(entries=((1, 1), (2, 1)))

        def census(x, rec):
            below = [y for y in pool if order.decide(y, x) is not None]
            return 1 + sum(rec(y, order.decide(y, x)) for y in below)

        def refuse(*_args, **_kwargs):
            raise self.CertificateBuilt

        monkeypatch.setattr("wellfounded.derived.DescentCert", refuse)
        assert order.decide(pool[4], top) is not None
        assert order.decide(top, pool[4]) is None
        for lower, upper in ((rising, top), (top, rising)):
            with pytest.raises(IncomparableError, match="keys not strictly descending"):
                order.decide(lower, upper)
        # a release run evaluates flat and builds none either; the derived
        # recursor of a validated run certifies each list through its measure
        assert wfrec(order, census, top) == 2 ** 5
        with validated_evidence(), pytest.raises(self.CertificateBuilt):
            wfrec(order, census, top)
        monkeypatch.undo()
        with validated_evidence():
            assert wfrec(order, census, top) == 2 ** 5


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

    def test_oracle_refusals(self):
        lower, upper = multiset_of(NAT, [1, 1]), multiset_of(NAT, [2])
        unlisted = WFRelation(carrier="unlisted", decide=nat_less_decide)
        with pytest.raises(UndecidableError, match="needs predecessors"):
            dm_oracle(lower, upper, unlisted)
        # the first state after {2} is {}: a second state past a budget of one
        with pytest.raises(DescentBudgetError, match="exceeded its budget"):
            dm_oracle(lower, upper, NAT, budget=1)

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

    def test_an_iterator_carrier_gives_every_multiset(self):
        from_range = all_multisets(range(3), 2)
        assert len(from_range) == 10
        assert all_multisets(iter(range(3)), 2) == from_range


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

    def test_union_of_unrelated_members_rejected(self):
        unrelated = empty_relation("atoms")
        with pytest.raises(IncomparableError):
            nm_union(unrelated, nm_singleton(nm_atom("a")), nm_singleton(nm_atom("b")))

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

    def test_recursion_embeds_both_kinds_of_descent(self):
        # a subrelation of an inverse image of a lex product whose column is
        # a closure: each call converts its evidence to the lex branch
        x, y = self.x, self.y
        gy = App("g", (y,))
        fxgy = App("f", (x, gy))
        expressions = [x, y, gy, App("f", (x, y)), fxgy, App("h", (fxgy,))]
        pairs = [(first, second) for first in expressions for second in (x, y)]
        top = (App("h", (fxgy,)), x)
        census, kinds = census_step(self.order, pairs), set()

        def step(pair, rec):
            def noted(lower, evidence):
                kinds.add("fewer" if evidence.fewer_vars is not None else "structural")
                return rec(lower, evidence)

            return census(pair, noted)

        released = wfrec(self.order, step, top)
        assert kinds == {"fewer", "structural"}
        assert check_recursion_equation(self.order, census, pairs).ok
        with validated_evidence():
            assert wfrec(self.order, census, top) == released
            assert check_recursion_equation(self.order, census, pairs).ok


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
