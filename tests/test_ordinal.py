import itertools

import pytest
from hypothesis import given, strategies as st

from wellfounded import (
    OMEGA,
    Ordering,
    OrdinalNotation,
    ParseError,
    ZERO_ORD,
    compare,
    empty_relation,
    format_ordinal,
    from_nested,
    nested_multiset_relation,
    parse_ordinal,
    to_nested,
)
from wellfounded.checks import random_notation
from wellfounded.ordinal import ONE, add, from_nat, normalize, omega_power


class TestCompare:
    def test_omega_below_omega_to_omega(self):
        assert compare(parse_ordinal("w"), parse_ordinal("w^w")) is Ordering.LT

    def test_equal_notations(self):
        assert compare(parse_ordinal("w*2+1"), parse_ordinal("w*2+1")) is Ordering.EQ

    def test_square_dominates_any_linear_term(self):
        assert compare(parse_ordinal("w^2"), parse_ordinal("w*9+5")) is Ordering.GT

    def test_vector_oracle_below_omega_omega(self):
        notations = []
        for coefficients in itertools.product(range(4), repeat=4):
            terms = [
                (from_nat(exponent), coefficient)
                for exponent, coefficient in zip((3, 2, 1, 0), coefficients)
                if coefficient
            ]
            notations.append((OrdinalNotation(tuple(terms)), coefficients))
        for (left, vector_left), (right, vector_right) in itertools.product(
            notations, repeat=2
        ):
            expected = (
                Ordering.LT
                if vector_left < vector_right
                else Ordering.GT
                if vector_left > vector_right
                else Ordering.EQ
            )
            assert compare(left, right) is expected

    def test_trichotomy_and_transitivity_on_samples(self, rng):
        samples = [random_notation(rng, 3) for _ in range(40)]
        for a in samples:
            for b in samples:
                outcomes = {compare(a, b), compare(b, a)}
                if compare(a, b) is Ordering.EQ:
                    assert a == b and outcomes == {Ordering.EQ}
                else:
                    assert outcomes == {Ordering.LT, Ordering.GT}
        for a, b, c in zip(samples, samples[1:], samples[2:]):
            if compare(a, b) is Ordering.LT and compare(b, c) is Ordering.LT:
                assert compare(a, c) is Ordering.LT


class TestNormalize:
    def test_lower_prefix_absorbed(self):
        assert normalize([(ZERO_ORD, 1), (ONE, 1)]) == OMEGA
        assert format_ordinal(parse_ordinal("1+w")) == "w"

    def test_equal_exponents_merge(self):
        assert format_ordinal(parse_ordinal("w+w")) == "w*2"

    def test_zero(self):
        assert parse_ordinal("0") == ZERO_ORD
        assert normalize([]) == ZERO_ORD

    def test_zero_coefficients_vanish(self):
        assert normalize([(ONE, 0), (ZERO_ORD, 2)]) == from_nat(2)

    def test_addition_is_normalization(self):
        left = parse_ordinal("w^2 + 3")
        right = parse_ordinal("w")
        assert format_ordinal(add(left, right)) == "w^2 + w"

    def test_order_isomorphism_on_small_sums(self):
        # absorption mirrors finite-plus-limit arithmetic: n + w == w
        for n in range(5):
            assert add(from_nat(n), OMEGA) == OMEGA
            assert compare(add(OMEGA, from_nat(n + 1)), OMEGA) is Ordering.GT


class TestParsePrint:
    def test_spec_walkthrough(self):
        parsed = parse_ordinal("w^2*3 + w + 5")
        assert parsed.terms == ((from_nat(2), 3), (ONE, 1), (ZERO_ORD, 5))

    def test_canonical_printing(self):
        assert format_ordinal(parse_ordinal("w^(w)*1")) == "w^w"
        assert format_ordinal(parse_ordinal("w^1*1")) == "w"
        assert format_ordinal(parse_ordinal("w^0*7")) == "7"
        assert format_ordinal(parse_ordinal("w^(w+1)*2")) == "w^(w + 1)*2"

    def test_position_tagged_errors(self):
        with pytest.raises(ParseError) as info:
            parse_ordinal("w^")
        assert info.value.position == 2
        with pytest.raises(ParseError):
            parse_ordinal("w +")
        with pytest.raises(ParseError):
            parse_ordinal("(w")
        with pytest.raises(ParseError):
            parse_ordinal("w) + 1")

    def test_depth_limit(self):
        nested = "w^" + "(w^" * 10 + "w" + ")" * 10
        assert parse_ordinal(nested, depth_limit=64) is not None
        with pytest.raises(ParseError):
            parse_ordinal(nested, depth_limit=5)

    def test_whitespace_insensitive(self):
        assert parse_ordinal(" w ^ 2 * 3+ 1 ") == parse_ordinal("w^2*3+1")

    def test_round_trip_on_random_notations(self, rng):
        for _ in range(200):
            notation = random_notation(rng, 3)
            assert parse_ordinal(format_ordinal(notation)) == notation


class TestNestedView:
    def setup_method(self):
        self.order = nested_multiset_relation(empty_relation("unit"), max_depth=10)

    def test_zero_is_the_atom(self):
        assert to_nested(ZERO_ORD).depth == 0
        assert from_nested(to_nested(ZERO_ORD)) == ZERO_ORD

    def test_one_is_the_singleton_over_the_atom(self):
        one = to_nested(from_nat(1))
        assert one.depth == 1
        assert from_nested(one) == from_nat(1)

    def test_omega_wraps_once_more(self):
        translated = to_nested(OMEGA)
        assert translated.depth == 2
        assert from_nested(translated) == OMEGA

    def test_round_trip_on_random_notations(self, rng):
        for _ in range(200):
            notation = random_notation(rng, 3)
            assert from_nested(to_nested(notation)) == notation

    def test_comparison_agreement(self, rng):
        for _ in range(250):
            a = random_notation(rng, 3)
            b = random_notation(rng, 3)
            direct = compare(a, b) is Ordering.LT
            nested = self.order.decide(to_nested(a), to_nested(b)) is not None
            assert direct == nested

    def test_omega_tower_depths(self):
        tower = OMEGA
        for expected_depth in (2, 3, 4):
            assert to_nested(tower).depth == expected_depth
            tower = omega_power(tower)


class TestDescent:
    def test_no_infinite_descent_from_small_notations(self, rng):
        from wellfounded.checks import named_descent_order
        from wellfounded import fuzz_descent

        order = named_descent_order("ord")
        for seed in range(25):
            start = random_notation(rng, 2)
            chain = fuzz_descent(order.relation, start, max_steps=10000, seed=seed)
            for above, below in zip(chain, chain[1:]):
                assert compare(below, above) is Ordering.LT
            assert chain[-1] == ZERO_ORD or not chain[-1].terms


class TestInvariants:
    def test_coefficients_must_be_positive(self):
        with pytest.raises(ValueError):
            OrdinalNotation(((ZERO_ORD, 0),))

    def test_exponents_must_strictly_decrease(self):
        with pytest.raises(ValueError):
            OrdinalNotation(((ONE, 1), (ONE, 1)))

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_finite_segment_embeds(self, m, n):
        expected = (
            Ordering.LT if m < n else Ordering.GT if m > n else Ordering.EQ
        )
        assert compare(from_nat(m), from_nat(n)) is expected
