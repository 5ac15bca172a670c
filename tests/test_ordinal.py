import itertools
import random
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wellfounded import (
    EQUAL,
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
    nm_union,
    parse_ordinal,
    to_nested,
)
from wellfounded import checks
from wellfounded.checks import PROPERTIES, random_notation
from wellfounded.orders import _bounded_ordinal_predecessors
from wellfounded.combinators import Inl, Inr
from wellfounded.derived import Multiset, NestedMultiset
from wellfounded.ordinal import ONE, UNIT, add, from_nat, normalize, omega_power


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


def random_notation_by_pairwise_dedup(rng, depth):
    # the oracle: each candidate exponent is compared with every one kept,
    # and the notation is built by the checking constructor
    if depth == 0 or rng.random() < 0.3:
        return from_nat(rng.randrange(0, 4))
    exponents = []
    for _ in range(rng.randrange(1, 4)):
        candidate = random_notation_by_pairwise_dedup(rng, depth - 1)
        if all(compare(candidate, seen) is not Ordering.EQ for seen in exponents):
            exponents.append(candidate)
    exponents.sort(reverse=True)
    return OrdinalNotation(tuple((exponent, rng.randrange(1, 4)) for exponent in exponents))


@pytest.mark.parametrize("depth", range(6))
def test_random_notation_draws_what_pairwise_dedup_drew(depth):
    for seed in range(60):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            drawn = random_notation(rng, depth)
            assert drawn == random_notation_by_pairwise_dedup(oracle_rng, depth)
            assert OrdinalNotation(drawn.terms) == drawn  # the checks still pass
        assert rng.getstate() == oracle_rng.getstate()


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
        assert parse_ordinal("5", depth_limit=0) == parse_ordinal("5")

    def test_negative_depth_limit_is_refused_before_reading(self):
        for text in ("5", "w^", ""):
            with pytest.raises(ValueError) as info:
                parse_ordinal(text, depth_limit=-1)
            assert not isinstance(info.value, ParseError)
            assert str(info.value) == "depth limit must be at least 0: -1"

    def test_whitespace_insensitive(self):
        assert parse_ordinal(" w ^ 2 * 3+ 1 ") == parse_ordinal("w^2*3+1")

    def test_round_trip_on_random_notations(self, rng):
        for _ in range(200):
            notation = random_notation(rng, 3)
            assert parse_ordinal(format_ordinal(notation)) == notation


def scan_ordinal(text: str, depth_limit: int) -> OrdinalNotation:
    """The character scanner that parse_ordinal replaced, kept as its oracle;
    a number is a run of ASCII digits."""
    pos = 0
    end = len(text)

    def skip():
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def peek() -> str:
        skip()
        return text[pos] if pos < end else ""

    def take(expected: str):
        nonlocal pos
        if peek() != expected:
            raise ParseError(f"expected {expected!r}", pos)
        pos += 1

    def nat() -> int:
        nonlocal pos
        skip()
        start = pos
        while pos < end and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            raise ParseError("expected a number", start)
        try:
            return int(text[start:pos])
        except ValueError:
            raise ParseError(f"cannot read the {pos - start}-digit number", start) from None

    def atom(depth: int) -> OrdinalNotation:
        nonlocal pos
        head = peek()
        if head == "(":
            take("(")
            inner = ordinal(depth + 1)
            take(")")
            return inner
        if head == "w":
            pos += 1
            return OMEGA
        if "0" <= head <= "9":
            return from_nat(nat())
        raise ParseError("expected an exponent", pos)

    def term(depth: int):
        nonlocal pos
        head = peek()
        if head == "w":
            pos += 1
            exponent = ONE
            if peek() == "^":
                pos += 1
                exponent = atom(depth)
            coefficient = 1
            if peek() == "*":
                pos += 1
                coefficient = nat()
            return exponent, coefficient
        if "0" <= head <= "9":
            return ZERO_ORD, nat()
        raise ParseError("expected a term", pos)

    def ordinal(depth: int) -> OrdinalNotation:
        if depth > depth_limit:
            raise ParseError(f"nesting deeper than {depth_limit}", pos)
        terms = [term(depth)]
        while peek() == "+":
            take("+")
            terms.append(term(depth))
        return normalize(terms)

    parsed = ordinal(0)
    skip()
    if pos != end:
        raise ParseError("unexpected trailing input", pos)
    return parsed


def outcome(parse, text: str, depth_limit: int):
    try:
        return "ok", parse(text, depth_limit)
    except ParseError as error:
        return "error", str(error), error.position


ALPHABET = "0123456789\u00b2 \t\u00a0w^*+()"
SPACES = st.sampled_from(("", "", " ", "\t", "\u00a0", " \u00a0"))
NUMBERS = st.sampled_from(("0", "1", "7", "12", "\u00b2", "1\u00b2", "99"))


@st.composite
def near_grammar(draw, nesting=4):
    """Grammatical text with random spacing, then up to two character edits:
    it reaches the deep parser paths that random characters rarely do."""

    def ordinal(level):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                terms.append(draw(NUMBERS))
                continue
            term = "w"
            if draw(st.booleans()):
                nested = level and draw(st.booleans())
                exponent = "(" + draw(SPACES) + ordinal(level - 1) + ")" if nested else draw(NUMBERS)
                term += draw(SPACES) + "^" + draw(SPACES) + exponent
            if draw(st.booleans()):
                term += draw(SPACES) + "*" + draw(SPACES) + draw(NUMBERS)
            terms.append(term + draw(SPACES))
        return ("+" + draw(SPACES)).join(terms)

    text = draw(SPACES) + ordinal(nesting)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([*ALPHABET, ""])) + text[at + draw(st.integers(0, 1)) :]
    return text


class TestParserAgainstScanner:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(st.one_of(st.text(alphabet=ALPHABET, max_size=16), near_grammar()), st.integers(0, 3))
    @example("1\u00b2", 3)
    @example("w^( w)", 0)
    @example("w^(\u00a0(w)) + 2\u00b2x", 3)
    @example("w*12x", 3)
    @example("(w", 3)
    @example("w^(1 2)", 3)
    @example("w*\u0663", 3)
    def test_same_notation_or_same_error(self, text, depth_limit):
        assert outcome(parse_ordinal, text, depth_limit) == outcome(scan_ordinal, text, depth_limit)

    def test_whitespace_cannot_split_a_number(self):
        with pytest.raises(ParseError) as info:
            parse_ordinal("1 2")
        assert info.value.position == 2
        assert str(info.value) == "unexpected trailing input (at position 2)"


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

    def test_union_is_the_natural_sum(self, rng):
        def natural_sum(a, b):
            coefficients = {}
            for exponent, coefficient in a.terms + b.terms:
                coefficients[exponent] = coefficients.get(exponent, 0) + coefficient
            return OrdinalNotation(tuple(sorted(coefficients.items(), reverse=True)))

        def nonzero():
            while not (notation := random_notation(rng, 3)).terms:
                pass
            return notation

        for _ in range(300):
            a, b = nonzero(), nonzero()
            union = nm_union(empty_relation("unit"), to_nested(a), to_nested(b))
            assert union == to_nested(natural_sum(a, b))

    def test_omega_tower_depths(self):
        tower = OMEGA
        for expected_depth in (2, 3, 4):
            assert to_nested(tower).depth == expected_depth
            tower = omega_power(tower)


NOTATIONS = st.recursive(
    st.integers(0, 3).map(from_nat),
    lambda inner: st.lists(st.tuples(inner, st.integers(0, 3)), max_size=4).map(normalize),
    max_leaves=12,
)


def rebuilt(notation):
    """The same notation, with every level through the checking constructor."""
    return OrdinalNotation(tuple((rebuilt(e), c) for e, c in notation.terms))


class TestValidatedOnce:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(NOTATIONS, st.integers(0, 4)), max_size=6))
    def test_normalize_builds_what_the_constructor_accepts(self, terms):
        notation = normalize(terms)
        assert rebuilt(notation) == notation
        assert parse_ordinal(format_ordinal(notation)) == notation

    ONE_VIEW = to_nested(ONE).payload  # the exponent 1 sits at depth 1

    @pytest.mark.parametrize(
        "value",
        [
            NestedMultiset(depth=0, payload=5),
            NestedMultiset(depth=1, payload=Inr(Multiset(((5, 1),)))),
            NestedMultiset(depth=2, payload=Inl(ONE_VIEW)),
            NestedMultiset(depth=2, payload=Inr(Multiset(((ONE_VIEW, 1), (ONE_VIEW, 2))))),
            NestedMultiset(depth=2, payload=Inr(Multiset(((Inl(UNIT), 1), (ONE_VIEW, 1))))),
            NestedMultiset(depth=2, payload=Inr(Multiset(((ONE_VIEW, 0),)))),
            NestedMultiset(depth=1, payload=Inr(Multiset(((Inl(UNIT), 1),)))),
        ],
        ids=[
            "atom", "inner-atom", "lifted-top", "equal-exponents", "rising-exponents", "zero-count",
            "over-lifted-key",
        ],
    )
    def test_from_nested_rejects_non_canonical_input(self, value):
        with pytest.raises(ValueError):
            from_nested(value)


class TestAgreementBattery:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ordinal_agreement.py"

    def run_script(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ordinal_agreement.py", "--samples", "50"])
        return runpy.run_path(str(self.SCRIPT))["main"]()

    def test_swapped_compare_fails_the_entry_and_the_script(self, monkeypatch, capsys):
        _name, check, small, _full = next(
            entry for entry in PROPERTIES if entry[0] == "ordinal-agreement"
        )
        assert check(0, **small) is None
        assert self.run_script(monkeypatch) == 0
        original = checks.compare
        swapped = {
            Ordering.LT: Ordering.GT, Ordering.GT: Ordering.LT, Ordering.EQ: Ordering.EQ
        }
        monkeypatch.setattr(checks, "compare", lambda a, b: swapped[original(a, b)])
        assert check(0, **small).startswith("nested comparison differs")
        capsys.readouterr()
        assert self.run_script(monkeypatch) == 1
        assert "nested comparison differs" in capsys.readouterr().out


class TestDescent:
    def test_no_infinite_descent_from_small_notations(self, rng):
        from wellfounded.orders import named_descent_order
        from wellfounded import fuzz_descent

        order = named_descent_order("ord")
        for seed in range(25):
            start = random_notation(rng, 2)
            chain = fuzz_descent(order.relation, start, max_steps=10000, seed=seed)
            for above, below in zip(chain, chain[1:]):
                assert compare(below, above) is Ordering.LT
            assert chain[-1] == ZERO_ORD or not chain[-1].terms


def bounded_ordinal_predecessors_before(upper, nested=False):
    # the bounded walk's enumeration as written before it collected its
    # candidates in a set: the oracle
    candidates = []

    def note(candidate):
        if compare(candidate, upper) is Ordering.LT and all(
            candidate != seen for seen in candidates
        ):
            candidates.append(candidate)

    terms = upper.terms
    if not terms:
        return ()
    head, last = terms[:-1], terms[-1]
    exponent, coefficient = last
    note(OrdinalNotation(head))
    if coefficient > 1:
        note(OrdinalNotation(head + ((exponent, coefficient - 1),)))
    if exponent != ZERO_ORD and not nested:
        trimmed = head + ((exponent, coefficient - 1),) if coefficient > 1 else head
        lower_exponents = [
            low for low, _e in bounded_ordinal_predecessors_before(exponent, nested=True)
        ]
        for lower_exponent in lower_exponents:
            for repeat in (1, 2, 3):
                note(normalize(trimmed + ((lower_exponent, repeat),)))
    return tuple((candidate, EQUAL) for candidate in sorted(candidates, reverse=True))


@given(st.integers(0, 2**32), st.integers(0, 4), st.booleans())
def test_bounded_ordinal_predecessors_match_the_walk_before_the_set(seed, depth, nested):
    upper = random_notation(random.Random(seed), depth)
    assert _bounded_ordinal_predecessors(upper, nested) == (
        bounded_ordinal_predecessors_before(upper, nested)
    )


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
