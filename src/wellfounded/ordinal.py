"""Ordinal notations below epsilon-0 in Cantor normal form.

A notation is a descending sum ``w^e1*c1 + ... + w^ek*ck`` with notation
exponents and positive integer coefficients; the empty sum is 0.  The
canonical store is the normal form; the nested-multiset view over the unit
carrier (``to_nested`` / ``from_nested``) provides an independent
comparison path that the test suite plays off against direct comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from .combinators import Inl, Inr
from .derived import Multiset, NestedMultiset, lift_payload, nm_atom


class Ordering(enum.Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"


@dataclass(frozen=True)
class OrdinalNotation:
    """Cantor normal form: exponent/coefficient terms, exponents decreasing."""

    terms: Tuple[Tuple["OrdinalNotation", int], ...] = ()

    def __post_init__(self):
        for _exponent, coefficient in self.terms:
            if coefficient < 1:
                raise ValueError("coefficients must be positive")
        for (left, _), (right, _) in zip(self.terms, self.terms[1:]):
            if compare(right, left) is not Ordering.LT:
                raise ValueError("exponents must strictly decrease")

    def __repr__(self) -> str:
        return f"OrdinalNotation({format_ordinal(self)!r})"

    def __lt__(self, other: "OrdinalNotation") -> bool:
        """The order of ``compare``, so that notations sort."""
        return compare(self, other) is Ordering.LT


ZERO_ORD = OrdinalNotation(())


def from_nat(n: int) -> OrdinalNotation:
    if n < 0:
        raise ValueError("no notation for negative numbers")
    return ZERO_ORD if n == 0 else OrdinalNotation(((ZERO_ORD, n),))


ONE = from_nat(1)
OMEGA = OrdinalNotation(((ONE, 1),))


def omega_power(exponent: OrdinalNotation, coefficient: int = 1) -> OrdinalNotation:
    return normalize([(exponent, coefficient)])


def compare(a: OrdinalNotation, b: OrdinalNotation) -> Ordering:
    """Total order on normal forms: terms compare lexicographically with
    recursive exponent comparison; a proper prefix is smaller."""
    for (exp_a, coeff_a), (exp_b, coeff_b) in zip(a.terms, b.terms):
        exponents = compare(exp_a, exp_b)
        if exponents is not Ordering.EQ:
            return exponents
        if coeff_a != coeff_b:
            return Ordering.LT if coeff_a < coeff_b else Ordering.GT
    if len(a.terms) != len(b.terms):
        return Ordering.LT if len(a.terms) < len(b.terms) else Ordering.GT
    return Ordering.EQ


def normalize(terms) -> OrdinalNotation:
    """Left-to-right ordinal addition of raw terms.

    A prefix with a lower exponent is absorbed by a following term of
    higher or equal exponent; equal adjacent exponents merge coefficients;
    zero coefficients vanish.
    """
    result: list = []
    for exponent, coefficient in terms:
        if coefficient < 0:
            raise ValueError("coefficients cannot be negative")
        if coefficient == 0:
            continue
        while result and compare(result[-1][0], exponent) is Ordering.LT:
            result.pop()
        if result and result[-1][0] == exponent:
            result[-1] = (exponent, result[-1][1] + coefficient)
        else:
            result.append((exponent, coefficient))
    return OrdinalNotation(tuple(result))


def add(a: OrdinalNotation, b: OrdinalNotation) -> OrdinalNotation:
    return normalize(tuple(a.terms) + tuple(b.terms))


# ---------------------------------------------------------------------------
# Parsing and printing.
#
#   ordinal := term ('+' term)* ;
#   term    := 'w' ('^' atom)? ('*' nat)? | nat ;
#   atom    := nat | 'w' | '(' ordinal ')' ;
#   nat     := [0-9]+ .


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_ordinal(text: str, depth_limit: int = 64) -> OrdinalNotation:
    """Parse a notation; whitespace-insensitive, errors carry the position."""
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
        while pos < end and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ParseError("expected a number", start)
        try:
            return int(text[start:pos])
        except ValueError:  # too many digits for int(), or one it cannot read
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
        if head.isdigit():
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
        if head.isdigit():
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


def _is_finite(o: OrdinalNotation) -> bool:
    return not o.terms or (len(o.terms) == 1 and o.terms[0][0] == ZERO_ORD)


def _atom_text(exponent: OrdinalNotation) -> str:
    if _is_finite(exponent):
        return str(exponent.terms[0][1]) if exponent.terms else "0"
    if exponent == OMEGA:
        return "w"
    return "(" + format_ordinal(exponent) + ")"


def format_ordinal(o: OrdinalNotation) -> str:
    """Canonical text: unit coefficients omitted, exponent one is a bare
    ``w``, exponent zero prints as the bare coefficient."""
    if not o.terms:
        return "0"
    parts = []
    for exponent, coefficient in o.terms:
        if exponent == ZERO_ORD:
            parts.append(str(coefficient))
            continue
        text = "w" if exponent == ONE else "w^" + _atom_text(exponent)
        if coefficient != 1:
            text += f"*{coefficient}"
        parts.append(text)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# The nested-multiset view over the unit carrier.

@dataclass(frozen=True)
class UnitValue:
    def __repr__(self) -> str:
        return "unit"


UNIT = UnitValue()


def to_nested(o: OrdinalNotation) -> NestedMultiset:
    """Translate a notation into a nested multiset over the unit carrier.

    Zero is the bare atom; otherwise each term contributes its coefficient
    as the count of its translated exponent.  Exponents in normal form
    arrive strictly decreasing, which keeps the member keys descending.
    """
    if not o.terms:
        return nm_atom(UNIT)
    members = [(to_nested(exponent), coefficient) for exponent, coefficient in o.terms]
    depth = 1 + max(member.depth for member, _count in members)
    entries = tuple(
        (lift_payload(member.payload, depth - 1 - member.depth), count)
        for member, count in members
    )
    return NestedMultiset(depth=depth, payload=Inr(Multiset(entries=entries)))


def from_nested(value: NestedMultiset) -> OrdinalNotation:
    """Inverse of ``to_nested`` on canonical values."""
    if value.depth == 0:
        if value.payload != UNIT:
            raise ValueError("expected the unit atom at depth 0")
        return ZERO_ORD
    if isinstance(value.payload, Inl):
        raise ValueError("not stored at minimal depth")
    terms = []
    for key, count in value.payload.value.entries:
        inner_depth, node = value.depth - 1, key
        while isinstance(node, Inl):
            inner_depth, node = inner_depth - 1, node.value
        exponent = from_nested(NestedMultiset(depth=inner_depth, payload=node))
        terms.append((exponent, count))
    return OrdinalNotation(tuple(terms))
