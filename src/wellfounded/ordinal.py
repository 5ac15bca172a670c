"""Ordinal notations below epsilon-0 in Cantor normal form.

A notation is a descending sum ``w^e1*c1 + ... + w^ek*ck`` with notation
exponents and positive integer coefficients; the empty sum is 0.  The
canonical store is the normal form; the nested-multiset view over the unit
carrier (``to_nested`` / ``from_nested``) provides an independent
comparison path that the test suite plays off against direct comparison.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Tuple

from .combinators import Inl, Inr
from .derived import Multiset, NestedMultiset, lift_payload


class Ordering(enum.Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"


_LT, _EQ, _GT = Ordering.LT, Ordering.EQ, Ordering.GT  # a global read is cheaper than an enum lookup


@dataclass(frozen=True)
class OrdinalNotation:
    """Cantor normal form, checked here: exponents decrease, coefficients are positive."""

    terms: Tuple[Tuple["OrdinalNotation", int], ...] = ()

    def __post_init__(self):
        for _exponent, coefficient in self.terms:
            if coefficient < 1:
                raise ValueError("coefficients must be positive")
        for (left, _), (right, _) in zip(self.terms, self.terms[1:]):
            if compare(right, left) is not _LT:
                raise ValueError("exponents must strictly decrease")

    def __repr__(self) -> str:
        return f"OrdinalNotation({format_ordinal(self)!r})"

    def __lt__(self, other: "OrdinalNotation") -> bool:
        """The order of ``compare``, so that notations sort."""
        return compare(self, other) is _LT


def _normal_form(terms: tuple) -> OrdinalNotation:
    """A notation from terms already proven normal, without a second check."""
    notation = object.__new__(OrdinalNotation)
    object.__setattr__(notation, "terms", terms)
    return notation


ZERO_ORD = OrdinalNotation(())


def from_nat(n: int) -> OrdinalNotation:
    if n < 0:
        raise ValueError("no notation for negative numbers")
    return ZERO_ORD if n == 0 else _normal_form(((ZERO_ORD, n),))


ONE = from_nat(1)
OMEGA = OrdinalNotation(((ONE, 1),))


def omega_power(exponent: OrdinalNotation, coefficient: int = 1) -> OrdinalNotation:
    return normalize([(exponent, coefficient)])


def compare(a: OrdinalNotation, b: OrdinalNotation) -> Ordering:
    """Total order on normal forms: terms compare lexicographically with
    recursive exponent comparison; a proper prefix is smaller."""
    if a is b:  # ZERO_ORD, ONE and OMEGA are shared
        return _EQ
    for (exp_a, coeff_a), (exp_b, coeff_b) in zip(a.terms, b.terms):
        exponents = compare(exp_a, exp_b)
        if exponents is not _EQ:
            return exponents
        if coeff_a != coeff_b:
            return _LT if coeff_a < coeff_b else _GT
    return _EQ if len(a.terms) == len(b.terms) else _LT if len(a.terms) < len(b.terms) else _GT


def normalize(terms) -> OrdinalNotation:
    """Left-to-right ordinal addition of raw terms.

    A prefix with a lower exponent is absorbed by a following term of
    higher or equal exponent; equal adjacent exponents merge coefficients;
    zero coefficients vanish.  The result is normal by construction.
    """
    result: list = []
    for exponent, coefficient in terms:
        if coefficient < 0:
            raise ValueError("coefficients cannot be negative")
        if coefficient == 0:
            continue
        while result:
            order = compare(result[-1][0], exponent)
            if order is not _LT:
                break
            result.pop()
        if result and order is _EQ:
            result[-1] = (exponent, result[-1][1] + coefficient)
        else:
            result.append((exponent, coefficient))
    return _normal_form(tuple(result))


def add(a: OrdinalNotation, b: OrdinalNotation) -> OrdinalNotation:
    return normalize(tuple(a.terms) + tuple(b.terms))


# ---------------------------------------------------------------------------
# Parsing and printing.
#
#   ordinal := term ('+' term)* ;
#   term    := 'w' ('^' atom)? ('*' nat)? | nat ;
#   atom    := nat | 'w' | '(' ordinal ')' ;
#   nat     := [0-9]+ .
# a run of ASCII digits, a run of other characters, or one syntax character
_TOKEN = re.compile(r"[0-9]+|[^\s()^*+w0-9]+|\S")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_ordinal(text: str, depth_limit: int = 64) -> OrdinalNotation:
    """Parse a notation; whitespace separates tokens but cannot split a
    number, and errors carry the position.  ``depth_limit`` bounds the
    nesting of parentheses and must be at least 0."""
    if depth_limit < 0:
        raise ValueError(f"depth limit must be at least 0: {depth_limit}")
    tokens = _TOKEN.findall(text) + [""]  # "" marks the end; nothing steps past it
    i = 0

    def error(message: str, after: bool = False) -> ParseError:
        position = 0  # at the start of the next token, or ``after`` the last one read
        for token in tokens[:i]:
            position = text.index(token, position) + len(token)
        if not after:
            position = text.index(tokens[i], position) if tokens[i] else len(text)
        return ParseError(message, position)

    def nat(expected: str) -> int:
        nonlocal i
        token = tokens[i]
        if not (token.isascii() and token.isdigit()):
            raise error(f"expected {expected}")
        try:
            value = int(token)
        except ValueError:  # too many digits for int()
            raise error(f"cannot read the {len(token)}-digit number") from None
        i += 1
        return value

    def atom(depth: int) -> OrdinalNotation:
        nonlocal i
        if tokens[i] == "w":
            i += 1
            return OMEGA
        if tokens[i] != "(":
            return from_nat(nat("an exponent"))
        i += 1
        inner = ordinal(depth + 1)
        if tokens[i] != ")":
            raise error("expected ')'")
        i += 1
        return inner

    def ordinal(depth: int) -> OrdinalNotation:
        nonlocal i
        if depth > depth_limit:
            raise error(f"nesting deeper than {depth_limit}", after=True)
        terms = []
        while True:
            if tokens[i] != "w":
                terms.append((ZERO_ORD, nat("a term")))
            else:
                i += 1
                exponent, coefficient = ONE, 1
                if tokens[i] == "^":
                    i += 1
                    exponent = atom(depth)
                if tokens[i] == "*":
                    i += 1
                    coefficient = nat("a number")
                terms.append((exponent, coefficient))
            if tokens[i] != "+":
                return normalize(terms)
            i += 1

    parsed = ordinal(0)
    if tokens[i]:
        raise error("unexpected trailing input")
    return parsed


def format_ordinal(o: OrdinalNotation) -> str:
    """Canonical text: unit coefficients omitted, exponent one is a bare
    ``w``, exponent zero prints as the bare coefficient."""
    parts = []
    try:
        for exponent, coefficient in o.terms:
            power = format_ordinal(exponent)
            if power == "0":
                parts.append(str(coefficient))
                continue
            bare = power.isdigit() or power == "w"
            text = "w" if power == "1" else f"w^{power}" if bare else f"w^({power})"
            parts.append(text if coefficient == 1 else f"{text}*{coefficient}")
    except ValueError:  # str() refuses integers past the interpreter's digit limit
        raise ValueError("cannot print a coefficient past the interpreter's digit limit") from None
    return " + ".join(parts) or "0"


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
    return NestedMultiset(*_to_layer(o))


def _to_layer(o: OrdinalNotation) -> tuple:  # (depth, payload)
    if not o.terms:
        return 0, UNIT
    entries = []
    for exponent, count in o.terms:
        inner, payload = _to_layer(exponent)
        if not entries:  # the first exponent is the largest, so the deepest
            depth = inner + 1
        entries.append((lift_payload(payload, depth - 1 - inner), count))
    return depth, Inr(Multiset(tuple(entries)))


def from_nested(value: NestedMultiset) -> OrdinalNotation:
    """Inverse of ``to_nested`` on canonical values."""
    return _from_layer(value.depth, value.payload)


def _from_layer(depth: int, payload) -> OrdinalNotation:
    if depth <= 0:  # below 0 when a key is lifted past the atom layer
        if depth or payload != UNIT:
            raise ValueError("expected the unit atom at depth 0")
        return ZERO_ORD
    if isinstance(payload, Inl):
        raise ValueError("not stored at minimal depth")
    terms = []
    for key, count in payload.value.entries:
        inner = depth - 1
        while isinstance(key, Inl):
            inner, key = inner - 1, key.value
        terms.append((_from_layer(inner, key), count))
    return OrdinalNotation(tuple(terms))
