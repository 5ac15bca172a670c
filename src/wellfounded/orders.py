"""The named descent orders and the numeral parsers of the ``wf`` command.

The named orders (``ORDER_NAMES``: ``nat``, ``pow-nat``, ``multiset-nat``,
``ord``) bundle a relation with a start-value parser and a conservative
descent bound for seeded random descending walks.  The multiset and ordinal
orders have infinitely many predecessors, so their walks draw from
documented bounded enumerations instead; every enumerated element is
verified smaller, which keeps the walks strictly descending.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .core import EQUAL, WFRelation, nat_less, with_enumerated_predecessors
from .power import descending, pow_nat_rank, pow_relation
from .derived import Multiset, multiset_elements, multiset_of, multiset_relation
from .ordinal import (
    OrdinalNotation,
    Ordering,
    ZERO_ORD,
    compare,
    format_ordinal,
    normalize,
    parse_ordinal,
)

ORDER_NAMES = ("nat", "pow-nat", "multiset-nat", "ord")


@dataclass(frozen=True)
class NamedOrder:
    name: str
    relation: WFRelation
    parse_start: Callable[[str], object]
    describe: Callable[[object], str]
    descent_bound: Callable[[object], Optional[int]]
    sample_starts: tuple


_NUMERAL_LENGTH_CAP = 4300  # CPython's default int() digit limit, on every version


def parse_nat(text: str) -> int:
    """ASCII digits, with whitespace around them; no sign, no underscores."""
    if len(text) > _NUMERAL_LENGTH_CAP:
        raise ValueError(
            f"a numeral of {len(text)} characters is longer than {_NUMERAL_LENGTH_CAP}"
        )
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected a natural number: {text!r}")
    return int(digits)


def parse_nat_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(parse_nat(part) for part in text.split(","))
    except ValueError as error:
        raise ValueError(f"expected comma-separated naturals: {text!r}") from error


def all_multisets(carrier, max_size: int) -> list:
    """Every multiset over ``carrier`` with at most ``max_size`` elements."""
    nat, carrier = nat_less(), tuple(carrier)
    out = []
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(carrier, size):
            out.append(multiset_of(nat, combo))
    return out


_MULTISET_SIZE_CAP = 5
_MULTISET_KEY_CAP = 30  # a bounded universe of 376,992 multisets, about 150 MB


def _bounded_multiset_predecessors(mrel: WFRelation, upper: Multiset):
    # enumeration capped at total size 5 over the keys reachable below the
    # current maximum; complete only within that bound
    max_key = max((key for key, _count in upper.entries), default=0)
    pool = all_multisets(range(max_key + 1), _MULTISET_SIZE_CAP)
    return with_enumerated_predecessors(mrel, pool).predecessors(upper)


def _capped_multiset_count(max_key: int) -> int:
    # multisets of at most the cap's size over max_key + 1 keys
    return math.comb(max_key + 1 + _MULTISET_SIZE_CAP, _MULTISET_SIZE_CAP)


def _bounded_ordinal_predecessors(upper: OrdinalNotation, nested: bool = False):
    # walks must stay well inside the step budget, so the last term is only
    # ever dropped or lowered by one step: every chain stays a few hundred
    # steps long, and every candidate lies below upper
    terms = upper.terms
    if not terms:
        return ()
    head, last = terms[:-1], terms[-1]
    exponent, coefficient = last
    candidates = {OrdinalNotation(head)}
    if coefficient > 1:
        candidates.add(OrdinalNotation(head + ((exponent, coefficient - 1),)))
    if exponent != ZERO_ORD and not nested:
        trimmed = head + ((exponent, coefficient - 1),) if coefficient > 1 else head
        for lower_exponent, _e in _bounded_ordinal_predecessors(exponent, nested=True):
            for repeat in (1, 2, 3):
                candidates.add(normalize(trimmed + ((lower_exponent, repeat),)))
    return tuple((candidate, EQUAL) for candidate in sorted(candidates, reverse=True))


def named_descent_order(name: str) -> NamedOrder:
    nat = nat_less()
    if name == "nat":
        return NamedOrder(
            name="nat",
            relation=nat,
            parse_start=parse_nat,
            describe=str,
            descent_bound=lambda start: start + 1,
            sample_starts=(9, 17, 30),
        )
    if name == "pow-nat":
        return NamedOrder(
            name="pow-nat",
            relation=pow_relation(nat),
            parse_start=lambda text: descending(nat, parse_nat_list(text)),
            describe=lambda dl: ",".join(str(e) for e in dl.elements) or "(empty)",
            descent_bound=lambda dl: pow_nat_rank(dl) + 1,
            sample_starts=tuple(descending(nat, s) for s in ((3, 1, 0), (4, 2), (2, 1, 0))),
        )
    if name == "multiset-nat":
        mrel = multiset_relation(nat)
        bounded = replace(
            mrel,
            carrier="multiset(nat), bounded walk",
            predecessors=lambda upper: _bounded_multiset_predecessors(mrel, upper),
        )

        def parse_multiset(text):
            items = parse_nat_list(text)
            count = _capped_multiset_count(max(items, default=0))
            if count > _capped_multiset_count(_MULTISET_KEY_CAP):
                raise ValueError(
                    f"the bounded walk below a key above {_MULTISET_KEY_CAP} "
                    f"would build {count} multisets"
                )
            return multiset_of(nat, items)

        def bound(start: Multiset):
            max_key = max((key for key, _c in start.entries), default=0)
            return _capped_multiset_count(max_key) + 1

        return NamedOrder(
            name="multiset-nat",
            relation=bounded,
            parse_start=parse_multiset,
            describe=lambda m: ",".join(str(e) for e in multiset_elements(m)) or "(empty)",
            descent_bound=bound,
            sample_starts=tuple(multiset_of(nat, s) for s in ((2, 1), (3,), (2, 2, 0))),
        )
    if name == "ord":
        return NamedOrder(
            name="ord",
            relation=WFRelation(
                carrier="ordinal notations, bounded walk",
                decide=lambda low, up: EQUAL if compare(low, up) is Ordering.LT else None,
                predecessors=_bounded_ordinal_predecessors,
            ),
            parse_start=parse_ordinal,
            describe=format_ordinal,
            descent_bound=lambda _start: None,
            sample_starts=tuple(map(parse_ordinal, ("w*2+1", "w^2", "w^w"))),
        )
    *others, last = ORDER_NAMES
    raise ValueError(f"unknown order {name!r}; pick {', '.join(others)}, or {last}")
