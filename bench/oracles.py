"""Independent oracles for checking benchmark results.

Nothing here imports ``wellfounded``: every expected value is computed
from plain Python data with Python's own comparisons, so a fault in the
library cannot also hide in its check.

Ordinal notations below epsilon-0 are represented here as nested tuples:
``((exponent, coefficient), ...)`` with exponents strictly decreasing and
``()`` for zero.  Python compares such tuples lexicographically, comparing
exponents before coefficients and ranking a proper prefix lower, which is
exactly the order on Cantor normal forms.
"""

from __future__ import annotations

import random
from collections import Counter


def fib(n: int) -> int:
    """Fibonacci by iteration."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ackermann(m: int, n: int) -> int:
    """Ackermann's function from its closed forms for ``m <= 3``."""
    closed = {
        0: lambda k: k + 1,
        1: lambda k: k + 2,
        2: lambda k: 2 * k + 3,
        3: lambda k: 2 ** (k + 3) - 3,
    }
    if m not in closed:
        raise ValueError("closed forms cover m <= 3 only")
    return closed[m](n)


def census(pool, below, top) -> int:
    """Count the strictly descending chains from ``top`` through ``pool``.

    ``census(x) = 1 + sum(census(y) for y in pool if below(y, x))``, with
    each pool element's count computed once.
    """
    pool = list(pool)
    counts: dict = {}

    def count(x_index):
        if x_index not in counts:
            x = pool[x_index]
            counts[x_index] = 1 + sum(count(j) for j, y in enumerate(pool) if below(y, x))
        return counts[x_index]

    return 1 + sum(count(j) for j, y in enumerate(pool) if below(y, top))


def binary_rank(elements) -> int:
    """Sum of ``2**x`` over a strictly descending list of naturals."""
    return sum(1 << x for x in elements)


def multiset_key(items) -> tuple:
    """Descending-sorted elements; on a total carrier the multiset order is
    the lexicographic order of these tuples."""
    return tuple(sorted(items, reverse=True))


def multiset_less(lower, upper) -> bool:
    return multiset_key(lower) < multiset_key(upper)


def dershowitz_manna_less(lower, upper) -> bool:
    """The Dershowitz-Manna characterization of the multiset order.

    ``M < N`` iff ``M != N`` and every element that ``M`` has more often
    than ``N`` is dominated by some larger element that ``N`` has more
    often than ``M``.
    """
    m, n = Counter(lower), Counter(upper)
    if m == n:
        return False
    return all(
        any(y > x and n[y] > m[y] for y in n)
        for x in m
        if m[x] > n[x]
    )


def multiset_entries(items) -> tuple:
    """``(element, count)`` pairs, elements descending."""
    counts = Counter(items)
    return tuple((key, counts[key]) for key in sorted(counts, reverse=True))


# ---------------------------------------------------------------------------
# Ordinal notations.

ZERO = ()


def ordinal_from_nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


OMEGA = ((ordinal_from_nat(1), 1),)


def shaped_ordinal(rng: random.Random) -> tuple:
    """A seeded notation of fixed shape, ``w^(w^k*c + d)*e`` three times
    over plus a finite term, so every draw costs the same to process."""
    exponents = set()
    while len(exponents) < 3:
        k, c, d = rng.randrange(1, 4), rng.randrange(1, 5), rng.randrange(1, 5)
        exponents.add(((ordinal_from_nat(k), c), (ZERO, d)))
    terms = [(e, rng.randrange(1, 5)) for e in sorted(exponents, reverse=True)]
    return tuple(terms) + ((ZERO, rng.randrange(1, 5)),)


def normalize(terms) -> tuple:
    """Ordinal sum of raw ``(exponent, coefficient)`` terms, left to right:
    a term absorbs every earlier term of lower exponent."""
    result: list = []
    for exponent, coefficient in terms:
        if coefficient == 0:
            continue
        while result and result[-1][0] < exponent:
            result.pop()
        if result and result[-1][0] == exponent:
            result[-1] = (exponent, result[-1][1] + coefficient)
        else:
            result.append((exponent, coefficient))
    return tuple(result)


def format_ordinal(o: tuple) -> str:
    """Canonical text: ``w^e*c`` terms joined by `` + ``, unit coefficients
    and exponent one omitted, finite exponents and terms as numbers."""
    if not o:
        return "0"
    parts = []
    for exponent, coefficient in o:
        if exponent == ZERO:
            parts.append(str(coefficient))
            continue
        if exponent == ordinal_from_nat(1):
            text = "w"
        elif len(exponent) == 1 and exponent[0][0] == ZERO:
            text = f"w^{exponent[0][1]}"
        elif exponent == OMEGA:
            text = "w^w"
        else:
            text = f"w^({format_ordinal(exponent)})"
        if coefficient != 1:
            text += f"*{coefficient}"
        parts.append(text)
    return " + ".join(parts)


def parse_ordinal(text: str) -> tuple:
    """Read ``ordinal := term ('+' term)*``, ``term := 'w' ('^' atom)?
    ('*' nat)? | nat``, ``atom := nat | 'w' | '(' ordinal ')'``."""
    source = text.replace(" ", "")
    pos = 0

    def nat() -> int:
        nonlocal pos
        start = pos
        while pos < len(source) and source[pos].isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"number expected at {start} in {text!r}")
        return int(source[start:pos])

    def atom() -> tuple:
        nonlocal pos
        if source.startswith("(", pos):
            pos += 1
            inner = ordinal()
            if not source.startswith(")", pos):
                raise ValueError(f"')' expected at {pos} in {text!r}")
            pos += 1
            return inner
        if source.startswith("w", pos):
            pos += 1
            return OMEGA
        return ordinal_from_nat(nat())

    def term():
        nonlocal pos
        if source.startswith("w", pos):
            pos += 1
            exponent = ordinal_from_nat(1)
            if source.startswith("^", pos):
                pos += 1
                exponent = atom()
            coefficient = 1
            if source.startswith("*", pos):
                pos += 1
                coefficient = nat()
            return exponent, coefficient
        return ZERO, nat()

    def ordinal() -> tuple:
        nonlocal pos
        terms = [term()]
        while source.startswith("+", pos):
            pos += 1
            terms.append(term())
        return normalize(terms)

    parsed = ordinal()
    if pos != len(source):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return parsed


def ordinal_verdict(a: tuple, b: tuple) -> str:
    """``LT``, ``EQ`` or ``GT``, as the ``wf ord compare`` command prints."""
    return "LT" if a < b else "GT" if a > b else "EQ"
