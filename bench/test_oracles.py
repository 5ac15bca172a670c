"""Tests of the benchmark's independent oracles against brute force.

Run with ``python3 -m pytest bench/test_oracles.py`` or
``python3 bench/test_oracles.py``.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def test_fib_matches_the_recurrence():
    def naive(n):
        return n if n < 2 else naive(n - 1) + naive(n - 2)

    assert [oracles.fib(n) for n in range(20)] == [naive(n) for n in range(20)]


def test_ackermann_closed_forms_match_the_definition():
    def direct(m, n):
        if m == 0:
            return n + 1
        if n == 0:
            return direct(m - 1, 1)
        return direct(m - 1, direct(m, n - 1))

    for m in range(4):
        for n in range(6):
            assert oracles.ackermann(m, n) == direct(m, n)


def test_census_counts_every_descending_chain():
    rng = random.Random(3)
    for _ in range(20):
        pool = rng.sample(range(30), 7)
        edges = {(a, b) for a in pool for b in pool if a < b and rng.random() < 0.5}
        below = lambda y, x: (y, x) in edges

        def chains(x):
            return 1 + sum(chains(y) for y in pool if below(y, x))

        top = max(pool)
        assert oracles.census(pool, below, top) == chains(top)
    assert oracles.census(range(11), lambda y, x: y < x, 10) == 2 ** 10


def test_binary_rank_orders_descending_lists_lexicographically():
    lists = [c for size in range(6) for c in itertools.combinations(range(4, -1, -1), size)]
    assert len({oracles.binary_rank(x) for x in lists}) == len(lists)
    for a in lists:
        for b in lists:
            assert (oracles.binary_rank(a) < oracles.binary_rank(b)) == (a < b)


def test_sorted_tuple_order_is_the_dershowitz_manna_order():
    bags = [c for size in range(4) for c in itertools.combinations_with_replacement(range(4), size)]
    for a in bags:
        for b in bags:
            assert oracles.multiset_less(a, b) == oracles.dershowitz_manna_less(a, b), (a, b)


def test_multiset_entries_count_descending():
    assert oracles.multiset_entries([1, 3, 1, 0]) == ((3, 1), (1, 2), (0, 1))


def random_ordinal(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return oracles.ordinal_from_nat(rng.randrange(0, 5))
    exponents = {random_ordinal(rng, depth - 1) for _ in range(rng.randrange(1, 4))}
    return tuple((e, rng.randrange(1, 5)) for e in sorted(exponents, reverse=True))


def test_ordinal_printer_and_parser_agree():
    rng = random.Random(5)
    for _ in range(300):
        for o in (random_ordinal(rng, 3), oracles.shaped_ordinal(rng)):
            assert oracles.parse_ordinal(oracles.format_ordinal(o)) == o
    assert oracles.format_ordinal(oracles.parse_ordinal("w^(w+1)*2 + w^w + w^2*3 + w + 5")) == (
        "w^(w + 1)*2 + w^w + w^2*3 + w + 5"
    )


def test_ordinal_normalization_absorbs_lower_terms():
    cases = {"1 + w": "w", "w + w": "w*2", "w^2 + w^3": "w^3", "w*2 + 3 + w": "w*3", "0": "0"}
    for text, canonical in cases.items():
        assert oracles.format_ordinal(oracles.parse_ordinal(text)) == canonical


def test_ordinal_order_matches_coefficient_vectors():
    # below w^w an ordinal is a vector of coefficients of w^k, compared from
    # the highest power down
    rng = random.Random(7)

    def vector(o):
        coefficients = [0] * 6
        for exponent, count in o:
            power = exponent[0][1] if exponent else 0
            coefficients[5 - power] = count
        return coefficients

    def polynomial():
        powers = sorted(rng.sample(range(6), rng.randrange(0, 4)), reverse=True)
        return tuple((oracles.ordinal_from_nat(k), rng.randrange(1, 4)) for k in powers)

    for _ in range(500):
        a, b = polynomial(), polynomial()
        assert (a < b) == (vector(a) < vector(b))
        verdict = oracles.ordinal_verdict(a, b)
        assert verdict == ("LT" if vector(a) < vector(b) else "GT" if vector(a) > vector(b) else "EQ")


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
