"""Acceptance suite: every entry of the property battery at its full size.

``wf check`` runs the same entries of ``wellfounded.checks.PROPERTIES`` at
their small sizes; here each runs at the sizes and seed of the acceptance
criteria it reproduces.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS/FAIL line per entry beside the pytest verdicts.  Criteria
3, 7, 10 and 11, which share an entry with another criterion, also keep a
test of their own.
"""

import time

import pytest

from wellfounded import validated_evidence
from wellfounded.checks import PROPERTIES, run_all


@pytest.mark.parametrize(
    "name, check, full",
    [(name, check, full) for name, check, _small, full in PROPERTIES],
    ids=[name for name, *_entry in PROPERTIES],
)
def test_property(name, check, full):
    started = time.perf_counter()
    problem = check(**full)
    elapsed = time.perf_counter() - started
    ok = problem is None and elapsed < 60
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} ({problem or 'no failure'}, {elapsed:.1f}s)")
    assert ok, f"{name}: {problem or f'took {elapsed:.0f}s'}"


@pytest.mark.parametrize("seed", range(3))
def test_the_small_battery_passes_under_validation(seed):
    # every recursive call the battery makes re-checks its evidence
    with validated_evidence():
        results = run_all(seed)
    assert [(result.name, result.detail) for result in results if not result.ok] == []


# ``programs`` and ``tree-characterization`` each reproduce two criteria.
# These run one criterion each: the entry's check at its ``full`` sizes with
# the other criterion's samples set to zero.  No zeroed sample draws from the
# RNG before a kept one, so the kept samples are those of the whole entry.
FULL = {name: (check, full) for name, check, _small, full in PROPERTIES}


def run_part(name, **zeroed):
    check, full = FULL[name]
    problem = check(**{**full, **zeroed})
    assert problem is None, f"{name}: {problem}"


def test_criterion_03_quicksort():
    run_part("programs", fibs=0, ackermanns=(0, 0))


def test_criterion_07_characterization():
    run_part("tree-characterization", numerals=0)


def test_criterion_10_ackermann_and_fibonacci():
    run_part("programs", sorts=0, unfoldings=0)


def test_criterion_11_numerals_as_trees():
    run_part("tree-characterization", nat=0, grid=0, dag=0)
