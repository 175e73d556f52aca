"""Simulated bytes must not depend on the Python version's ``sum``.

Since Python 3.12 the builtin ``sum`` adds exact floats with Neumaier
compensation; 3.11 adds them left to right. The scalar solver's sums
and the batch solver's sequential NumPy adds agree only under the
latter, so the program sums floats with :func:`repro.numeric.left_sum`.
These tests install a pure-Python model of 3.12's ``sum`` as the
builtin and check that the batch-vs-scalar parity and the fleet byte
pins still hold.
"""

from __future__ import annotations

import builtins
import math

import pytest

from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.numeric import left_sum
from repro.rng import make_rng
from tests.fleet.test_golden_digests import CASES, _digest, _report
from tests.nic.test_batch_run import assert_identical, random_profiling_scenario

_LONG_RANGE = range(-(2**63), 2**63)


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``builtin_sum``, transcribed to Python.

    An int fast path, then a float path that adds exact floats with
    Neumaier's compensation (and machine-size ints without it), then
    plain ``+`` for anything else.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and item in _LONG_RANGE:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture()
def compensated_builtin_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_model_compensates_where_a_left_fold_does_not():
    values = [1e16, 1.0, -1e16]
    assert compensated_sum(values) == 1.0
    assert left_sum(values) == 0.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert left_sum([0.1] * 10) != 1.0
    # Int runs stay exact ints; an int start is kept until a float comes.
    assert compensated_sum([1, 2, True]) == left_sum([1, 2, True]) == 4
    assert type(left_sum([1, 2.5])) is float


def test_left_sum_equals_the_plain_fold():
    rng = make_rng(5)
    for _ in range(200):
        values = [float(v) for v in rng.normal(size=int(rng.integers(0, 12)))]
        expected = 0
        for value in values:
            expected = expected + value
        assert left_sum(values) == expected


def test_batch_matches_scalar_under_compensated_sum(compensated_builtin_sum):
    nic = SmartNic(bluefield2_spec(), seed=123)
    rng = make_rng(7)
    scenarios = [random_profiling_scenario(nic, rng, i) for i in range(6)]
    batch = nic.run_batch(scenarios)
    for i, scenario in enumerate(scenarios):
        assert_identical(nic.run(scenario), batch[i], f"scenario {i}")


@pytest.mark.parametrize("name", ["greedy", "yala"])
def test_golden_digest_under_compensated_sum(compensated_builtin_sum, name):
    overrides, digest, _ = CASES[name]
    assert _digest(_report(overrides)) == digest
