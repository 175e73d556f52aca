"""Float summation that gives the same bits on every Python version.

Since Python 3.12 the builtin ``sum`` adds exact floats with Neumaier
compensation, so one list of floats can sum to different bits under
3.11 and 3.12+. The simulator's scalar solver and its vectorised batch
twin must agree bit for bit, and the batch side mirrors each scalar sum
with sequential NumPy adds; only a plain left fold matches those on
every interpreter. :func:`left_sum` is that fold: for floats and ints
it equals Python 3.11's ``sum`` exactly (an int ``start`` included) and,
like ``sum``, runs its loop in C.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(items: Iterable, start=0):
    """``((start + items[0]) + items[1]) + ...`` with plain ``+``."""
    return reduce(add, items, start)
