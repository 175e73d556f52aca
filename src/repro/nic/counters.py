"""Synthesised hardware performance counters (paper Table 11).

The paper's models take these 7 counters, sampled for each workload at
runtime, as input features:

==========  =====================================
IPC         Instructions per cycle.
IRT         Instructions retired (per second, reported in M/s).
L2CRD       L2/LLC data cache read access rate (Mref/s).
L2CWR       L2/LLC data cache write access rate (Mref/s).
MEMRD       Data memory (DRAM) read access rate (Mref/s).
MEMWR       Data memory (DRAM) write access rate (Mref/s).
WSS         Working set size (bytes).
==========  =====================================

The simulator fills them from converged run state; SLOMO/Yala never see
simulator internals, only these counters — the same observability the
real BlueField-2 offers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np

from repro.numeric import left_sum

#: Canonical feature ordering used by every model in the library.
COUNTER_NAMES: tuple[str, ...] = (
    "ipc",
    "irt",
    "l2crd",
    "l2cwr",
    "memrd",
    "memwr",
    "wss",
)

#: ``counter_values(c)`` is the tuple of ``c``'s counters in
#: :data:`COUNTER_NAMES` order.
counter_values = operator.attrgetter(*COUNTER_NAMES)


@dataclass(frozen=True)
class PerfCounters:
    """One workload's counter sample (rates in M/s, WSS in bytes)."""

    ipc: float = 0.0
    irt: float = 0.0
    l2crd: float = 0.0
    l2cwr: float = 0.0
    memrd: float = 0.0
    memwr: float = 0.0
    wss: float = 0.0

    def as_vector(self) -> np.ndarray:
        """Counters as a feature vector in :data:`COUNTER_NAMES` order."""
        return np.array([getattr(self, name) for name in COUNTER_NAMES])

    @property
    def cache_access_rate(self) -> float:
        """The paper's CAR: L2 read + write access rate (Mref/s)."""
        return self.l2crd + self.l2cwr

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        """Element-wise sum; used to aggregate competitor pressure."""
        if not isinstance(other, PerfCounters):
            return NotImplemented
        return PerfCounters(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    @staticmethod
    def zero() -> "PerfCounters":
        """The additive identity (no contention)."""
        return PerfCounters()

    @staticmethod
    def aggregate(samples: list["PerfCounters"]) -> "PerfCounters":
        """Sum a list of counter samples (competitor aggregation).

        Each field is a left fold from ``0.0``: the additions, in the
        same order, that chaining ``+`` over the samples performs.
        """
        return PerfCounters(
            *(
                left_sum(column, 0.0)
                for column in zip(*map(counter_values, samples))
            )
        )
