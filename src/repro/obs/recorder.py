"""Recorder protocol: the fleet's telemetry collection surface.

The simulator is instrumented against one tiny interface —
:class:`Recorder` — whose default implementation
(:class:`NullRecorder`) does nothing, allocates nothing, and costs one
attribute load plus a truth test per instrumentation site (the hot
paths guard on ``recorder.enabled``).  Attaching a
:class:`TraceRecorder` turns the same sites into a queryable run
record without perturbing a single simulated byte.

Telemetry is split into two worlds that must never mix:

**Deterministic records** (``TraceRecorder.records``) are keyed by
*simulated* time and derived exclusively from simulation state.  They
are byte-reproducible: the same config yields the same serialized
stream at any ``--runtime``/``--jobs`` count.  Each record carries a
channel:

- ``"sim"`` — events both engines emit identically under
  :meth:`EventConfig.epoch_equivalent` (scoring passes, per-epoch
  metric rows, fault transitions).  Cross-*engine* parity compares
  this channel only.
- ``"engine"`` — events specific to the engine's mechanics (phase
  spans, event-queue pops, migration markers).  Still deterministic
  across runtimes and worker counts, but an epoch-grid run and a
  continuous-time run legitimately differ here.

**Non-deterministic stores** hold everything wall-clock- or
execution-dependent: ``timings`` (wall-clock spans, the source of the
Chrome trace export), ``exec_counters`` / ``exec_gauges`` /
``exec_histograms`` (pool rebuilds, cache hit rates, signature-group
shapes — anything that varies with the execution strategy).  These are
excluded from every parity check by construction.

Deterministic metrics (``counter`` / ``gauge`` / ``histogram``) exist
too — e.g. the solver's iterations-to-converge histogram, recorded
parent-side from per-scenario iteration counts — and land in the
metrics snapshot alongside the exec registry.

A module-level *active recorder* (:func:`active_recorder` /
:func:`use_recorder`) lets deep layers that never see a recorder
argument — the batch solver in :mod:`repro.nic.batch` — report into
whatever recorder the running engine installed.  Worker processes keep
the null recorder, so anything routed this way is exec-channel by
nature.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Iterator

#: channels a deterministic record may carry.
DETERMINISTIC_CHANNELS = ("sim", "engine")


class _NullSpan:
    """Shared no-op span: enter/exit/add cost nothing and record nothing."""

    __slots__ = ()

    def add(self, **fields) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """No-op telemetry sink; the base of the recorder protocol.

    Every method is a deliberate no-op so instrumentation sites can
    call unconditionally; sites inside per-scenario loops should guard
    on :attr:`enabled` to skip argument construction entirely.
    """

    #: hot paths check this before building event payloads.
    enabled = False

    # -- deterministic records -----------------------------------------
    def event(self, t: float, name: str, chan: str = "engine", **fields) -> None:
        """Record a typed event at simulated time ``t``."""

    def span(self, t: float, name: str, chan: str = "engine",
             track=None, **fields):
        """Open a span at simulated time ``t``.

        On exit the span appends one deterministic record (``name`` +
        the fields given here and via ``add``) and one wall-clock
        timing entry.  Use as a context manager.
        """
        return _NULL_SPAN

    # -- deterministic metrics registry --------------------------------
    def counter(self, name: str, value: float = 1) -> None:
        """Increment a deterministic counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set a deterministic gauge."""

    def histogram(self, name: str, value: float) -> None:
        """Add an observation to a deterministic histogram."""

    # -- non-deterministic (execution) stores --------------------------
    def wall_span(self, name: str, track=None, **args):
        """Open a wall-clock-only span (timing channel, no record)."""
        return _NULL_SPAN

    def timing(self, name: str, start: float, duration: float,
               track=None, **args) -> None:
        """Record a wall-clock span directly (seconds, recorder-relative)."""

    def exec_counter(self, name: str, value: float = 1) -> None:
        """Increment an execution-dependent counter."""

    def exec_gauge(self, name: str, value: float) -> None:
        """Set an execution-dependent gauge."""

    def exec_histogram(self, name: str, value: float) -> None:
        """Add an observation to an execution-dependent histogram."""


class NullRecorder(Recorder):
    """The default recorder: records nothing, with provably negligible cost.

    ``benchmarks/test_perf_obs_overhead.py`` pins the overhead of an
    attached ``NullRecorder`` at ≤1.05x a recorder-free run.
    """


#: process-wide default instance; instrumentation sites use this when
#: no recorder was attached, so ``self._obs`` is never ``None``.
NULL_RECORDER = NullRecorder()


class _TraceSpan:
    """Deterministic span: record at exit + wall timing (see ``span``)."""

    __slots__ = ("_rec", "_t", "_name", "_chan", "_track", "_fields", "_wall0")

    def __init__(self, rec: "TraceRecorder", t: float, name: str,
                 chan: str, track, fields: dict) -> None:
        self._rec = rec
        self._t = t
        self._name = name
        self._chan = chan
        self._track = track
        self._fields = fields
        self._wall0 = 0.0

    def add(self, **fields) -> "_TraceSpan":
        self._fields.update(fields)
        return self

    def __enter__(self) -> "_TraceSpan":
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._wall0
        rec = self._rec
        rec.event(self._t, self._name, chan=self._chan, **self._fields)
        rec.timing(self._name, self._wall0 - rec._wall_epoch, duration,
                   track=self._track, sim_time=self._t, **self._fields)
        return False


class _WallSpan:
    """Timing-only span: no deterministic record is emitted."""

    __slots__ = ("_rec", "_name", "_track", "_args", "_wall0")

    def __init__(self, rec: "TraceRecorder", name: str, track, args: dict) -> None:
        self._rec = rec
        self._name = name
        self._track = track
        self._args = args
        self._wall0 = 0.0

    def add(self, **args) -> "_WallSpan":
        self._args.update(args)
        return self

    def __enter__(self) -> "_WallSpan":
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        rec = self._rec
        rec.timing(self._name, self._wall0 - rec._wall_epoch,
                   time.perf_counter() - self._wall0,
                   track=self._track, **self._args)
        return False


def _hist_update(store: dict, name: str, value: float) -> None:
    hist = store.get(name)
    if hist is None:
        hist = store[name] = {
            "count": 0, "sum": 0.0,
            "min": math.inf, "max": -math.inf, "buckets": {},
        }
    value = float(value)
    hist["count"] += 1
    hist["sum"] += value
    if value < hist["min"]:
        hist["min"] = value
    if value > hist["max"]:
        hist["max"] = value
    bucket = str(int(value))
    hist["buckets"][bucket] = hist["buckets"].get(bucket, 0) + 1


class TraceRecorder(Recorder):
    """In-memory recorder backing the JSONL/Chrome/metrics exporters.

    Collects deterministic records and metrics, plus the
    execution-channel stores documented in the module docstring.
    Records carry no sequence numbers: their serialized form depends
    only on simulation state, which is what makes checkpoint/resume
    trace concatenation byte-equal an uninterrupted run.
    """

    enabled = True

    def __init__(self) -> None:
        #: deterministic records, in emission order: {chan, t, name, ...}.
        self.records: list[dict] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}
        self.exec_counters: dict[str, float] = {}
        self.exec_gauges: dict[str, float] = {}
        self.exec_histograms: dict[str, dict] = {}
        #: wall-clock spans: {name, start, dur, track, args}.
        self.timings: list[dict] = []
        self._wall_epoch = time.perf_counter()

    # -- deterministic records -----------------------------------------
    def event(self, t: float, name: str, chan: str = "engine", **fields) -> None:
        if chan not in DETERMINISTIC_CHANNELS:
            raise ValueError(
                f"unknown channel {chan!r}; known: {DETERMINISTIC_CHANNELS}"
            )
        record = {"chan": chan, "t": float(t), "name": name}
        record.update(fields)
        self.records.append(record)

    def span(self, t: float, name: str, chan: str = "engine",
             track=None, **fields) -> _TraceSpan:
        if chan not in DETERMINISTIC_CHANNELS:
            raise ValueError(
                f"unknown channel {chan!r}; known: {DETERMINISTIC_CHANNELS}"
            )
        return _TraceSpan(self, float(t), name, chan, track, dict(fields))

    # -- deterministic metrics registry --------------------------------
    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str, value: float) -> None:
        _hist_update(self.histograms, name, value)

    # -- non-deterministic (execution) stores --------------------------
    def wall_span(self, name: str, track=None, **args) -> _WallSpan:
        return _WallSpan(self, name, track, dict(args))

    def timing(self, name: str, start: float, duration: float,
               track=None, **args) -> None:
        self.timings.append({
            "name": name, "start": float(start), "dur": float(duration),
            "track": track, "args": args,
        })

    def exec_counter(self, name: str, value: float = 1) -> None:
        self.exec_counters[name] = self.exec_counters.get(name, 0) + value

    def exec_gauge(self, name: str, value: float) -> None:
        self.exec_gauges[name] = value

    def exec_histogram(self, name: str, value: float) -> None:
        _hist_update(self.exec_histograms, name, value)

    # -- queries --------------------------------------------------------
    def deterministic_records(self, chan: str | None = None) -> list[dict]:
        """Deterministic records, optionally filtered to one channel."""
        if chan is None:
            return list(self.records)
        if chan not in DETERMINISTIC_CHANNELS:
            raise ValueError(
                f"unknown channel {chan!r}; known: {DETERMINISTIC_CHANNELS}"
            )
        return [r for r in self.records if r["chan"] == chan]

    def to_jsonl(self, chan: str | None = None) -> str:
        """Serialize the deterministic record stream, one JSON object
        per line, ``sort_keys=True`` — the byte-parity surface."""
        records = self.deterministic_records(chan)
        if not records:
            return ""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in records
        ) + "\n"

    def metrics_payload(self) -> dict:
        """JSON-ready snapshot of both metric registries.

        ``deterministic`` reproduces byte-identically across runtimes;
        ``exec`` is execution-dependent and excluded from parity.
        """
        return {
            "deterministic": {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {k: dict(v) for k, v in self.histograms.items()},
            },
            "exec": {
                "counters": dict(self.exec_counters),
                "gauges": dict(self.exec_gauges),
                "histograms": {
                    k: dict(v) for k, v in self.exec_histograms.items()
                },
            },
            "timing": {"spans": len(self.timings)},
        }


# ---------------------------------------------------------------------
# Active recorder: how layers without a recorder argument report in.
# ---------------------------------------------------------------------

_ACTIVE: Recorder = NULL_RECORDER


def active_recorder() -> Recorder:
    """The recorder installed by the running engine (never ``None``)."""
    return _ACTIVE


def set_active_recorder(recorder: Recorder | None) -> Recorder:
    """Install ``recorder`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Recorder | None) -> Iterator[Recorder]:
    """Scope the active recorder to a ``with`` block (engine runs use
    this so nested/sequential runs restore each other cleanly)."""
    previous = set_active_recorder(recorder)
    try:
        yield _ACTIVE
    finally:
        set_active_recorder(previous)


__all__ = [
    "DETERMINISTIC_CHANNELS",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "TraceRecorder",
    "active_recorder",
    "set_active_recorder",
    "use_recorder",
]
