"""Execution runtimes: where the fleet's scoring work actually runs.

The fleet engine (:class:`~repro.fleet.engine.EventEngine`, and
:class:`~repro.fleet.engine.FleetEngine`, its epoch preset) funnels its
per-observation ground-truth solving through one :class:`Runtime`
interface — the SimBricks local/parallel/distributed-runtime shape: the
engine describes *what* must be solved (per-pod mix scenarios, solo
baselines) and the runtime decides *where*:

- :class:`SerialRuntime` — everything in-process, the historical code
  path and the byte-exactness **oracle arm** (like ``score_mode="loop"``
  before it);
- :class:`ProcessRuntime` — pods are solved in worker processes
  (``jobs`` of them), solo-baseline batches are split into contiguous
  chunks across the pool.

**Why parallelism cannot change a single byte.** Every solved value is
a pure function of ``(simulator seed, scenario)``: the NIC's
measurement noise is derived per scenario (a seed hashed from the
workload reprs — ``SmartNic._noise_factors``), never drawn from a
shared stream, and ``run_batch`` is bit-identical to per-scenario
``run``.
Workers receive pickled copies of the engine's own simulators, so a
scenario solves to the identical float no matter which worker (or the
parent) executes it, and no matter how scenarios are grouped into
batches. The merge is deterministic because results are re-assembled in
task order and every cache insert happens in the parent in a fixed
iteration order. Net contract, enforced by tier-1: **same seed ⇒
byte-identical reports at any runtime and any worker count.**

Naming: worker-process counts are called ``jobs`` everywhere in this
repo (the experiment runner's ``--jobs``, ``YalaSystem.train(jobs=)``,
:class:`ProcessRuntime`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as PoolTimeout
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.nf.catalog import shared_nf
from repro.obs import NULL_RECORDER, Recorder
from repro.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nic.nic import SmartNic, WorkloadResult
    from repro.profiling.collector import ProfilingCollector


@dataclass(frozen=True)
class PodScoreTask:
    """One pod's uncached multi-resident mixes, ready to solve.

    ``mixes`` holds ``(target, mix_keys)`` groups — one per hardware
    target that has work in this pod — where each mix key is the
    ``(nf_name, traffic)`` tuple of one NIC's residents in placement
    order. The task ships *keys*, not scenario objects: workers rebuild
    the NF demands locally (cheap, and far less pickling than shipping
    compiled scenarios).
    """

    pod_id: int
    mixes: tuple[tuple[str, tuple[tuple, ...]], ...]
    #: Warm-start payload, aligned with ``mixes``: one tuple per
    #: ``(target, mix_keys)`` group holding, per mix key, either
    #: ``None`` (cold) or the last converged per-resident throughput
    #: tuple this mix's fixed point should start from. Empty (the
    #: default) when warm-starting is off, so cold tasks pickle and
    #: compare exactly as before. The payload travels *in the task* —
    #: never in worker state — so any worker (or the parent, or a
    #: crash-recovery re-execution) solves from the identical iterate.
    warm: tuple[tuple[Optional[tuple[float, ...]], ...], ...] = ()

    @property
    def scenario_count(self) -> int:
        return sum(len(keys) for _, keys in self.mixes)


def solve_solos(
    nic_sim: "SmartNic", pairs: Sequence[tuple], score_mode: str
) -> list["WorkloadResult"]:
    """Solve the solo baseline of every ``(nf_name, traffic)`` pair.

    Pure in ``(nic_sim seed, pair)`` and bit-identical to
    :meth:`SmartNic.run_solo` on each pair (``run_solo`` is ``run`` of a
    one-workload scenario, and ``run_batch`` reproduces ``run``
    exactly) — so a solo computed in a worker equals one computed by the
    collector in the parent. ``batch`` solves all pairs in one
    ``run_batch`` call; ``loop`` is the per-scenario oracle.
    """
    nfs = [shared_nf(name) for name, _ in pairs]
    scenarios = [[nf.demand(traffic)] for nf, (_, traffic) in zip(nfs, pairs)]
    if score_mode == "batch":
        solved = nic_sim.run_batch(scenarios)
    else:
        solved = [nic_sim.run(scenario) for scenario in scenarios]
    return [result[nf.name] for nf, result in zip(nfs, solved)]


def solve_pod(
    nics_by_target: dict, task: PodScoreTask, score_mode: str
) -> list[tuple[list[list[float]], list[int]]]:
    """Solve one pod's mixes; returns throughputs plus iteration counts.

    Output is aligned with ``task.mixes``: one ``(rows, iterations)``
    pair per ``(target, mix_keys)`` group, where ``rows`` holds one row
    per mix with one float per resident (in mix order) and
    ``iterations`` the per-mix iterations-to-converge of the fixed
    point (identical in batch and loop modes — the iterate path is
    bit-identical, so convergence lands on the same step; telemetry
    relies on this). Rebuilds each mix's demands exactly as the
    engines' scoring core always has — ``shared_nf(name).demand(traffic,
    instance=f"{name}#{j}")`` — so the solved scenarios are identical
    objects to the serial path's.
    """
    out: list[tuple[list[list[float]], list[int]]] = []
    for g, (target, mix_keys) in enumerate(task.mixes):
        nic_sim = nics_by_target[target]
        scenarios = [
            [
                shared_nf(name).demand(traffic, instance=f"{name}#{j}")
                for j, (name, traffic) in enumerate(key)
            ]
            for key in mix_keys
        ]
        warms = None
        if task.warm:
            group_warm = task.warm[g]
            if any(vec is not None for vec in group_warm):
                warms = [
                    None
                    if vec is None
                    else {
                        f"{name}#{j}": value
                        for j, ((name, _), value) in enumerate(zip(key, vec))
                    }
                    for key, vec in zip(mix_keys, group_warm)
                ]
        if score_mode == "batch":
            solved = nic_sim.run_batch(scenarios, warm_starts=warms)
        elif warms is None:
            solved = [nic_sim.run(scenario) for scenario in scenarios]
        else:
            solved = [
                nic_sim.run(scenario, initial=warm)
                for scenario, warm in zip(scenarios, warms)
            ]
        out.append((
            [
                [
                    result.throughput_of(f"{name}#{j}")
                    for j, (name, _) in enumerate(key)
                ]
                for key, result in zip(mix_keys, solved)
            ],
            [int(result.iterations) for result in solved],
        ))
    return out


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
#: The worker's pickled copies of the engine's simulators, installed by
#: the pool initializer. Values are pure functions of (seed, scenario),
#: so a copy answers identically to the parent's original.
_WORKER_NICS: Optional[dict] = None


def _init_worker(nics_by_target: dict) -> None:
    global _WORKER_NICS
    _WORKER_NICS = nics_by_target


def _worker_solos(
    target: str, pairs: tuple, score_mode: str
) -> list["WorkloadResult"]:
    return solve_solos(_WORKER_NICS[target], pairs, score_mode)


def _worker_pod(task: PodScoreTask, score_mode: str) -> list:
    return solve_pod(_WORKER_NICS, task, score_mode)


# ----------------------------------------------------------------------
# Runtimes
# ----------------------------------------------------------------------
class Runtime:
    """Where the engines' scoring work executes.

    An engine :meth:`bind`\\ s its hardware targets' simulators once per
    run, then issues two kinds of work — both byte-deterministic at any
    implementation:

    - :meth:`warm_solos` — measure the uncached solo baselines of a
      ``(nf_name, traffic)`` pair list into a target's collector cache;
    - :meth:`score_pods` — solve a list of per-pod mix tasks and return
      their per-resident throughputs in task order.
    """

    name = "base"
    #: Worker-process count (1 for in-process runtimes).
    jobs = 1
    #: Attached telemetry recorder (never ``None``; see :meth:`observe`).
    _obs: Recorder = NULL_RECORDER

    def observe(self, recorder: Optional[Recorder]) -> None:
        """Attach a telemetry recorder.

        Runtimes report only into the *non-deterministic* channels —
        wall-clock timings (per-pod solve spans, the Chrome trace's
        pod tracks) and exec counters (dispatches, retries, pool
        rebuilds) — because where work ran must never leak into
        deterministic output. Engines call this once per run.
        """
        self._obs = recorder if recorder is not None else NULL_RECORDER

    def bind(self, nics_by_target: dict) -> None:
        """Attach the simulators scoring will run against (idempotent;
        rebinding different simulators re-provisions workers)."""
        raise NotImplementedError

    def warm_solos(
        self,
        collector: "ProfilingCollector",
        target: str,
        pairs: Sequence[tuple],
        score_mode: str,
    ) -> None:
        raise NotImplementedError

    def score_pods(
        self, tasks: Sequence[PodScoreTask], score_mode: str
    ) -> list[list[tuple[list[list[float]], list[int]]]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held execution resources (idempotent)."""

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialRuntime(Runtime):
    """Everything in the engine's own process — the oracle arm.

    ``warm_solos`` is exactly the historical warm phase
    (:meth:`ProfilingCollector.solo_many` in batch mode, per-pair
    :meth:`ProfilingCollector.solo` in loop mode); ``score_pods`` runs
    the shared :func:`solve_pod` helper pod by pod.
    """

    name = "serial"
    jobs = 1

    def __init__(self) -> None:
        self._nics: dict = {}

    def bind(self, nics_by_target: dict) -> None:
        self._nics = dict(nics_by_target)

    def warm_solos(self, collector, target, pairs, score_mode) -> None:
        if score_mode == "batch":
            collector.solo_many(
                [(shared_nf(name), traffic) for name, traffic in pairs]
            )
        else:
            for name, traffic in pairs:
                collector.solo(shared_nf(name), traffic)

    def score_pods(self, tasks, score_mode):
        obs = self._obs
        if not obs.enabled:
            return [solve_pod(self._nics, task, score_mode) for task in tasks]
        # One wall span per pod: these become the per-pod tracks of the
        # Chrome trace export (timing channel only — never a record).
        out = []
        for task in tasks:
            with obs.wall_span(
                "runtime.solve_pod", track=task.pod_id,
                pod=task.pod_id, scenarios=task.scenario_count,
            ):
                out.append(solve_pod(self._nics, task, score_mode))
        return out


class ProcessRuntime(Runtime):
    """Pods solve in ``jobs`` worker processes — and worker deaths are
    survivable, not fatal.

    The pool is created lazily on the first big-enough batch and
    initialised with pickled copies of the bound simulators; it is
    keyed to those simulator objects, so binding a different model's
    NICs (a fresh engine) transparently rebuilds it. Small work batches
    (fewer than ``min_parallel_items`` scenarios) are solved inline —
    the submit/pickle round-trip costs more than the solve — which
    changes nothing numerically because inline and worker solving are
    the same pure functions, and the threshold depends only on batch
    size, never on timing.

    **Crash recovery.** A worker that is OOM-killed, segfaults, or
    hangs poisons a stock :class:`ProcessPoolExecutor`: every in-flight
    future raises ``BrokenProcessPool`` and the pool is unusable. Here
    each future is collected with a per-task ``task_timeout``; tasks
    that fail with a *pool* failure (broken pool, timeout, cancelled)
    are retried up to ``max_retries`` times against a freshly rebuilt
    pool (with ``retry_backoff * 2**attempt`` seconds of backoff), and
    whatever still fails is re-executed **serially, in task order**, in
    the parent. Because every task is a pure function of ``(seed,
    scenario)``, the recovered results are byte-identical to an
    undisturbed run — worker deaths may cost time, never bytes. Real
    task exceptions (a bug in the solve itself) propagate immediately;
    only infrastructure failures are retried.
    """

    name = "process"

    def __init__(
        self,
        jobs: Optional[int] = None,
        min_parallel_items: int = 24,
        task_timeout: Optional[float] = 300.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if jobs is None:
            jobs = max(1, os.cpu_count() or 1)
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if min_parallel_items < 1:
            raise ConfigurationError("min_parallel_items must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError("task_timeout must be positive or None")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")
        self.jobs = jobs
        self._min_items = min_parallel_items
        self._task_timeout = task_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._nics: dict = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key: Optional[tuple] = None
        self._serial = SerialRuntime()
        #: Pool-failure recoveries performed (observability; tests and
        #: the fault-recovery benchmark assert on it).
        self.recoveries = 0

    # ------------------------------------------------------------------
    def observe(self, recorder: Optional[Recorder]) -> None:
        super().observe(recorder)
        self._serial.observe(recorder)

    def bind(self, nics_by_target: dict) -> None:
        self._nics = dict(nics_by_target)
        self._serial.bind(self._nics)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if not self._nics:
            raise ConfigurationError("ProcessRuntime used before bind()")
        key = tuple(sorted((t, id(nic)) for t, nic in self._nics.items()))
        if self._pool is not None and key == self._pool_key:
            return self._pool
        self.close()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(self._nics,),
        )
        self._pool_key = key
        return self._pool

    def close(self) -> None:
        pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.shutdown()

    def _abort_pool(self) -> None:
        """Tear down a (possibly broken) pool without waiting on it.

        ``shutdown(wait=True)`` on a pool with a hung worker never
        returns, so cancel what can be cancelled, terminate whatever
        worker processes are still alive, and let :meth:`_ensure_pool`
        build a fresh pool on the next attempt.
        """
        pool, self._pool, self._pool_key = self._pool, None, None
        if pool is None:
            return
        worker_map = getattr(pool, "_processes", None)
        processes = list(worker_map.values()) if worker_map else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for proc in processes:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:
                pass

    def _maybe_inject_fault(self, pool: ProcessPoolExecutor) -> None:
        """Test seam, called once per submitted batch; a no-op here.
        :class:`FaultInjectingRuntime` overrides it to kill workers on
        a seeded schedule."""

    def _run_resilient(
        self,
        items: list,
        submit_one: Callable,
        solve_serial: Callable,
    ) -> list:
        """Run ``items`` through the pool, surviving worker failures.

        Results come back aligned with ``items`` regardless of which
        attempt (or the serial fallback) produced each one — the merge
        order, and therefore every downstream byte, is fixed by the
        item order alone.
        """
        obs = self._obs
        results: list = [None] * len(items)
        pending = list(range(len(items)))
        obs.exec_counter("runtime.tasks_dispatched", len(items))
        for attempt in range(self._max_retries + 1):
            if not pending:
                return results
            if attempt > 0:
                obs.exec_counter("runtime.task_retries", len(pending))
            pool = self._ensure_pool()
            try:
                futures = {
                    i: submit_one(pool, items[i]) for i in pending
                }
            except BrokenExecutor:
                self._recover(attempt)
                continue
            self._maybe_inject_fault(pool)
            failed: list[int] = []
            for i in pending:
                try:
                    results[i] = futures[i].result(
                        timeout=self._task_timeout
                    )
                except (
                    BrokenExecutor,
                    CancelledError,
                    PoolTimeout,
                    TimeoutError,
                ):
                    failed.append(i)
            if failed:
                self._recover(attempt)
            pending = failed
        # Last resort: deterministic serial re-execution in the parent,
        # in task order — byte-identical to a worker having solved it.
        if pending:
            obs.exec_counter("runtime.serial_reexecutions", len(pending))
        for i in pending:
            results[i] = solve_serial(items[i])
        return results

    def _recover(self, attempt: int) -> None:
        self.recoveries += 1
        self._obs.exec_counter("runtime.pool_rebuilds")
        self._abort_pool()
        if self._retry_backoff > 0:
            time.sleep(self._retry_backoff * (2.0**attempt))

    # ------------------------------------------------------------------
    def warm_solos(self, collector, target, pairs, score_mode) -> None:
        # Dedupe against the collector cache in request order — the
        # identical key discipline as ProfilingCollector.solo_many.
        uncached: list[tuple] = []
        seen: set[tuple] = set()
        for name, traffic in pairs:
            nf = shared_nf(name)
            key = (nf.name, nf.pattern.value, traffic)
            if key in seen or collector.solo_cached(nf, traffic):
                continue
            seen.add(key)
            uncached.append((name, traffic))
        if not uncached:
            return
        if self.jobs == 1 or len(uncached) < self._min_items:
            self._serial.warm_solos(collector, target, uncached, score_mode)
            return
        chunks = _chunk(uncached, self.jobs)
        solved = self._run_resilient(
            chunks,
            lambda pool, chunk: pool.submit(
                _worker_solos, target, tuple(chunk), score_mode
            ),
            lambda chunk: solve_solos(self._nics[target], chunk, score_mode),
        )
        for chunk, chunk_results in zip(chunks, solved):
            for (name, traffic), result in zip(chunk, chunk_results):
                collector.install_solo(shared_nf(name), traffic, result)

    def score_pods(self, tasks, score_mode):
        total = sum(task.scenario_count for task in tasks)
        if self.jobs == 1 or len(tasks) < 2 or total < self._min_items:
            return self._serial.score_pods(tasks, score_mode)
        with self._obs.wall_span(
            "runtime.score_pods", pods=len(tasks), scenarios=total,
        ):
            return self._run_resilient(
                list(tasks),
                lambda pool, task: pool.submit(_worker_pod, task, score_mode),
                lambda task: solve_pod(self._nics, task, score_mode),
            )


class FaultInjectingRuntime(ProcessRuntime):
    """A :class:`ProcessRuntime` that murders its own workers.

    Verification arm for the crash-recovery contract: after every
    ``kill_every``-th submitted batch it SIGKILLs one pool worker,
    chosen by a seed derived purely from ``(kill_seed, batch index)`` —
    never from pids or timing — so a given configuration always kills
    the same victims at the same points. Tier-1 pins that a fleet run
    under this runtime produces **byte-identical reports** to
    :class:`SerialRuntime`; the perf gate pins that recovery costs
    bounded time. Test/benchmark-only: it is deliberately not
    reachable from :data:`RUNTIME_NAMES` or the CLI.
    """

    name = "fault-injecting"

    def __init__(
        self,
        jobs: Optional[int] = None,
        kill_every: int = 3,
        kill_seed: int = 0,
        max_kills: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(jobs=jobs, **kwargs)
        if kill_every < 1:
            raise ConfigurationError("kill_every must be >= 1")
        if max_kills is not None and max_kills < 0:
            raise ConfigurationError("max_kills must be >= 0")
        self._kill_every = kill_every
        self._kill_seed = kill_seed
        self._max_kills = max_kills
        self._batches = 0
        #: Workers actually killed (tests assert faults really fired).
        self.kills = 0

    def _maybe_inject_fault(self, pool: ProcessPoolExecutor) -> None:
        self._batches += 1
        if self._batches % self._kill_every != 0:
            return
        if self._max_kills is not None and self.kills >= self._max_kills:
            return
        worker_map = getattr(pool, "_processes", None) or {}
        procs = [p for p in worker_map.values() if p.is_alive()]
        if not procs:
            return
        victim = procs[
            derive_seed(self._kill_seed, "kill", self._batches) % len(procs)
        ]
        victim.kill()
        self.kills += 1


def _chunk(items: list, parts: int) -> list[list]:
    """Split ``items`` into up to ``parts`` contiguous, near-equal
    chunks (deterministic: depends only on the list and the count)."""
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


#: Runtime names the CLI and :class:`~repro.fleet.config.FleetConfig`
#: accept.
RUNTIME_NAMES: tuple[str, ...] = ("serial", "process")


def make_runtime(
    runtime: "Runtime | str | None", jobs: Optional[int] = None
) -> Runtime:
    """Resolve a runtime argument: an instance passes through, a name
    instantiates (``jobs`` applies to ``process``), ``None`` is serial."""
    if runtime is None:
        return SerialRuntime()
    if isinstance(runtime, Runtime):
        return runtime
    if runtime == "serial":
        return SerialRuntime()
    if runtime == "process":
        return ProcessRuntime(jobs=jobs)
    raise ConfigurationError(
        f"unknown runtime {runtime!r}; known: {RUNTIME_NAMES}"
    )


__all__ = [
    "FaultInjectingRuntime",
    "PodScoreTask",
    "ProcessRuntime",
    "RUNTIME_NAMES",
    "Runtime",
    "SerialRuntime",
    "make_runtime",
    "solve_pod",
    "solve_solos",
]
