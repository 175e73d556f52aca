"""The profiling collector: measured runs on the simulated NIC.

Implements the paper's ``profile_one`` primitive: run the target NF
co-located with bench NFs at a given contention level and traffic
profile, and record the target's throughput together with the
competitors' aggregate counters. Solo runs and bench counter
measurements are cached — profiling cost in the experiments is counted
in *target* samples, exactly as the paper counts its profiling quota.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import ProfilingError
from repro.nf.framework import NetworkFunction
from repro.obs import NULL_RECORDER, Recorder
from repro.nic.counters import PerfCounters
from repro.nic.nic import SmartNic, WorkloadResult
from repro.profiling.contention import ContentionLevel
from repro.profiling.dataset import ProfileSample
from repro.traffic.profile import TrafficProfile


class ProfilingCollector:
    """Runs profiling experiments for target NFs on one NIC."""

    def __init__(self, nic: SmartNic) -> None:
        self._nic = nic
        self._solo_cache: dict[tuple, WorkloadResult] = {}
        self._bench_counter_cache: dict[tuple, PerfCounters] = {}
        self._sample_cache: dict[tuple, ProfileSample] = {}
        self._profile_count = 0
        # Guards the quota counter when predictors train concurrently
        # (cache writes are idempotent; the counter increment is not).
        self._count_lock = threading.Lock()
        # Telemetry sink — execution channels only (cache hit rates and
        # quota spend depend on evaluation order, never on results).
        self._obs: Recorder = NULL_RECORDER

    def observe(self, recorder: Recorder) -> None:
        """Attach a telemetry recorder (``NULL_RECORDER`` detaches)."""
        self._obs = recorder

    def __getstate__(self) -> dict:
        """Pickle support: locks and recorders don't travel, caches do."""
        state = self.__dict__.copy()
        del state["_count_lock"]
        state["_obs"] = NULL_RECORDER
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._count_lock = threading.Lock()

    @property
    def nic(self) -> SmartNic:
        return self._nic

    @property
    def profile_count(self) -> int:
        """Number of distinct target co-runs measured so far."""
        return self._profile_count

    # ------------------------------------------------------------------
    def solo(self, nf: NetworkFunction, traffic: TrafficProfile) -> WorkloadResult:
        """Measured solo behaviour of ``nf`` under ``traffic`` (cached)."""
        key = (nf.name, nf.pattern.value, traffic)
        if key not in self._solo_cache:
            self._obs.exec_counter("collector.solo_misses")
            self._solo_cache[key] = self._nic.run_solo(nf.demand(traffic))
        else:
            self._obs.exec_counter("collector.solo_hits")
        return self._solo_cache[key]

    def solo_cached(self, nf: NetworkFunction, traffic: TrafficProfile) -> bool:
        """Is the solo baseline of ``(nf, traffic)`` already measured?

        Execution runtimes (:mod:`repro.fleet.runtime`) use this to
        dedupe a warm batch before farming the uncached remainder to
        worker processes.
        """
        return (nf.name, nf.pattern.value, traffic) in self._solo_cache

    def install_solo(
        self,
        nf: NetworkFunction,
        traffic: TrafficProfile,
        result: WorkloadResult,
    ) -> None:
        """Install an externally solved solo baseline into the cache.

        ``result`` must be what :meth:`SmartNic.run_solo` would return
        for ``nf.demand(traffic)`` on this collector's NIC — true by
        construction for the execution runtimes, whose workers solve on
        pickled copies of the same simulator (values are pure in
        ``(seed, scenario)``), so installing is indistinguishable from
        having measured locally.
        """
        self._solo_cache[(nf.name, nf.pattern.value, traffic)] = result

    def solo_many(
        self, requests: list[tuple[NetworkFunction, TrafficProfile]]
    ) -> list[WorkloadResult]:
        """Batch form of :meth:`solo` — one measured solo per request.

        Bit-identical to looping :meth:`solo` (``run_batch`` reproduces
        ``run`` exactly and the cache key is unchanged); all uncached
        solos solve in one :meth:`SmartNic.run_batch` call. The fleet
        engine uses this to warm an epoch's solo baselines in one shot
        before the placement policies start probing them.
        """
        scenarios = []
        slots: list[tuple[int, tuple, str]] = []
        enqueued: set[tuple] = set()
        for i, (nf, traffic) in enumerate(requests):
            key = (nf.name, nf.pattern.value, traffic)
            if key in self._solo_cache or key in enqueued:
                continue
            enqueued.add(key)
            slots.append((len(scenarios), key, nf.name))
            scenarios.append([nf.demand(traffic)])
        if scenarios:
            solved = self._nic.run_batch(scenarios)
            for slot, key, name in slots:
                self._solo_cache[key] = solved[slot][name]
        if self._obs.enabled:
            self._obs.exec_counter("collector.solo_misses", len(scenarios))
            self._obs.exec_counter(
                "collector.solo_hits", len(requests) - len(scenarios)
            )
        return [
            self._solo_cache[(nf.name, nf.pattern.value, traffic)]
            for nf, traffic in requests
        ]

    def bench_counters(
        self,
        contention: ContentionLevel,
        available_cores: Optional[int] = None,
    ) -> PerfCounters:
        """Aggregate solo counters of the benches at ``contention``.

        These are the "contention level" features handed to the models;
        the bench set is measured running together (without the target),
        mirroring how SLOMO characterises a competitor mix's
        contentiousness. ``available_cores`` must describe the same core
        budget the measured co-run gives the benches (``num_cores -
        target cores``) so the counter features describe the competitor
        mix the target actually faced; it defaults to a two-core target.
        """
        if contention.is_idle:
            return PerfCounters.zero()
        if available_cores is None:
            available_cores = self._nic.spec.num_cores - 2
        key = (contention, available_cores)
        if key not in self._bench_counter_cache:
            self._obs.exec_counter("collector.bench_misses")
            benches = contention.benches(available_cores)
            if not benches:
                self._bench_counter_cache[key] = PerfCounters.zero()
            else:
                result = self._nic.run(benches)
                self._bench_counter_cache[key] = PerfCounters.aggregate(
                    [result[w.name].counters for w in benches]
                )
        else:
            self._obs.exec_counter("collector.bench_hits")
        return self._bench_counter_cache[key]

    # ------------------------------------------------------------------
    def profile_one(
        self,
        nf: NetworkFunction,
        contention: ContentionLevel,
        traffic: TrafficProfile,
    ) -> ProfileSample:
        """One measured co-run of ``nf`` against the benches.

        The paper's Algorithm 1 calls this ``profile_one(nf, C, F, n)``
        and "increments the total number of collected samples by one if
        the configuration has not been profiled" — so repeated
        configurations are served from cache and charged no quota. The
        sample counter is exposed as :attr:`profile_count`.
        """
        key = (nf.name, nf.pattern.value, contention, traffic)
        if key in self._sample_cache:
            self._obs.exec_counter("collector.sample_hits")
            return self._sample_cache[key]
        self._obs.exec_counter("collector.sample_misses")
        solo = self.solo(nf, traffic)
        target = nf.demand(traffic)
        bench_budget = self._nic.spec.num_cores - target.cores
        benches = contention.benches(bench_budget)
        if benches:
            result = self._nic.run([target] + benches)
            throughput = result[target.name].throughput_mpps
        else:
            throughput = solo.throughput_mpps
        with self._count_lock:
            self._profile_count += 1
        self._obs.exec_gauge("collector.profile_count", self._profile_count)
        sample = ProfileSample(
            nf_name=nf.name,
            traffic=traffic,
            contention=contention,
            # Counter features must describe the same bench set the
            # measured co-run used — size it with the target's actual
            # core take, not a hard-coded two-core assumption.
            competitor_counters=self.bench_counters(contention, bench_budget),
            throughput_mpps=throughput,
            solo_throughput_mpps=solo.throughput_mpps,
            n_competitors=len(benches),
        )
        self._sample_cache[key] = sample
        return sample

    def profile_many(
        self,
        requests: list[tuple[NetworkFunction, ContentionLevel, TrafficProfile]],
    ) -> list[ProfileSample]:
        """Batch form of :meth:`profile_one` — one sample per request.

        Bit-identical to looping :meth:`profile_one` (the simulator is
        stateless and noise is seeded per workload set, so evaluation
        order cannot change any sample): the quota counter advances
        once per *distinct* uncached configuration, duplicate requests
        share one sample, and the solo / bench-counter caches end up
        with the same entries. All uncached NIC runs — solo baselines,
        target co-runs and bench-counter runs — are collected first and
        solved in a single :meth:`SmartNic.run_batch` call.
        """
        plan: dict[tuple, dict] = {}
        scenarios: list[list] = []
        scenario_keys: dict[tuple, int] = {}

        def enqueue(demands: list) -> int:
            key = tuple(repr(d) for d in demands)
            slot = scenario_keys.get(key)
            if slot is None:
                slot = len(scenarios)
                scenario_keys[key] = slot
                scenarios.append(demands)
            return slot

        for nf, contention, traffic in requests:
            key = (nf.name, nf.pattern.value, contention, traffic)
            if key in self._sample_cache or key in plan:
                continue
            target = nf.demand(traffic)
            entry: dict = {"nf": nf, "target": target}
            solo_key = (nf.name, nf.pattern.value, traffic)
            if solo_key not in self._solo_cache:
                entry["solo_slot"] = enqueue([target])
            bench_budget = self._nic.spec.num_cores - target.cores
            benches = contention.benches(bench_budget)
            entry["benches"] = benches
            if benches:
                entry["co_slot"] = enqueue([target] + benches)
            if not contention.is_idle:
                counter_key = (contention, bench_budget)
                if counter_key not in self._bench_counter_cache:
                    counter_benches = contention.benches(bench_budget)
                    if counter_benches:
                        entry["counter_slot"] = enqueue(counter_benches)
                        entry["counter_benches"] = counter_benches
            plan[key] = entry

        solved = self._nic.run_batch(scenarios) if scenarios else []

        samples = []
        for nf, contention, traffic in requests:
            key = (nf.name, nf.pattern.value, contention, traffic)
            if key in self._sample_cache:
                self._obs.exec_counter("collector.sample_hits")
                samples.append(self._sample_cache[key])
                continue
            self._obs.exec_counter("collector.sample_misses")
            entry = plan[key]
            target = entry["target"]
            solo_key = (nf.name, nf.pattern.value, traffic)
            if solo_key not in self._solo_cache:
                self._solo_cache[solo_key] = solved[entry["solo_slot"]].workloads[
                    target.name
                ]
            solo = self._solo_cache[solo_key]
            benches = entry["benches"]
            if benches:
                throughput = solved[entry["co_slot"]][target.name].throughput_mpps
            else:
                throughput = solo.throughput_mpps
            bench_budget = self._nic.spec.num_cores - target.cores
            if not contention.is_idle:
                counter_key = (contention, bench_budget)
                if counter_key not in self._bench_counter_cache:
                    counter_benches = entry.get("counter_benches")
                    if counter_benches is None:
                        self._bench_counter_cache[counter_key] = PerfCounters.zero()
                    else:
                        result = solved[entry["counter_slot"]]
                        self._bench_counter_cache[counter_key] = (
                            PerfCounters.aggregate(
                                [result[w.name].counters for w in counter_benches]
                            )
                        )
            with self._count_lock:
                self._profile_count += 1
            self._obs.exec_gauge(
                "collector.profile_count", self._profile_count
            )
            sample = ProfileSample(
                nf_name=nf.name,
                traffic=traffic,
                contention=contention,
                competitor_counters=self.bench_counters(contention, bench_budget),
                throughput_mpps=throughput,
                solo_throughput_mpps=solo.throughput_mpps,
                n_competitors=len(benches),
            )
            self._sample_cache[key] = sample
            samples.append(sample)
        return samples

    # ------------------------------------------------------------------
    def co_run_with(
        self,
        nf: NetworkFunction,
        traffic: TrafficProfile,
        competitors: list[tuple[NetworkFunction, TrafficProfile]],
    ) -> WorkloadResult:
        """Ground-truth co-run of ``nf`` against real competitor NFs.

        Used by the evaluation to obtain the truth that predictions are
        scored against. Competitor instances are renamed to avoid
        workload-name collisions when an NF co-runs with itself.
        """
        target = nf.demand(traffic)
        demands = [target]
        for index, (competitor, competitor_traffic) in enumerate(competitors):
            demands.append(
                competitor.demand(
                    competitor_traffic, instance=f"{competitor.name}#{index}"
                )
            )
        total = sum(d.cores for d in demands)
        if total > self._nic.spec.num_cores:
            raise ProfilingError(
                f"co-run needs {total} cores, NIC has {self._nic.spec.num_cores}"
            )
        return self._nic.run(demands)[target.name]

    def co_run_many(
        self,
        requests: list[
            tuple[
                NetworkFunction,
                TrafficProfile,
                list[tuple[NetworkFunction, TrafficProfile]],
            ]
        ],
        on_error: str = "raise",
    ) -> list:
        """Batch form of :meth:`co_run_with` — one result per request.

        Bit-identical to looping :meth:`co_run_with`; all ground-truth
        co-runs solve in one :meth:`SmartNic.run_batch` call. With
        ``on_error="return"`` a request that would have raised gets its
        exception instance in the result slot instead (evaluation loops
        skip infeasible combinations the way their ``try/except`` did).
        """
        scenarios = []
        slots = []
        results: list = [None] * len(requests)
        for i, (nf, traffic, competitors) in enumerate(requests):
            target = nf.demand(traffic)
            demands = [target]
            for index, (competitor, competitor_traffic) in enumerate(competitors):
                demands.append(
                    competitor.demand(
                        competitor_traffic, instance=f"{competitor.name}#{index}"
                    )
                )
            total = sum(d.cores for d in demands)
            if total > self._nic.spec.num_cores:
                results[i] = ProfilingError(
                    f"co-run needs {total} cores, NIC has "
                    f"{self._nic.spec.num_cores}"
                )
                continue
            slots.append((i, target.name))
            scenarios.append(demands)
        solved = self._nic.run_batch(scenarios, on_error="return")
        for (i, target_name), outcome in zip(slots, solved):
            if isinstance(outcome, Exception):
                results[i] = outcome
            else:
                results[i] = outcome[target_name]
        if on_error == "raise":
            for outcome in results:
                if isinstance(outcome, Exception):
                    raise outcome
        return results
