"""Vectorized batch solver for the SmartNIC co-location fixed point.

:meth:`SmartNic.run_batch` solves many *independent* co-location
scenarios at once. Scenarios are compiled into array-shaped state —
static per-workload aggregates are extracted once per scenario, and the
dynamic fixed-point quantities (throughputs, memory pressure,
accelerator offered rates) become ``(n_scenarios,)`` vectors — so each
fixed-point iteration advances *every* unconverged scenario with a fixed
number of numpy operations instead of a Python-loop sweep per scenario.

Bit-exactness contract
----------------------

The batch engine is required to reproduce the scalar solver
(:meth:`SmartNic.run`) **bit for bit** — throughputs, counters,
bottleneck labels, iteration counts and the seeded measurement noise.
That drives three design rules:

1. **Vectorize across scenarios, loop over structure.** All reductions
   in the scalar solver run over small per-scenario collections (stages,
   memory actors, accelerator clients) whose float-addition order is
   observable. Those stay as Python loops over vectorized columns, so
   each scenario sees exactly the scalar sequence of IEEE operations;
   only the scenario axis (the large one) is array-shaped.
2. **Group by structure.** Scenarios are bucketed by a structural
   signature (workload patterns, stage layouts, accelerator usage, DMA
   actors) so that every scenario in a group shares the same set of
   arrays and the same control-flow skeleton. The one reduction the
   scalar solver performs with ``np.sum`` (occupancy pressure) is
   evaluated per equal-hungry-mask row group on contiguous column
   slices, which reproduces numpy's pairwise summation exactly.
3. **Scalar libm where numpy's SIMD differs.** ``x ** 0.7`` in the
   occupancy solver goes through ``math.pow`` per element: numpy's
   vectorized ``pow`` is 1 ulp off libm's scalar ``pow`` for some
   inputs, which the equivalence tests would catch.

Per-scenario damping schedules and convergence masks let finished
scenarios freeze (their state rows stop updating) while stragglers keep
iterating; once at least half of a group's rows have converged the
arrays are compacted to the survivors, so a mixed-convergence batch
costs what its stragglers need, not ``max_iterations * n_scenarios``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError, PlacementError, SimulationError
from repro.nic import nic as _nic
from repro.nic.accelerator import _WATERFILL_ITERATIONS
from repro.nic.counters import PerfCounters
from repro.nic.memory import (
    _MAX_UTILISATION,
    _OCCUPANCY_ITERATIONS,
    _PRESSURE_RATE_EXPONENT,
    MemoryActor,
)
from repro.nic.spec import CACHE_LINE_BYTES
from repro.nic.workload import ExecutionPattern, Resource, WorkloadDemand
from repro.obs import active_recorder
# derive_seed is no longer called here (noise keys go through
# SmartNic._noise_factors), but the benchmark harness wraps it as bound
# in this module, so the name must stay.
from repro.rng import derive_seed  # noqa: F401

#: The DMA memory actor's reuse locality: SmartNic._memory_actors builds
#: it without hot-fraction arguments, so it inherits MemoryActor's
#: dataclass defaults — read them from the dataclass so a retune there
#: cannot silently diverge the two solvers.
_DMA_HOT_ACCESS_FRACTION = MemoryActor.__dataclass_fields__[
    "hot_access_fraction"
].default
_DMA_HOT_WSS_FRACTION = MemoryActor.__dataclass_fields__[
    "hot_wss_fraction"
].default


def _pow_scalar(values: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``values ** exponent`` through scalar libm ``pow``.

    Bit-identical to Python's ``float ** float`` (the scalar solver's
    path); numpy's SIMD pow kernel rounds differently on ~5% of inputs.
    """
    flat = values.ravel()
    out = np.array(
        [math.pow(v, exponent) for v in flat.tolist()], dtype=np.float64
    )
    return out.reshape(values.shape)


# ----------------------------------------------------------------------
# Persistent compilation cache
# ----------------------------------------------------------------------
#: Per-table entry cap. On overflow the table is cleared wholesale
#: rather than LRU-evicted: eviction bookkeeping would cost more than
#: the occasional recompile, and a fleet epoch's working set of
#: structures is orders of magnitude below this.
_COMPILE_CACHE_MAX_ENTRIES = 4096


class _CompileCache:
    """Structural compilation state memoized across ``run_batch`` calls.

    Everything cached here is *static* — a pure function of the demand
    values and the NIC spec (plans, signature embeddings, column
    layouts, family-merge structures) — so reuse is bit-exact by
    construction: a cache hit returns the identical objects a cold
    compile would have produced. Nothing about solver iterates or
    seeded noise lives here.

    The plan table is keyed by ``(id(spec), _demand_key(demand))`` and
    each entry stores a strong reference to its spec, identity-checked
    on lookup: the reference keeps the spec alive so ``id`` reuse after
    garbage collection can never alias two different specs, and the
    structural key tuple covers every demand field, so two demands with
    equal keys are value-identical — the cached plan *and* the
    repr-derived measurement-noise seed both match. (The key is a field
    tuple rather than ``repr(demand)`` because hashing the tuple is
    ~6x cheaper than building the repr string, and the lookup is the
    whole cost of a cache hit.)
    """

    __slots__ = ("enabled", "hits", "misses", "plans", "embeddings",
                 "columns", "families")

    def __init__(self) -> None:
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.plans: dict = {}
        self.embeddings: dict = {}
        self.columns: dict = {}
        self.families: dict = {}

    def clear(self) -> None:
        self.plans.clear()
        self.embeddings.clear()
        self.columns.clear()
        self.families.clear()


_COMPILE_CACHE = _CompileCache()


def compile_cache_enabled() -> bool:
    """Whether the persistent compilation cache is active (default on)."""
    return _COMPILE_CACHE.enabled


def set_compile_cache_enabled(enabled: bool) -> None:
    """Toggle the compilation cache (the cold arm of the perf gate)."""
    _COMPILE_CACHE.enabled = bool(enabled)


def clear_compile_cache() -> None:
    """Drop all memoized compilation state (counters are kept)."""
    _COMPILE_CACHE.clear()


# ----------------------------------------------------------------------
# Compilation: scenario -> static plan
# ----------------------------------------------------------------------
class _WorkloadPlan:
    """Static (throughput-independent) data of one workload demand."""

    __slots__ = (
        "demand",
        "name",
        "cores_f",
        "pattern",
        "n_core",
        "core_cycles",
        "core_rw",
        "core_mlp",
        "reads_sum",
        "writes_sum",
        "instr_sum",
        "cycles_sum",
        "wss",
        "hot_af",
        "hot_wf",
        "arrival",
        "line_rate",
        "accel_names",
        "accel_req",
        "accel_teff",
        "accel_nq",
        "accel_bpk",
        "accel_refs",
        "dma_flag",
        "stage_kinds",
        "stage_labels",
        "signature",
    )

    def __init__(self, nic: "_nic.SmartNic", w: WorkloadDemand) -> None:
        spec = nic.spec
        core = w.core_stages()
        accel = w.accelerator_stages()
        self.demand = w
        self.name = w.name
        self.cores_f = float(w.cores)
        self.pattern = w.pattern
        self.n_core = len(core)
        self.core_cycles = [s.cycles_pp for s in core]
        self.core_rw = [s.reads_pp + s.writes_pp for s in core]
        self.core_mlp = [s.mlp for s in core]
        self.reads_sum = sum(s.reads_pp for s in core)
        self.writes_sum = sum(s.writes_pp for s in core)
        self.instr_sum = sum(s.instructions_pp for s in w.stages)
        self.cycles_sum = sum(s.cycles_pp for s in w.stages)
        self.wss = w.total_wss_bytes()
        self.hot_af = w.hot_access_fraction
        self.hot_wf = w.hot_wss_fraction
        self.arrival = (
            w.arrival_rate_mpps if w.arrival_rate_mpps is not None else np.inf
        )
        self.line_rate = spec.line_rate_mpps(w.packet_size_bytes)
        self.accel_names = tuple(s.accelerator for s in accel)
        self.accel_req = [s.requests_pp for s in accel]
        self.accel_teff = [
            spec.accelerator(s.accelerator).request_time_us(
                s.bytes_per_request, s.matches_per_request
            )
            + spec.accelerator(s.accelerator).queue_switch_us
            for s in accel
        ]
        self.accel_nq = [float(w.queues_for(s.accelerator)) for s in accel]
        self.accel_bpk = [s.bytes_per_request / 1024.0 for s in accel]
        self.accel_refs = [
            spec.accelerator(s.accelerator).dma_refs_per_kb for s in accel
        ]
        # The DMA memory actor exists exactly when some accelerator
        # stage produces a positive DMA reference rate (rates are > 0).
        self.dma_flag = any(
            b > 0.0 and r > 0.0 for b, r in zip(self.accel_bpk, self.accel_refs)
        )
        # Stage layout in declaration order: ("c", core_idx) for
        # CPU/MEMORY stages, ("a", accel_idx) for accelerator stages.
        kinds: list[tuple[str, int]] = []
        labels: list[str] = []
        c_idx = a_idx = 0
        for stage in w.stages:
            if stage.resource is Resource.ACCELERATOR:
                kinds.append(("a", a_idx))
                labels.append(stage.accelerator or "accelerator")
                a_idx += 1
            else:
                kinds.append(("c", c_idx))
                labels.append(stage.resource.value)
                c_idx += 1
        self.stage_kinds = tuple(kinds)
        self.stage_labels = labels
        self.signature = (
            self.pattern.value,
            tuple(
                (kind, self.accel_names[idx] if kind == "a" else None)
                for kind, idx in kinds
            ),
            self.dma_flag,
        )


def _demand_key(w: WorkloadDemand) -> tuple:
    """Structural identity of a demand: every field, hashable form.

    ``WorkloadDemand`` itself is unhashable (``queues_per_accelerator``
    is a dict), so the dict is folded to sorted items; everything else
    is already hashable (``stages`` is a tuple of frozen dataclasses).
    Equal keys <=> field-equal demands.
    """
    return (
        w.name,
        w.cores,
        w.pattern,
        w.stages,
        w.arrival_rate_mpps,
        tuple(sorted(w.queues_per_accelerator.items())),
        w.packet_size_bytes,
        w.hot_access_fraction,
        w.hot_wss_fraction,
    )


def _plan_for(nic: "_nic.SmartNic", w: WorkloadDemand) -> _WorkloadPlan:
    """Compile ``w`` against ``nic``, memoized in the compile cache."""
    cache = _COMPILE_CACHE
    if not cache.enabled:
        return _WorkloadPlan(nic, w)
    spec = nic.spec
    key = (id(spec), _demand_key(w))
    entry = cache.plans.get(key)
    if entry is not None and entry[0] is spec:
        cache.hits += 1
        return entry[1]
    cache.misses += 1
    if len(cache.plans) >= _COMPILE_CACHE_MAX_ENTRIES:
        cache.plans.clear()
    plan = _WorkloadPlan(nic, w)
    cache.plans[key] = (spec, plan)
    return plan


class _ScenarioPlan:
    """One compiled scenario: per-workload plans plus a structure key."""

    __slots__ = ("workloads", "signature", "names")

    def __init__(self, nic: "_nic.SmartNic", demands: list[WorkloadDemand]) -> None:
        self.workloads = [_plan_for(nic, w) for w in demands]
        self.names = [w.name for w in demands]
        self.signature = tuple(p.signature for p in self.workloads)


def _shortest_supersequence(a: tuple, b: tuple) -> tuple:
    """Shortest common supersequence of two workload-signature tuples.

    Classic LCS-based construction; both inputs embed into the result
    as subsequences, so scenarios of either signature can share one
    padded super-group built on it.
    """
    n, m = len(a), len(b)
    lcs = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                lcs[i][j] = lcs[i + 1][j + 1] + 1
            else:
                lcs[i][j] = max(lcs[i + 1][j], lcs[i][j + 1])
    merged: list = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            merged.append(a[i])
            i += 1
            j += 1
        elif lcs[i + 1][j] >= lcs[i][j + 1]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged)


class _ColumnRef:
    """Column structure of a padded super-group, built from a signature.

    A family's super-signature may be synthesized (a supersequence of
    its members' signatures), so no single real scenario spans every
    column; the per-workload signature carries everything the group
    needs to lay a column out — pattern, stage kinds, accelerator names
    and the DMA flag — while all numeric values stay per-row.
    """

    __slots__ = ("pattern", "n_core", "accel_names", "dma_flag", "stage_kinds")

    def __init__(self, wsig: tuple) -> None:
        pattern_value, stages, dma_flag = wsig
        self.pattern = ExecutionPattern(pattern_value)
        kinds: list[tuple[str, int]] = []
        c_idx = a_idx = 0
        for kind, _ in stages:
            if kind == "a":
                kinds.append(("a", a_idx))
                a_idx += 1
            else:
                kinds.append(("c", c_idx))
                c_idx += 1
        self.stage_kinds = tuple(kinds)
        self.n_core = c_idx
        self.accel_names = tuple(
            accel for kind, accel in stages if kind == "a"
        )
        self.dma_flag = dma_flag


def _embed_signature(short: tuple, long: tuple) -> Optional[list[int]]:
    """Leftmost subsequence embedding of ``short`` into ``long``.

    Returns the column index each workload of a ``short``-signature
    scenario occupies in a ``long``-signature super-group, or ``None``
    when no embedding exists. Any valid embedding preserves the scalar
    reduction order (real columns keep their relative order; dummy
    columns contribute exact ``+0.0`` terms), so the deterministic
    leftmost match is as good as any. Memoized in the compile cache
    (the result is pure in the two signatures); callers treat the
    returned list as read-only.
    """
    cache = _COMPILE_CACHE
    if cache.enabled:
        key = (short, long)
        try:
            return cache.embeddings[key]
        except KeyError:
            pass
    cols: Optional[list[int]] = []
    pos = 0
    for wsig in short:
        while pos < len(long) and long[pos] != wsig:
            pos += 1
        if pos == len(long):
            cols = None
            break
        cols.append(pos)
        pos += 1
    if cache.enabled:
        if len(cache.embeddings) >= _COMPILE_CACHE_MAX_ENTRIES:
            cache.embeddings.clear()
        cache.embeddings[key] = cols
    return cols


def _columns_for(super_sig: tuple) -> list[_ColumnRef]:
    """Column layout of a padded family, memoized in the compile cache."""
    cache = _COMPILE_CACHE
    if not cache.enabled:
        return [_ColumnRef(wsig) for wsig in super_sig]
    cols = cache.columns.get(super_sig)
    if cols is None:
        if len(cache.columns) >= _COMPILE_CACHE_MAX_ENTRIES:
            cache.columns.clear()
        cols = [_ColumnRef(wsig) for wsig in super_sig]
        cache.columns[super_sig] = cols
    return cols


def _validate(nic: "_nic.SmartNic", workloads: list[WorkloadDemand]):
    """Replicate :meth:`SmartNic.run` validation; return the error or None."""
    spec = nic.spec
    if not workloads:
        return SimulationError("run() needs at least one workload")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        return SimulationError(f"duplicate workload names: {names}")
    total_cores = sum(w.cores for w in workloads)
    if total_cores > spec.num_cores:
        return PlacementError(
            f"{total_cores} cores requested on {spec.num_cores}-core NIC"
        )
    for workload in workloads:
        for stage in workload.accelerator_stages():
            try:
                spec.accelerator(stage.accelerator)
            except Exception as exc:  # ConfigurationError
                return exc
    return None


class _View:
    """The group's static arrays restricted to one set of rows.

    Slices are taken once per compaction event and reused across
    iterations, so the per-iteration work is purely elementwise.
    """

    __slots__ = ("wl", "act_wss", "act_sqrt", "act_haf", "act_hot", "act_cold", "engines", "n", "lane")

    def __init__(self, group: "_Group", idx: Optional[np.ndarray]) -> None:
        def take(arr):
            return arr if idx is None else arr[idx]

        self.n = group.S if idx is None else len(idx)
        self.lane = take(group.lane)
        self.act_wss = take(group.act_wss)
        self.act_sqrt = take(group.act_sqrt)
        self.act_haf = take(group.act_haf)
        self.act_hot = take(group.act_hot_bytes)
        self.act_cold = take(group.act_cold_bytes)
        self.wl = []
        for data in group.wl:
            self.wl.append(
                {
                    "pattern": data["pattern"],
                    "n_core": data["n_core"],
                    "accel_names": data["accel_names"],
                    "dma_flag": data["dma_flag"],
                    "stage_kinds": data["stage_kinds"],
                    "cores_f": take(data["cores_f"]),
                    "reads_sum": take(data["reads_sum"]),
                    "writes_sum": take(data["writes_sum"]),
                    "instr_sum": take(data["instr_sum"]),
                    "cycles_sum": take(data["cycles_sum"]),
                    "wss": take(data["wss"]),
                    "arrival": take(data["arrival"]),
                    "line_rate": take(data["line_rate"]),
                    "core_cycles": [take(a) for a in data["core_cycles"]],
                    "core_rw": [take(a) for a in data["core_rw"]],
                    "core_mlp": [take(a) for a in data["core_mlp"]],
                    "accel_req": [take(a) for a in data["accel_req"]],
                    "accel_teff": [take(a) for a in data["accel_teff"]],
                    "accel_nq": [take(a) for a in data["accel_nq"]],
                    "accel_bpk": [take(a) for a in data["accel_bpk"]],
                    "accel_refs": [take(a) for a in data["accel_refs"]],
                }
            )
        self.engines = [
            {
                "name": engine["name"],
                "clients": engine["clients"],
                "teff": [take(a) for a in engine["teff"]],
                "nq": [take(a) for a in engine["nq"]],
                "req": [take(a) for a in engine["req"]],
            }
            for engine in group.engines
        ]


# ----------------------------------------------------------------------
# Group solver
# ----------------------------------------------------------------------
class _Group:
    """All scenarios sharing one structural signature, solved together.

    A *padded super-group* additionally merges scenarios whose signature
    is a subsequence of the group's column structure: each scenario's
    workloads occupy the columns of its ``embeddings`` entry, and the
    remaining columns are masked-out dummy lanes whose rates, working
    sets and accelerator demands are all zero. Zero lanes contribute
    exact ``+0.0`` terms to every left-fold reduction, never turn
    "hungry" in the occupancy water-filling (so the pairwise ``np.sum``
    runs over exactly the scalar solver's actor set) and never saturate
    an accelerator water-fill, which keeps the padded solve bit-identical
    to the scalar solver for every real lane.
    """

    def __init__(
        self,
        nic: "_nic.SmartNic",
        plans: list[_ScenarioPlan],
        indices: list[int],
        noises: list[list[float]],
        columns: Optional[list[_WorkloadPlan]] = None,
        embeddings: Optional[list[list[int]]] = None,
        warm: Optional[list] = None,
    ) -> None:
        self._nic = nic
        self._spec = nic.spec
        self._plans = plans
        self.indices = indices
        # noises[i]: measurement-noise factors of plans[i].workloads, in
        # order (SmartNic._noise_factors).
        self._noises = noises
        # warm[i]: None (cold row) or a per-workload list aligned with
        # plans[i].workloads of initial-iterate guesses (None entries
        # fall back to the contention-free estimate).
        self._warm = warm
        self.S = len(plans)
        self._columns = columns if columns is not None else plans[0].workloads
        self.W = len(self._columns)
        if embeddings is None:
            embeddings = [list(range(self.W))] * self.S
        self.embeddings = embeddings
        # lane[i, w]: scenario i has a real workload in column w.
        self.lane = np.zeros((self.S, self.W), dtype=bool)
        for i, cols in enumerate(embeddings):
            self.lane[i, cols] = True
        self._padded = not bool(self.lane.all())
        self._build_workload_arrays()
        self._build_actor_layout()
        self._build_engine_layout()

    # -- array assembly -------------------------------------------------
    def _col(self, values: list[float]) -> np.ndarray:
        return np.array(values, dtype=np.float64)

    def _build_workload_arrays(self) -> None:
        plans = self._plans
        # Per scenario: column index -> its own workload, for the columns
        # it occupies; padded scenarios leave the rest as dummy lanes.
        col_to_wl = [
            {col: j for j, col in enumerate(cols)} for cols in self.embeddings
        ]
        self.wl: list[dict] = []
        for w in range(self.W):
            ref = self._columns[w]
            ps = [
                plan.workloads[col_to_wl[i][w]] if w in col_to_wl[i] else None
                for i, plan in enumerate(plans)
            ]
            n_accel = len(ref.accel_names)
            # Dummy lanes get all-zero demands (mlp keeps 1.0 — it only
            # ever divides): zero rates feed zero pressure everywhere.
            def scalar(attr: str, missing: float = 0.0) -> np.ndarray:
                return self._col(
                    [getattr(p, attr) if p is not None else missing for p in ps]
                )

            def per_item(attr: str, k: int, missing: float = 0.0) -> np.ndarray:
                return self._col(
                    [
                        getattr(p, attr)[k] if p is not None else missing
                        for p in ps
                    ]
                )

            data = {
                "pattern": ref.pattern,
                "n_core": ref.n_core,
                "accel_names": ref.accel_names,
                "dma_flag": ref.dma_flag,
                "stage_kinds": ref.stage_kinds,
                "cores_f": scalar("cores_f"),
                "reads_sum": scalar("reads_sum"),
                "writes_sum": scalar("writes_sum"),
                "instr_sum": scalar("instr_sum"),
                "cycles_sum": scalar("cycles_sum"),
                "wss": scalar("wss"),
                "hot_af": scalar("hot_af"),
                "hot_wf": scalar("hot_wf"),
                "arrival": scalar("arrival"),
                "line_rate": scalar("line_rate"),
                "core_cycles": [
                    per_item("core_cycles", k) for k in range(ref.n_core)
                ],
                "core_rw": [
                    per_item("core_rw", k) for k in range(ref.n_core)
                ],
                "core_mlp": [
                    per_item("core_mlp", k, missing=1.0)
                    for k in range(ref.n_core)
                ],
                "accel_req": [
                    per_item("accel_req", m) for m in range(n_accel)
                ],
                "accel_teff": [
                    per_item("accel_teff", m) for m in range(n_accel)
                ],
                "accel_nq": [
                    per_item("accel_nq", m) for m in range(n_accel)
                ],
                "accel_bpk": [
                    per_item("accel_bpk", m) for m in range(n_accel)
                ],
                "accel_refs": [
                    per_item("accel_refs", m) for m in range(n_accel)
                ],
            }
            self.wl.append(data)

    def _build_actor_layout(self) -> None:
        """Memory actors in the scalar solver's order: workload, then DMA."""
        layout: list[tuple[int, bool]] = []
        for w in range(self.W):
            layout.append((w, False))
            if self.wl[w]["dma_flag"]:
                layout.append((w, True))
        self.actors = layout
        self.A = len(layout)
        llc = self._spec.llc_bytes
        wss_cols, haf_cols, hwf_cols = [], [], []
        for w, is_dma in layout:
            if is_dma:
                wss_cols.append(np.full(self.S, float(_nic._DMA_BUFFER_BYTES)))
                haf_cols.append(np.full(self.S, _DMA_HOT_ACCESS_FRACTION))
                hwf_cols.append(np.full(self.S, _DMA_HOT_WSS_FRACTION))
            else:
                wss_cols.append(self.wl[w]["wss"])
                haf_cols.append(self.wl[w]["hot_af"])
                hwf_cols.append(self.wl[w]["hot_wf"])
        self.act_wss = np.column_stack(wss_cols)
        self.act_haf = np.column_stack(haf_cols)
        hwf = np.column_stack(hwf_cols)
        # sqrt(min(wss, llc)) is static; matches np.sqrt on the scalar min.
        self.act_sqrt = np.sqrt(np.minimum(self.act_wss, llc))
        self.act_hot_bytes = hwf * self.act_wss
        self.act_cold_bytes = self.act_wss - self.act_hot_bytes
        # Workload -> its own (non-DMA) actor column.
        self.wl_actor = {
            w: k for k, (w, is_dma) in enumerate(layout) if not is_dma
        }

    def _build_engine_layout(self) -> None:
        """Per-engine client structure (scalar ``_accelerator_capacities``)."""
        self.engines: list[dict] = []
        for accel_name in self._nic._engines:
            users: list[tuple[int, int]] = []
            for w in range(self.W):
                for m, name in enumerate(self.wl[w]["accel_names"]):
                    if name == accel_name:
                        users.append((w, m))
            if not users:
                continue
            # Clients keyed per workload; a later stage on the same
            # engine overwrites the earlier one (dict-update semantics
            # of the scalar code), so each client uses its *last* stage.
            last: dict[int, int] = {}
            for w, m in users:
                last[w] = m
            client_ws = list(last)  # insertion order == workload order
            self.engines.append(
                {
                    "name": accel_name,
                    "clients": client_ws,
                    "teff": [self.wl[w]["accel_teff"][last[w]] for w in client_ws],
                    "nq": [self.wl[w]["accel_nq"][last[w]] for w in client_ws],
                    "req": [self.wl[w]["accel_req"][last[w]] for w in client_ws],
                }
            )

    # -- fixed-point pieces ---------------------------------------------
    def _memory_pressures(
        self, view: _View, thr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-actor cache read/write rates at current throughputs."""
        reads = np.empty((view.n, self.A))
        writes = np.empty((view.n, self.A))
        for k, (w, is_dma) in enumerate(self.actors):
            data = view.wl[w]
            rate = thr[:, w]
            if not is_dma:
                reads[:, k] = data["reads_sum"] * rate
                writes[:, k] = data["writes_sum"] * rate
            else:
                dma = np.zeros(view.n)
                for m in range(len(data["accel_names"])):
                    dma = dma + (
                        (rate * data["accel_req"][m])
                        * data["accel_bpk"][m]
                        * data["accel_refs"][m]
                    )
                reads[:, k] = dma * 0.5
                writes[:, k] = dma * 0.5
        return reads, writes

    def _solve_occupancy(self, view: _View, access: np.ndarray) -> np.ndarray:
        """Vectorized LLC water-filling (scalar ``solve_occupancy``).

        Rows advance independently; each round, rows sharing the same
        hungry-actor mask are grouped so the pressure total is an
        ``np.sum`` over a contiguous column slice — the exact reduction
        (including numpy's pairwise blocking) the scalar solver runs.
        """
        llc = self._spec.llc_bytes
        wss = view.act_wss
        pressure = _pow_scalar(access, _PRESSURE_RATE_EXPONENT) * view.act_sqrt
        active = (access > 0.0) & (wss > 0.0)
        occupancy = np.zeros((view.n, self.A))
        remaining = np.full(view.n, float(llc))
        hungry = active.copy()
        alive = active.any(axis=1)
        bits = 1 << np.arange(self.A, dtype=np.int64)
        all_cols = np.arange(self.A)
        for _ in range(_OCCUPANCY_ITERATIONS):
            alive &= hungry.any(axis=1) & (remaining > 0.0)
            rows_alive = np.flatnonzero(alive)
            if len(rows_alive) == 0:
                break
            keys = hungry[rows_alive] @ bits
            for key in sorted(set(keys.tolist())):
                rows = rows_alive[keys == key]
                cols = all_cols[(key >> all_cols) & 1 == 1]
                rows_c = rows[:, None]
                pres = pressure[rows_c, cols]
                total = pres.sum(axis=1)
                positive = total > 0.0
                if not positive.all():
                    alive[rows[~positive]] = False
                    rows = rows[positive]
                    if len(rows) == 0:
                        continue
                    rows_c = rows[:, None]
                    pres = pres[positive]
                    total = total[positive]
                shares = remaining[rows_c] * pres / total[:, None]
                need = wss[rows_c, cols] - occupancy[rows_c, cols]
                sat = need <= shares
                any_sat = sat.any(axis=1)
                if any_sat.any():
                    for j, col in enumerate(cols):
                        hit = any_sat & sat[:, j]
                        if not hit.any():
                            continue
                        r = rows[hit]
                        occupancy[r, col] += need[hit, j]
                        remaining[r] -= need[hit, j]
                        hungry[r, col] = False
                no_sat = ~any_sat
                if no_sat.any():
                    r = rows[no_sat]
                    occupancy[r[:, None], cols] += shares[no_sat]
                    remaining[r] = 0.0
                    alive[r] = False
        return occupancy

    def _solve_memory(self, view: _View, thr: np.ndarray) -> dict:
        """Vectorized :meth:`MemorySubsystem.solve` over the view rows."""
        spec = self._spec
        reads, writes = self._memory_pressures(view, thr)
        access = reads + writes
        occupancy = self._solve_occupancy(view, access)
        wss = view.act_wss
        base = spec.base_miss_ratio
        occ_c = np.clip(occupancy, 0.0, wss)
        hot_bytes = view.act_hot
        cold_bytes = view.act_cold
        hot_resident = np.minimum(occ_c, hot_bytes)
        cold_resident = np.minimum(
            np.maximum(occ_c - hot_bytes, 0.0), cold_bytes
        )
        hot_miss = np.where(
            hot_bytes > 0.0,
            1.0 - hot_resident / np.where(hot_bytes > 0.0, hot_bytes, 1.0),
            0.0,
        )
        cold_miss = np.where(
            cold_bytes > 0.0,
            1.0 - cold_resident / np.where(cold_bytes > 0.0, cold_bytes, 1.0),
            0.0,
        )
        haf = view.act_haf
        blended = haf * hot_miss + (1.0 - haf) * cold_miss
        miss = np.clip(base + (1.0 - base) * blended, base, 1.0)
        miss = np.where(wss <= 0.0, base, miss)

        dram_reads = np.empty_like(reads)
        dram_writes = np.empty_like(writes)
        for k in range(self.A):
            dram_reads[:, k] = reads[:, k] * miss[:, k]
            dram_writes[:, k] = (writes[:, k] * miss[:, k]) + (
                reads[:, k] + writes[:, k]
            ) * miss[:, k] * spec.writeback_fraction
        total_r = np.zeros(view.n)
        for k in range(self.A):
            total_r = total_r + dram_reads[:, k]
        total_w = np.zeros(view.n)
        for k in range(self.A):
            total_w = total_w + dram_writes[:, k]
        total_lines = total_r + total_w
        utilisation = np.minimum(
            _MAX_UTILISATION,
            total_lines * CACHE_LINE_BYTES / spec.dram_bandwidth_bpus,
        )
        effective_dram = spec.dram_latency_us / (1.0 - utilisation)
        avg = spec.llc_hit_time_us + miss * effective_dram[:, None]
        return {
            "occupancy": occupancy,
            "miss": miss,
            "avg": avg,
            "dram_reads": dram_reads,
            "dram_writes": dram_writes,
        }

    def _waterfill_capacity(
        self,
        target_pos: int,
        teff: list[np.ndarray],
        nq: list[np.ndarray],
        offered: list[np.ndarray],
        discard: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized RR water-filling for one closed-loop target.

        ``offered[target_pos]`` is ignored (the target saturates its
        queues and is never released); other clients are open-loop with
        per-row offered rates. Returns (target rate, failed-row mask).

        ``discard`` marks rows whose result the caller throws away (the
        target is one of their dummy lanes). They start ``done``: a
        dummy target anchors the weight fold at zero, which lets the
        move/release rounds oscillate to the iteration cap, and one
        such row keeps the whole group's round loop spinning. Rows are
        element-wise independent throughout, so skipping them leaves
        every other row's trajectory bit-identical.
        """
        n = len(teff)
        size = len(teff[target_pos])
        if n == 1:
            # allocate() with one closed-loop client resolves in one
            # round: spare = 1.0, weight = t_eff * n_queues.
            weight = teff[0] * nq[0]
            rate = nq[0] * (1.0 / weight)
            return rate, np.zeros(size, dtype=bool)
        sat = [np.zeros(size, dtype=bool) for _ in range(n)]
        sat[target_pos][:] = True
        done = (
            discard.copy() if discard is not None
            else np.zeros(size, dtype=bool)
        )
        rate = np.ones(size)
        for _ in range(_WATERFILL_ITERATIONS):
            act = ~done
            if not act.any():
                break
            busy = np.zeros(size)
            for j in range(n):
                if j == target_pos:
                    continue
                busy = busy + np.where(~sat[j], offered[j] * teff[j], 0.0)
            # capacity_for() allocates [saturated_target] + competitors,
            # so the scalar weight fold starts with the target's term;
            # the remaining clients follow in their original order.
            weight = teff[target_pos] * nq[target_pos]
            for j in range(n):
                if j == target_pos:
                    continue
                weight = weight + np.where(sat[j], teff[j] * nq[j], 0.0)
            spare = np.maximum(0.0, 1.0 - busy)
            per_queue = np.where(
                weight > 0.0, spare / np.where(weight > 0.0, weight, 1.0), 0.0
            )
            moved = np.zeros(size, dtype=bool)
            for j in range(n):
                if j == target_pos:
                    continue
                mv = act & ~sat[j] & (offered[j] > nq[j] * per_queue + 1e-12)
                sat[j] |= mv
                moved |= mv
            release_rows = act & ~moved
            released = np.zeros(size, dtype=bool)
            for j in range(n):
                if j == target_pos:
                    continue
                rl = release_rows & sat[j] & (offered[j] < nq[j] * per_queue - 1e-12)
                sat[j] &= ~rl
                released |= rl
            final = act & ~moved & ~released
            if final.any():
                rate[final] = (nq[target_pos] * per_queue)[final]
                done |= final
        return rate, ~done

    def _accel_capacities(
        self, view: _View, thr: np.ndarray
    ) -> tuple[dict[tuple[int, str], np.ndarray], np.ndarray]:
        """Per-(workload, engine) stage capacities, plus failed rows."""
        capacities: dict[tuple[int, str], np.ndarray] = {}
        failed = np.zeros(view.n, dtype=bool)
        for engine in view.engines:
            offered = [
                thr[:, w] * engine["req"][pos]
                for pos, w in enumerate(engine["clients"])
            ]
            for pos, w in enumerate(engine["clients"]):
                cap_requests, fail = self._waterfill_capacity(
                    pos,
                    engine["teff"],
                    engine["nq"],
                    offered,
                    discard=~view.lane[:, w] if self._padded else None,
                )
                # A dummy lane's water-fill result is discarded, so a
                # non-converged fill there must not fail the row.
                failed |= fail & view.lane[:, w] if self._padded else fail
                capacities[(w, engine["name"])] = cap_requests / engine["req"][pos]
        return capacities, failed

    def _core_times(
        self, view: _View, w: int, tau: np.ndarray
    ) -> list[np.ndarray]:
        data = view.wl[w]
        freq = self._spec.core_freq_mhz
        return [
            data["core_cycles"][k] / freq
            + data["core_rw"][k] * tau / data["core_mlp"][k]
            for k in range(data["n_core"])
        ]

    def _compose(
        self,
        view: _View,
        w: int,
        core_times: list[np.ndarray],
        accel_caps: list[np.ndarray],
    ) -> np.ndarray:
        data = view.wl[w]
        cores = data["cores_f"]
        if data["pattern"] is ExecutionPattern.PIPELINE:
            n_core = max(1, data["n_core"])
            result = None
            for t in core_times:
                positive = t > 0.0
                cap = np.where(
                    positive,
                    (cores / n_core) / np.where(positive, t, 1.0),
                    np.inf,
                )
                result = cap if result is None else np.minimum(result, cap)
            for cap in accel_caps:
                result = cap if result is None else np.minimum(result, cap)
            if result is None:
                return np.zeros(view.n)
            return result
        total_core = np.zeros(view.n)
        for t in core_times:
            total_core = total_core + t
        accel_wait = np.zeros(view.n)
        for cap in accel_caps:
            positive = cap > 0.0
            accel_wait = accel_wait + np.where(
                positive, cores / np.where(positive, cap, 1.0), 0.0
            )
        denom = total_core + accel_wait
        positive = denom > 0.0
        return np.where(
            positive, cores / np.where(positive, denom, 1.0), np.inf
        )

    def _estimate(self, view: _View) -> np.ndarray:
        """Vectorized :meth:`SmartNic._contention_free_estimate`."""
        with np.errstate(all="ignore"):
            return self._estimate_inner(view)

    def _estimate_inner(self, view: _View) -> np.ndarray:
        spec = self._spec
        tau0 = spec.llc_hit_time_us + spec.base_miss_ratio * spec.dram_latency_us
        thr = np.empty((view.n, self.W))
        for w in range(self.W):
            data = view.wl[w]
            core_times = [
                data["core_cycles"][k] / spec.core_freq_mhz
                + data["core_rw"][k] * tau0 / data["core_mlp"][k]
                for k in range(data["n_core"])
            ]
            accel_caps = []
            for m in range(len(data["accel_names"])):
                teff = data["accel_teff"][m]
                nq = data["accel_nq"][m]
                # allocate() with one closed-loop client in one round:
                # spare = 1.0, weight = t_eff * n, rate = n * (1 / weight).
                solo = nq * (1.0 / (teff * nq))
                accel_caps.append(solo / data["accel_req"][m])
            estimate = self._compose(view, w, core_times, accel_caps)
            estimate = np.minimum(estimate, data["arrival"])
            thr[:, w] = np.minimum(estimate, data["line_rate"])
            if self._padded:
                # Dummy lanes idle at zero rate: every pressure they
                # feed downstream is an exact 0.0, and their residual
                # (updated == thr) is exactly 0.0, so padded rows keep
                # the scalar solver's iteration count.
                thr[:, w] = np.where(view.lane[:, w], thr[:, w], 0.0)
        return thr

    def _iterate(
        self, view: _View, thr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized sweep of the fixed-point map."""
        memory = self._solve_memory(view, thr)
        capacities, failed = self._accel_capacities(view, thr)
        updated = np.empty_like(thr)
        for w in range(self.W):
            data = view.wl[w]
            tau = memory["avg"][:, self.wl_actor[w]]
            core_times = self._core_times(view, w, tau)
            accel_caps = [capacities[(w, name)] for name in data["accel_names"]]
            rate = self._compose(view, w, core_times, accel_caps)
            rate = np.minimum(rate, data["arrival"])
            rate = np.minimum(rate, data["line_rate"])
            if self._padded:
                updated[:, w] = np.where(
                    view.lane[:, w], np.maximum(rate, 1e-9), thr[:, w]
                )
            else:
                updated[:, w] = np.maximum(rate, 1e-9)
        return updated, failed

    # -- driver ----------------------------------------------------------
    def solve(self) -> list:
        """Run the damped fixed point; return per-scenario results."""
        obs = active_recorder()
        S, W = self.S, self.W
        thr_final = np.empty((S, W))
        iterations = np.full(S, _nic._MAX_ITERATIONS, dtype=np.int64)
        errors: dict[int, Exception] = {}

        view = _View(self, None)
        rows = np.arange(S)  # global row of each live slot
        thr = self._estimate(view)
        damping = np.full(S, _nic._DAMPING)
        window = np.full(S, _nic._STALL_WINDOW, dtype=np.int64)
        if self._warm is not None:
            # Seed warm rows exactly as the scalar solver does: per
            # provided name, the guess (clamped like any iterate)
            # replaces the contention-free estimate before iteration 1,
            # and the row starts undamped with the short warm stall
            # window (see _nic._WARM_DAMPING / _nic._WARM_STALL_WINDOW).
            for i, values in enumerate(self._warm):
                if values is None:
                    continue
                cols = self.embeddings[i]
                seeded = False
                for j, value in enumerate(values):
                    if value is not None:
                        thr[i, cols[j]] = max(float(value), 1e-9)
                        seeded = True
                if seeded:
                    damping[i] = _nic._WARM_DAMPING
                    window[i] = _nic._WARM_STALL_WINDOW
        best = np.full(S, np.inf)
        stall = np.zeros(S, dtype=np.int64)
        last_residual = np.full(S, np.inf)
        frozen = np.zeros(S, dtype=bool)  # converged or failed slots

        with np.errstate(all="ignore"):
            for it in range(1, _nic._MAX_ITERATIONS + 1):
                updated, failed = self._iterate(view, thr)
                new_fail = failed & ~frozen
                if new_fail.any():
                    for slot in np.flatnonzero(new_fail):
                        errors[rows[slot]] = SimulationError(
                            "accelerator water-filling failed to converge"
                        )
                    frozen |= new_fail
                residual = None
                for w in range(W):
                    rel = np.abs(updated[:, w] - thr[:, w]) / np.maximum(
                        updated[:, w], 1e-12
                    )
                    residual = rel if residual is None else np.maximum(residual, rel)
                live = ~frozen
                improved = residual < best - 1e-12
                bumped = stall + 1
                trigger = ~improved & (bumped >= window)
                best = np.where(live & improved, residual, best)
                damping = np.where(
                    live & trigger,
                    np.maximum(damping * 0.5, _nic._MIN_DAMPING),
                    damping,
                )
                stall = np.where(
                    live, np.where(improved | trigger, 0, bumped), stall
                )
                thr = np.where(
                    live[:, None],
                    (1.0 - damping)[:, None] * thr + damping[:, None] * updated,
                    thr,
                )
                last_residual = np.where(live, residual, last_residual)

                done = live & (residual < _nic._REL_TOLERANCE)
                if done.any():
                    thr_final[rows[done]] = thr[done]
                    iterations[rows[done]] = it
                    frozen |= done
                if frozen.all():
                    break
                # Compact as soon as an eighth of the slots have frozen
                # (compaction is bit-invisible: rows never interact, so
                # dropping frozen slots only shrinks the arrays the
                # stragglers iterate on). The eager threshold matters
                # most for warm-seeded groups, where the bulk of rows
                # freeze within a few sweeps and only re-seeded
                # stragglers keep iterating.
                if frozen.sum() * 8 >= len(rows):
                    obs.exec_counter("batch.compactions")
                    keep = ~frozen
                    rows = rows[keep]
                    view = _View(self, rows)
                    thr = thr[keep]
                    damping = damping[keep]
                    window = window[keep]
                    best = best[keep]
                    stall = stall[keep]
                    last_residual = last_residual[keep]
                    frozen = np.zeros(len(rows), dtype=bool)

        # The for-else path of the scalar loop: accept small residuals,
        # fail the rest.
        open_slots = np.flatnonzero(~frozen)
        for slot in open_slots:
            res = last_residual[slot]
            if res > _nic._ACCEPT_RESIDUAL:
                errors[rows[slot]] = ConvergenceError(
                    f"fixed point residual {res:.3e} after "
                    f"{_nic._MAX_ITERATIONS} iterations"
                )
            else:
                thr_final[rows[slot]] = thr[slot]

        results: list = [None] * S
        for row, error in errors.items():
            results[row] = error
        ok = np.array(
            [i for i in range(S) if i not in errors], dtype=np.int64
        )
        if len(ok) > 0:
            self._finalise(ok, thr_final[ok], iterations[ok], results)
        return results

    # -- reporting --------------------------------------------------------
    def _finalise(
        self,
        idx: np.ndarray,
        thr: np.ndarray,
        iterations: np.ndarray,
        results: list,
    ) -> None:
        """Vectorized :meth:`SmartNic._finalise` over the ``idx`` rows."""
        nic = self._nic
        spec = self._spec
        view = _View(self, idx)
        with np.errstate(all="ignore"):
            memory = self._solve_memory(view, thr)
            capacities, _ = self._accel_capacities(view, thr)
            per_wl, dram_util = self._finalise_arrays(
                view, thr, memory, capacities
            )
        self._assemble_results(idx, thr, iterations, per_wl, dram_util, results)

    def _finalise_arrays(self, view, thr, memory, capacities):
        spec = self._spec
        # dram_utilisation(): per-actor (read + write) accumulated in
        # actor order, then the same clamp as the solve.
        total = np.zeros(view.n)
        for k in range(self.A):
            total = total + (
                memory["dram_reads"][:, k] + memory["dram_writes"][:, k]
            )
        dram_util = np.minimum(
            _MAX_UTILISATION,
            total * CACHE_LINE_BYTES / spec.dram_bandwidth_bpus,
        )

        per_wl = []
        for w in range(self.W):
            data = view.wl[w]
            actor = self.wl_actor[w]
            avg = memory["avg"][:, actor]
            core_times = self._core_times(view, w, avg)
            n_core = max(1, data["n_core"])
            cores = data["cores_f"]
            stage_times = []
            stage_caps = []
            rtc_metric = []
            for kind, pos in data["stage_kinds"]:
                if kind == "a":
                    cap = capacities[(w, data["accel_names"][pos])]
                    positive = cap > 0.0
                    t = np.where(
                        positive, 1.0 / np.where(positive, cap, 1.0), np.inf
                    )
                    rtc_metric.append(cores * t)
                else:
                    t = core_times[pos]
                    positive = t > 0.0
                    safe_t = np.where(positive, t, 1.0)
                    if data["pattern"] is ExecutionPattern.PIPELINE:
                        cap = np.where(positive, (cores / n_core) / safe_t, np.inf)
                    else:
                        cap = np.where(positive, cores / safe_t, np.inf)
                    rtc_metric.append(t)
                stage_times.append(t)
                stage_caps.append(cap)
            if data["pattern"] is ExecutionPattern.PIPELINE:
                bottleneck_idx = np.argmin(np.column_stack(stage_caps), axis=1)
            else:
                bottleneck_idx = np.argmax(np.column_stack(rtc_metric), axis=1)

            # Table 11 counters.
            rate = thr[:, w]
            stall_cycles = np.zeros(view.n)
            for k in range(data["n_core"]):
                stall_cycles = stall_cycles + (
                    data["core_rw"][k]
                    * avg
                    / data["core_mlp"][k]
                    * spec.core_freq_mhz
                )
            total_cycles = np.maximum(data["cycles_sum"] + stall_cycles, 1e-9)
            share_dma = np.zeros(view.n)
            for m in range(len(data["accel_names"])):
                share_dma = share_dma + (
                    rate
                    * data["accel_req"][m]
                    * data["accel_bpk"][m]
                    * data["accel_refs"][m]
                )
            dma_reads = share_dma * 0.5
            instr = data["instr_sum"]
            miss = memory["miss"][:, actor]
            per_wl.append(
                {
                    "stage_times": stage_times,
                    "stage_caps": stage_caps,
                    "bottleneck_idx": bottleneck_idx,
                    "ipc": np.where(
                        instr > 0.0, instr / total_cycles, 0.0
                    ),
                    "irt": instr * rate,
                    "l2crd": data["reads_sum"] * rate + dma_reads,
                    "l2cwr": data["writes_sum"] * rate + (share_dma - dma_reads),
                    "memrd": memory["dram_reads"][:, actor] + dma_reads * miss,
                    "memwr": memory["dram_writes"][:, actor],
                    "wss": data["wss"],
                    "miss": miss,
                    "occupancy": memory["occupancy"][:, actor],
                }
            )
        return per_wl, dram_util

    def _assemble_results(
        self, idx, thr, iterations, per_wl, dram_util, results
    ) -> None:
        for row, scenario_row in enumerate(idx):
            plan = self._plans[scenario_row]
            noises = self._noises[scenario_row]
            workload_results = {}
            for j, wplan in enumerate(plan.workloads):
                w = self.embeddings[scenario_row][j]
                values = per_wl[w]
                stages = []
                for s_idx, (kind, pos) in enumerate(wplan.stage_kinds):
                    stage = wplan.demand.stages[s_idx]
                    stages.append(
                        _nic.StageReport(
                            name=stage.name,
                            resource=stage.resource,
                            accelerator=(
                                stage.accelerator if kind == "a" else None
                            ),
                            time_pp_us=float(values["stage_times"][s_idx][row]),
                            capacity_mpps=float(values["stage_caps"][s_idx][row]),
                        )
                    )
                counters = PerfCounters(
                    ipc=float(values["ipc"][row]),
                    irt=float(values["irt"][row]),
                    l2crd=float(values["l2crd"][row]),
                    l2cwr=float(values["l2cwr"][row]),
                    memrd=float(values["memrd"][row]),
                    memwr=float(values["memwr"][row]),
                    wss=float(values["wss"][row]),
                )
                rate = float(thr[row, w])
                workload_results[wplan.name] = _nic.WorkloadResult(
                    name=wplan.name,
                    throughput_mpps=rate * noises[j],
                    true_throughput_mpps=rate,
                    counters=counters,
                    stages=tuple(stages),
                    bottleneck=wplan.stage_labels[
                        int(values["bottleneck_idx"][row])
                    ],
                    miss_ratio=float(values["miss"][row]),
                    llc_occupancy_bytes=float(values["occupancy"][row]),
                )
            results[scenario_row] = _nic.RunResult(
                workloads=workload_results,
                iterations=int(iterations[row]),
                dram_utilisation=float(dram_util[row]),
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
#: Signature groups smaller than this solve through the scalar solver:
#: below ~3 rows the vectorized sweep's per-iteration numpy dispatch
#: costs more than the scalar Python sweep, so heterogeneous batches
#: (e.g. a fleet epoch whose NICs host structurally diverse mixes)
#: would otherwise run *slower* batched than looped. The fallback is
#: observation-free: the scalar solver is the bit-exactness oracle the
#: vectorized path must reproduce anyway. Small groups whose signatures
#: embed into one another first merge into padded super-groups (see
#: :class:`_Group`), so only unmergeable stragglers pay the scalar path.
_SCALAR_FALLBACK_GROUP_SIZE = 3


#: Widest super-signature a padded family may grow to. Wider families
#: merge more stragglers into one vectorized solve but pay per-iteration
#: work proportional to their column count; past ~2x a typical mix size
#: the dummy lanes start eating the win.
_PAD_MAX_WIDTH = 8


def _merge_small_groups(
    small: list[tuple[tuple, list[_ScenarioPlan], list[int]]],
) -> tuple[list, list]:
    """Merge small signature groups into padded super-group families.

    Greedy and deterministic: signatures are visited longest first (ties
    broken by repr). Each joins the first family whose super-signature
    already contains it as a subsequence; otherwise the first family
    whose super-signature can *grow* (shortest common supersequence)
    within :data:`_PAD_MAX_WIDTH` absorbs it; otherwise it roots a new
    family. Growth keeps every earlier member embeddable (a subsequence
    of the old root is a subsequence of any supersequence of it).
    Families that gather at least :data:`_SCALAR_FALLBACK_GROUP_SIZE`
    scenarios across two or more signatures solve as one padded
    vectorized group; everything else stays on the scalar path.

    Returns ``(merged, leftovers)``: ``merged`` holds
    ``(columns_sig, members)`` where each member is ``(sig, plans,
    indices)``, ``leftovers`` holds ``(plan, index)`` pairs.

    The family *structure* (which signatures form which families, and
    each family's super-signature) depends only on the multiset of
    (signature, group size) pairs — the greedy visit order is a total
    order over the distinct signatures, independent of input order —
    so it is memoized in the compile cache and replayed against the
    call's own plans/indices on a hit.
    """
    by_sig = {sig: (plans, indices) for sig, plans, indices in small}
    cache = _COMPILE_CACHE
    key = tuple(
        sorted(
            ((sig, len(plans)) for sig, plans, _ in small),
            key=lambda entry: repr(entry[0]),
        )
    )
    cached = cache.families.get(key) if cache.enabled else None
    if cached is None:
        order = sorted(small, key=lambda entry: (-len(entry[0]), repr(entry[0])))
        families: list[dict] = []
        for sig, plans, indices in order:
            placed = False
            for family in families:
                if _embed_signature(sig, family["sig"]) is not None:
                    family["members"].append(sig)
                    placed = True
                    break
            if not placed:
                for family in families:
                    grown = _shortest_supersequence(family["sig"], sig)
                    if len(grown) <= _PAD_MAX_WIDTH:
                        family["sig"] = grown
                        family["members"].append(sig)
                        placed = True
                        break
            if not placed:
                families.append({"sig": sig, "members": [sig]})

        merged_sigs: list[tuple[tuple, tuple]] = []
        leftover_sigs: list[tuple] = []
        for family in families:
            member_sigs = family["members"]
            total = sum(len(by_sig[sig][0]) for sig in member_sigs)
            if len(member_sigs) > 1 and total >= _SCALAR_FALLBACK_GROUP_SIZE:
                merged_sigs.append((family["sig"], tuple(member_sigs)))
            else:
                leftover_sigs.extend(member_sigs)
        cached = (tuple(merged_sigs), tuple(leftover_sigs))
        if cache.enabled:
            if len(cache.families) >= _COMPILE_CACHE_MAX_ENTRIES:
                cache.families.clear()
            cache.families[key] = cached

    merged_sigs, leftover_sigs = cached
    merged = [
        (family_sig, [(sig, *by_sig[sig]) for sig in member_sigs])
        for family_sig, member_sigs in merged_sigs
    ]
    leftovers = [
        (plan, index)
        for sig in leftover_sigs
        for plan, index in zip(*by_sig[sig])
    ]
    return merged, leftovers


def solve_batch(
    nic: "_nic.SmartNic",
    scenarios: list[list[WorkloadDemand]],
    on_error: str = "raise",
    pad_small_groups: bool = True,
    warm_starts: Optional[list] = None,
):
    """Solve many co-location scenarios; see :meth:`SmartNic.run_batch`.

    ``pad_small_groups=False`` disables the padded super-group merge
    *and* straggler adoption and reverts every small signature group to
    the scalar fallback (the heterogeneous-fleet benchmark uses this as
    its reference arm).

    ``warm_starts`` is aligned with ``scenarios``: per entry ``None``
    (cold) or a name→Mpps mapping seeding that scenario's initial
    iterate (see :meth:`SmartNic.run_batch`).
    """
    if on_error not in ("raise", "return"):
        raise SimulationError(f"unknown on_error mode {on_error!r}")
    obs = active_recorder()
    cache = _COMPILE_CACHE
    hits0, misses0 = cache.hits, cache.misses
    results: list = [None] * len(scenarios)
    groups: dict[tuple, tuple[list[_ScenarioPlan], list[int]]] = {}
    for i, workloads in enumerate(scenarios):
        error = _validate(nic, list(workloads))
        if error is not None:
            results[i] = error
            continue
        plan = _ScenarioPlan(nic, list(workloads))
        plans, indices = groups.setdefault(plan.signature, ([], []))
        plans.append(plan)
        indices.append(i)
    if obs.enabled and cache.enabled:
        if cache.hits > hits0:
            obs.exec_counter("batch.compile_cache.hits", cache.hits - hits0)
        if cache.misses > misses0:
            obs.exec_counter(
                "batch.compile_cache.misses", cache.misses - misses0
            )

    def warm_vector(plan: _ScenarioPlan, index: int):
        if warm_starts is None:
            return None
        warm = warm_starts[index]
        if not warm:
            return None
        values = [warm.get(p.name) for p in plan.workloads]
        if all(v is None for v in values):
            return None
        return values

    def warm_list(plans: list[_ScenarioPlan], indices: list[int]):
        if warm_starts is None:
            return None
        values = [warm_vector(p, i) for p, i in zip(plans, indices)]
        if all(v is None for v in values):
            return None
        return values

    big: list[tuple[tuple, list[_ScenarioPlan], list[int]]] = []
    small: list[tuple[tuple, list[_ScenarioPlan], list[int]]] = []
    for sig, (plans, indices) in groups.items():
        if len(plans) < _SCALAR_FALLBACK_GROUP_SIZE:
            small.append((sig, plans, indices))
        else:
            big.append((sig, plans, indices))

    # Straggler adoption: a small group whose signature embeds into a
    # big group's columns rides along as masked lanes instead of paying
    # the scalar fallback or growing a padded family. Both sides are
    # visited in the deterministic longest-first/repr order, first fit
    # wins, and the big group's columns never grow — its own rows stay
    # full-lane, so the proven all-zero-dummy-lane argument keeps every
    # real lane bit-identical to the scalar solver.
    adopted: dict[int, list[tuple[tuple, list[_ScenarioPlan], list[int]]]] = {}
    if pad_small_groups and small and big:
        big_order = sorted(
            range(len(big)), key=lambda k: (-len(big[k][0]), repr(big[k][0]))
        )
        remaining = []
        for sig, plans, indices in sorted(
            small, key=lambda entry: (-len(entry[0]), repr(entry[0]))
        ):
            for k in big_order:
                if (
                    len(sig) <= len(big[k][0])
                    and _embed_signature(sig, big[k][0]) is not None
                ):
                    adopted.setdefault(k, []).append((sig, plans, indices))
                    break
            else:
                remaining.append((sig, plans, indices))
        small = remaining

    # Every vectorized solve as (plans, indices, columns, embeddings).
    # All of their scenarios are seeded by one noise pass up front.
    solves: list[tuple[list, list, Optional[list], Optional[list]]] = []
    for k, (sig, plans, indices) in enumerate(big):
        members = adopted.get(k)
        if not members:
            obs.exec_histogram("batch.group_size", len(plans))
            solves.append((plans, indices, None, None))
            continue
        all_plans = list(plans)
        all_indices = list(indices)
        all_embeds: list[list[int]] = [list(range(len(sig)))] * len(plans)
        for m_sig, m_plans, m_indices in members:
            cols = _embed_signature(m_sig, sig)
            all_plans.extend(m_plans)
            all_indices.extend(m_indices)
            all_embeds.extend([cols] * len(m_plans))
        if obs.enabled:
            obs.exec_histogram("batch.group_size", len(all_plans))
            obs.exec_counter(
                "batch.adoptions",
                sum(len(m_plans) for _, m_plans, _ in members),
            )
            obs.exec_counter(
                "batch.padded_lanes",
                sum(
                    len(m_plans) * (len(sig) - len(m_sig))
                    for m_sig, m_plans, _ in members
                ),
            )
        solves.append((all_plans, all_indices, None, all_embeds))

    if pad_small_groups and len(small) > 1:
        merged, leftovers = _merge_small_groups(small)
    else:
        merged = []
        leftovers = [
            (plan, index)
            for _, plans, indices in small
            for plan, index in zip(plans, indices)
        ]
    for super_sig, members in merged:
        all_plans = []
        all_indices = []
        all_embeds = []
        for sig, plans, indices in members:
            cols = _embed_signature(sig, super_sig)
            all_plans.extend(plans)
            all_indices.extend(indices)
            all_embeds.extend([cols] * len(plans))
        if obs.enabled:
            obs.exec_histogram("batch.group_size", len(all_plans))
            obs.exec_counter(
                "batch.padded_lanes",
                sum(
                    len(plans) * (len(super_sig) - len(sig))
                    for sig, plans, _ in members
                ),
            )
        solves.append(
            (all_plans, all_indices, _columns_for(super_sig), all_embeds)
        )

    noises = iter(
        nic._noise_factors(
            [
                [p.demand for p in plan.workloads]
                for plans, _, _, _ in solves
                for plan in plans
            ]
        )
    )
    for plans, indices, columns, embeddings in solves:
        group = _Group(
            nic,
            plans,
            indices,
            [next(noises) for _ in plans],
            columns=columns,
            embeddings=embeddings,
            warm=warm_list(plans, indices),
        )
        for local, outcome in enumerate(group.solve()):
            results[indices[local]] = outcome
    if leftovers:
        obs.exec_counter("batch.scalar_scenarios", len(leftovers))
    for plan, index in leftovers:
        demands = [p.demand for p in plan.workloads]
        warm = warm_starts[index] if warm_starts is not None else None
        try:
            results[index] = nic.run(demands, initial=warm or None)
        except ConvergenceError as error:
            results[index] = error

    if on_error == "raise":
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
    return results
