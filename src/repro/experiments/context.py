"""Shared trained-model context for the experiment harness.

Training a Yala predictor plus a SLOMO baseline for all nine evaluation
NFs costs tens of thousands of simulated co-runs; the experiments share
one trained context per (scale, seed) so the harness does not retrain
per table. Contexts are cached in-process.

The context is a **multi-target** container: every registered hardware
target (:func:`repro.nic.spec.get_spec`) gets its own
:class:`TargetContext` — one simulator, one profiling collector, one
:class:`YalaSystem` and per-NF SLOMO baselines — built lazily on first
access and trained with per-target derived seeds. The default target
(:data:`repro.nic.spec.DEFAULT_TARGET`, the BlueField-2 testbed) keeps
the seed layout the harness has always used, so every existing table and
figure renders bit-identically; secondary targets (the Pensando NIC of
Table 9) derive their simulator seed as ``derive_seed(seed, target)``
and train predictors on demand instead of bulk-training the whole NF
catalog. ``context.nic`` / ``context.yala`` / ``context.slomo_for``
remain the default-target shorthand the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predictor import YalaPredictor, YalaSystem
from repro.core.slomo import SlomoPredictor
from repro.errors import ConfigurationError
from repro.experiments.common import EXPERIMENT_SEED, ExperimentScale, get_scale
from repro.nf.catalog import EVALUATION_NF_NAMES, make_nf
from repro.nic.nic import SmartNic
from repro.nic.spec import DEFAULT_TARGET, get_spec, target_seed
from repro.profiling.collector import ProfilingCollector
from repro.rng import SeedLike, normalize_seed


@dataclass
class TargetContext:
    """Trained predictors for one hardware target.

    Predictors train lazily: :meth:`yala_for` / :meth:`slomo_for` train
    on first request (with per-target derived seeds unless the caller
    pins an explicit stream) and cache the result, so a target only pays
    for the NFs the selected experiments actually evaluate.
    """

    target: str
    scale: ExperimentScale
    seed: int
    nic: SmartNic
    yala: YalaSystem
    slomo: dict[str, SlomoPredictor] = field(default_factory=dict)
    _slomo_seeds: dict[str, int] = field(default_factory=dict)

    @property
    def collector(self) -> ProfilingCollector:
        return self.yala.collector

    def yala_for(self, nf_name: str, seed: SeedLike = None) -> YalaPredictor:
        """Train-on-demand Yala predictor for one NF on this target."""
        return self.yala.train_one(nf_name, seed=seed)

    def slomo_for(self, nf_name: str, seed: SeedLike = None) -> SlomoPredictor:
        """Train-on-demand SLOMO baseline for one NF on this target.

        As with :meth:`yala_for`, an explicit ``seed`` that conflicts
        with the seed an already-trained baseline used raises instead
        of silently returning the differently-seeded predictor.
        """
        seed_int = normalize_seed(seed)
        if nf_name in self.slomo:
            if seed_int is not None and self._slomo_seeds[nf_name] != seed_int:
                raise ConfigurationError(
                    f"SLOMO baseline for {nf_name!r} on {self.target!r} is "
                    f"already trained with seed {self._slomo_seeds[nf_name]}; "
                    "request explicit seed streams before the first training"
                )
            return self.slomo[nf_name]
        if seed_int is None:
            seed_int = self._slomo_seed(nf_name)
        predictor = SlomoPredictor(nf_name, seed=seed_int)
        predictor.train(
            self.yala.collector,
            make_nf(nf_name),
            n_samples=self.scale.slomo_samples,
        )
        self.slomo[nf_name] = predictor
        self._slomo_seeds[nf_name] = seed_int
        return predictor

    def _slomo_seed(self, nf_name: str) -> int:
        return target_seed(self.seed, self.target, "slomo", nf_name)


@dataclass
class ExperimentContext:
    """Trained predictors shared across experiments, per hardware target."""

    scale: ExperimentScale
    seed: int = EXPERIMENT_SEED
    nf_names: tuple[str, ...] = EVALUATION_NF_NAMES
    _targets: dict[str, TargetContext] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def target(
        self, name: str = DEFAULT_TARGET, train_jobs: int = 1
    ) -> TargetContext:
        """The (lazily built) per-target context for ``name``.

        Building the default target trains the full evaluation NF set,
        exactly as the pre-multi-target context did (``train_jobs > 1``
        parallelises that bulk training; it only applies to the call
        that actually builds the target, never sticks to the context);
        secondary targets come up untrained and train per NF on demand.
        """
        if name not in self._targets:
            spec = get_spec(name)
            nic = SmartNic(spec, seed=target_seed(self.seed, name))
            if name == DEFAULT_TARGET:
                yala = YalaSystem(nic, seed=self.seed, quota=self.scale.quota)
                yala.train(list(self.nf_names), jobs=train_jobs)
            else:
                # The "yala" tag keeps the system's per-NF streams
                # independent from the simulator's noise stream.
                yala = YalaSystem(
                    nic,
                    seed=target_seed(self.seed, name, "yala"),
                    quota=self.scale.quota,
                )
            self._targets[name] = TargetContext(
                target=name,
                scale=self.scale,
                seed=self.seed,
                nic=nic,
                yala=yala,
            )
        return self._targets[name]

    @property
    def built_targets(self) -> tuple[str, ...]:
        """Targets built so far, in build order."""
        return tuple(self._targets)

    # ------------------------------------------------------------------
    # Default-target shorthand (what the per-table experiments use).
    # ------------------------------------------------------------------
    @property
    def nic(self) -> SmartNic:
        return self.target().nic

    @property
    def yala(self) -> YalaSystem:
        return self.target().yala

    def slomo_for(self, nf_name: str) -> SlomoPredictor:
        """Train-on-demand SLOMO baseline on the default target."""
        return self.target().slomo_for(nf_name)


_CONTEXTS: dict[tuple[str, tuple[str, ...]], ExperimentContext] = {}


def get_context(
    scale: str | ExperimentScale = "default",
    nf_names: tuple[str, ...] = EVALUATION_NF_NAMES,
    train_jobs: int = 1,
) -> ExperimentContext:
    """Return (building if needed) the shared trained context.

    Target contexts inside are lazy — requesting the context costs
    nothing until an experiment touches a target. ``train_jobs > 1``
    eagerly builds the *default* target with that much training
    parallelism (see :meth:`YalaSystem.train`; results are identical
    to a serial build), restoring the pre-multi-target semantics where
    the caller asking for parallelism pays for the build — a later
    serial caller never forks surprise worker processes.
    """
    resolved = get_scale(scale)
    key = (resolved.name, tuple(sorted(nf_names)))
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(scale=resolved, nf_names=nf_names)
    context = _CONTEXTS[key]
    if train_jobs > 1:
        context.target(train_jobs=train_jobs)
    return context
