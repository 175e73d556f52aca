"""Black-box memory-subsystem contention model (paper §4.1.2, §5.1.2).

Follows SLOMO's state-of-the-art approach: gradient boosting regression
over the competitors' hardware counter vector (Table 11). Yala's twist
is traffic awareness — the traffic attribute vector ``(flow_count,
packet_size, mtbr)`` is appended to the input features so one model
covers the whole traffic space instead of a single profile.

Prediction is available one scenario at a time (:meth:`predict`) or
batched (:meth:`predict_batch`); the batch path builds its feature
matrix with one ``np.array`` call, shares one scaler pass and one
ensemble traversal across the whole request set, and is bit-identical
per row to the single-call path.

Training fits the GBR on the scaled feature matrix with its default,
bit-exact ``vectorized`` split finder.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelNotFittedError, ProfilingError
from repro.ml.gbr import GradientBoostingRegressor
from repro.ml.preprocessing import StandardScaler
from repro.nic.counters import PerfCounters, counter_values
from repro.profiling.dataset import ProfileDataset
from repro.rng import SeedLike
from repro.traffic.profile import TrafficProfile


class MemoryContentionModel:
    """GBR predictor of throughput under memory-subsystem contention."""

    def __init__(
        self,
        nf_name: str,
        traffic_aware: bool = True,
        n_estimators: int = 300,
        learning_rate: float = 0.08,
        max_depth: int = 3,
        subsample: float = 0.9,
        seed: SeedLike = None,
    ) -> None:
        self.nf_name = nf_name
        self.traffic_aware = traffic_aware
        self._scaler = StandardScaler()
        self._model = GradientBoostingRegressor(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            subsample=subsample,
            min_samples_leaf=2,
            seed=seed,
        )
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, dataset: ProfileDataset) -> "MemoryContentionModel":
        """Train on profiled samples of this NF."""
        if dataset.nf_name != self.nf_name:
            raise ProfilingError(
                f"dataset for {dataset.nf_name!r} given to model of {self.nf_name!r}"
            )
        if len(dataset) < 4:
            raise ProfilingError("need at least 4 samples to train")
        features = dataset.features(include_traffic=self.traffic_aware)
        targets = dataset.targets()
        self._model.fit(self._scaler.fit_transform(features), targets)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def predict(
        self,
        competitor_counters: PerfCounters,
        traffic: TrafficProfile,
        n_competitors: int = 1,
    ) -> float:
        """Predicted throughput (Mpps) under the given contention."""
        return float(
            self.predict_batch([competitor_counters], [traffic], [n_competitors])[0]
        )

    def predict_batch(
        self,
        competitor_counters: list[PerfCounters],
        traffics: list[TrafficProfile],
        n_competitors: list[int],
    ) -> np.ndarray:
        """Predicted throughput for several scenarios at once -> (n,).

        One scaler pass and one ensemble traversal cover the whole
        batch; every row is bit-identical to a single-scenario
        :meth:`predict` call (which delegates here), so experiment
        sweeps can batch without changing results.
        """
        if not self._fitted:
            raise ModelNotFittedError(f"memory model for {self.nf_name!r} not fitted")
        if not (len(competitor_counters) == len(traffics) == len(n_competitors)):
            raise ProfilingError("predict_batch inputs must have equal lengths")
        if not traffics:
            return np.empty(0)
        # One matrix in ProfileDataset.features' column order: counters,
        # competitor count, then (traffic-aware) the traffic attributes.
        if self.traffic_aware:
            rows = np.array(
                [
                    (
                        *counter_values(counters),
                        float(n),
                        float(traffic.flow_count),
                        float(traffic.packet_size),
                        traffic.mtbr,
                    )
                    for counters, traffic, n in zip(
                        competitor_counters, traffics, n_competitors
                    )
                ],
                dtype=float,
            )
        else:
            rows = np.array(
                [
                    (*counter_values(counters), float(n))
                    for counters, n in zip(competitor_counters, n_competitors)
                ],
                dtype=float,
            )
        predictions = self._model.predict(self._scaler.transform(rows))
        return np.maximum(predictions, 1e-6)

    def predict_solo(self, traffic: TrafficProfile) -> float:
        """Predicted solo throughput (zero contention features)."""
        return self.predict(PerfCounters.zero(), traffic, n_competitors=0)

    # ------------------------------------------------------------------
    def feature_importances(self) -> dict[str, float]:
        """Split-based importances keyed by feature name."""
        if not self._fitted:
            raise ModelNotFittedError("model not fitted")
        names = ProfileDataset.feature_names(include_traffic=self.traffic_aware)
        importances = self._model.feature_importances(len(names))
        return dict(zip(names, importances.tolist()))
