"""CART regression trees.

A minimal but correct implementation of the classification-and-regression
tree algorithm restricted to regression: splits minimise the weighted sum
of child variances (equivalently maximise variance reduction), leaves
predict the mean of their training targets.

The tree is stored in flat parallel arrays rather than node objects,
which keeps prediction vectorisable and the memory footprint small even
for the hundreds of trees a boosting ensemble builds.

Three split finders are available:

- ``"vectorized"`` (default): features are argsorted once per ``fit``;
  each node derives its per-feature sorted order by filtering those
  pre-sorted permutations (stable sort of a subset is a subsequence of
  the stable sort of the whole), then evaluates the cumulative-sum gain
  of *all* candidate thresholds of *all* candidate features in one 2-D
  pass. Produces trees bit-identical to the reference.
- ``"histogram"``: features are bucketed once into their unique-value
  bins (lossless — every threshold the reference considers is a bin
  boundary); each node accumulates per-bin target sums with one
  ``bincount`` over all features at once and ranks boundaries by the
  algebraically equivalent score ``L²/n_L + R²/n_R``. Same splits as
  the reference up to floating-point tie-breaks, and far faster when
  feature cardinality is below the sample count. No production fit
  uses it (the memory model trains with ``"vectorized"``); it is the
  fit arm of ``benchmarks/test_perf_training.py``.
- ``"reference"``: the original per-feature loop, kept as the
  equivalence oracle for tests and the perf benchmark.

``fit`` also records which leaf every training row lands in
(:meth:`DecisionTreeRegressor.training_leaf_values`), so a boosting loop
can update residuals without re-traversing the tree it just grew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ModelNotFittedError
from repro.rng import SeedLike, make_rng

_NO_CHILD = -1

#: Below this node size the histogram finder delegates to the exact
#: reference loop (tie-safety and speed: see _best_split_histogram).
_HISTOGRAM_MIN_NODE = 32

#: Shared cache of arange(rows) * width index vectors (tiny, bounded by
#: the handful of (level size, bin count) shapes a process touches).
_ROW_PICKS: dict[tuple[int, int], np.ndarray] = {}


@dataclass
class _Split:
    """Best split found for one node during tree growth."""

    feature: int
    threshold: float
    gain: float
    left_index: np.ndarray
    right_index: np.ndarray


@dataclass(frozen=True)
class HistogramBins:
    """Lossless unique-value binning of a feature matrix.

    ``codes[f, i]`` is the bin of sample ``i`` on feature ``f``, already
    shifted by ``f * n_bins`` so one flat ``bincount`` covers every
    feature; ``values[f, b]`` is the feature value bin ``b`` represents
    (padded with the feature's maximum for features with fewer bins).
    """

    codes: np.ndarray  # (d, n) int64, feature-shifted bin codes
    values: np.ndarray  # (d, n_bins) float64 bin representative values
    n_bins: int
    #: Per-(feature, bin) sample counts over all rows, shape
    #: (1, d, n_bins); lets full-sample root splits skip a bincount.
    root_counts: Optional[np.ndarray] = None

    def subset(self, rows: np.ndarray) -> "HistogramBins":
        """Binning restricted to ``rows`` (bin identities unchanged)."""
        return HistogramBins(
            codes=self.codes[:, rows], values=self.values, n_bins=self.n_bins
        )


class DecisionTreeRegressor:
    """Regression tree grown greedily by variance reduction.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; the root is depth 0. ``None`` grows until
        leaves are pure or smaller than ``min_samples_split``.
    min_samples_split:
        Minimum number of samples a node needs to be considered for a
        split.
    min_samples_leaf:
        Minimum number of samples each child must retain.
    max_features:
        Number of features examined per split. ``None`` uses all
        features; a float in (0, 1] uses that fraction; an int uses that
        count. Sub-sampling features decorrelates trees in ensembles.
    seed:
        Seed for feature sub-sampling.
    split_algorithm:
        ``"vectorized"`` (default), ``"histogram"`` or ``"reference"``;
        all grow the same tree, the first two much faster (see module
        docstring).
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float | int] = None,
        seed: SeedLike = None,
        split_algorithm: str = "vectorized",
    ) -> None:
        if max_depth is not None and max_depth < 0:
            raise ConfigurationError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_split < 2:
            raise ConfigurationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        if split_algorithm not in ("vectorized", "histogram", "reference"):
            raise ConfigurationError(
                f"split_algorithm must be 'vectorized', 'histogram' or "
                f"'reference', got {split_algorithm!r}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.split_algorithm = split_algorithm
        self._rng = make_rng(seed)
        # Flat tree arrays, filled by fit().
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []
        # Array views of the lists above, materialised once after fit()
        # so predict() does not re-convert them per call.
        self._feature_arr: np.ndarray = np.empty(0, dtype=int)
        self._threshold_arr: np.ndarray = np.empty(0)
        self._left_arr: np.ndarray = np.empty(0, dtype=int)
        self._right_arr: np.ndarray = np.empty(0, dtype=int)
        self._value_arr: np.ndarray = np.empty(0)
        self._train_leaf_ids: np.ndarray = np.empty(0, dtype=int)
        # Per-fit scratch state for the vectorized/histogram finders.
        self._features_flat: Optional[np.ndarray] = None
        self._row_offsets: Optional[np.ndarray] = None
        self._targets_stack: Optional[np.ndarray] = None
        self._node_mask: Optional[np.ndarray] = None
        self._bins: Optional[HistogramBins] = None
        self._fitted = False

    @staticmethod
    def _row_picks(rows: int, width: int) -> np.ndarray:
        """Cached ``arange(rows) * width`` used to gather row maxima."""
        key = (rows, width)
        picks = _ROW_PICKS.get(key)
        if picks is None:
            picks = np.arange(rows) * width
            _ROW_PICKS[key] = picks
        return picks

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @staticmethod
    def presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pre-sorted state for ``fit(presorted=...)``.

        Returns the transposed stable argsort and the transposed feature
        matrix. A boosting loop that refits trees on the same feature
        rows (``subsample == 1.0``) computes this once and shares it
        across every stage, amortising the only ``O(n log n)`` step.
        """
        features = np.asarray(features, dtype=float)
        sorted_idx_t = np.ascontiguousarray(
            np.argsort(features, axis=0, kind="stable").T
        )
        return sorted_idx_t, np.ascontiguousarray(features.T)

    @staticmethod
    def prebin(features: np.ndarray) -> HistogramBins:
        """Bucket ``features`` into unique-value bins for ``"histogram"``.

        A boosting loop prebins its full training matrix once and passes
        :meth:`HistogramBins.subset` views per stage, amortising the
        only sort this split finder needs.
        """
        features = np.asarray(features, dtype=float)
        n, d = features.shape
        per_feature = [
            np.unique(features[:, f], return_inverse=True) for f in range(d)
        ]
        n_bins = max(2, max(u.size for u, _ in per_feature))
        codes = np.empty((d, n), dtype=np.int64)
        values = np.empty((d, n_bins))
        for f, (uniques, inverse) in enumerate(per_feature):
            codes[f] = inverse + f * n_bins
            values[f, : uniques.size] = uniques
            values[f, uniques.size :] = uniques[-1]
        root_counts = np.bincount(
            codes.reshape(-1), minlength=d * n_bins
        ).reshape(1, d, n_bins)
        return HistogramBins(
            codes=codes, values=values, n_bins=n_bins, root_counts=root_counts
        )

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        presorted: Optional[tuple[np.ndarray, np.ndarray]] = None,
        prebinned: Optional[HistogramBins] = None,
    ) -> "DecisionTreeRegressor":
        """Grow the tree on ``features`` (n, d) and ``targets`` (n,).

        ``presorted`` / ``prebinned`` optionally supply :meth:`presort`
        or :meth:`prebin` output for exactly these ``features``
        (caller's responsibility).
        """
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2:
            raise ConfigurationError("features must be a 2-D array")
        if targets.ndim != 1 or targets.shape[0] != features.shape[0]:
            raise ConfigurationError("targets must be 1-D and match features rows")
        if features.shape[0] == 0:
            raise ConfigurationError("cannot fit a tree on zero samples")

        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._train_leaf_ids = np.empty(features.shape[0], dtype=int)
        root_order = None
        if self.split_algorithm == "vectorized":
            if presorted is None:
                presorted = self.presort(features)
            root_order, features_t = presorted
            self._features_flat = features_t.reshape(-1)
            self._row_offsets = (
                np.arange(features.shape[1]) * features.shape[0]
            )[:, None]
            # Stacking targets with their squares lets each node fetch
            # both prefix-sum inputs in one gather and one cumsum.
            self._targets_stack = np.stack([targets, targets**2])
            self._node_mask = np.zeros(features.shape[0], dtype=bool)
        elif self.split_algorithm == "histogram":
            self._bins = prebinned if prebinned is not None else self.prebin(features)
            # Scratch for the exact small-node fallback is built lazily
            # on first use (see _ensure_fallback_scratch).
        index = np.arange(features.shape[0])
        if self.split_algorithm == "histogram":
            # Empty-side divisions in the histogram score are expected
            # and masked; silence the warnings once per fit.
            with np.errstate(divide="ignore", invalid="ignore"):
                if self.max_features is None:
                    self._grow_level_wise(features, targets, index)
                else:
                    # Feature sub-sampling consumes the rng in node
                    # visit order; keep the depth-first order the
                    # reference uses.
                    self._grow(features, targets, index, depth=0, order=None)
        else:
            self._grow(features, targets, index, depth=0, order=root_order)
        self._features_flat = None
        self._row_offsets = None
        self._targets_stack = None
        self._node_mask = None
        self._bins = None
        self._feature_arr = np.asarray(self._feature)
        self._threshold_arr = np.asarray(self._threshold)
        self._left_arr = np.asarray(self._left)
        self._right_arr = np.asarray(self._right)
        self._value_arr = np.asarray(self._value)
        self._fitted = True
        return self

    def _grow(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        index: np.ndarray,
        depth: int,
        order: Optional[np.ndarray] = None,
    ) -> int:
        """Recursively grow a node over ``index``; return its node id.

        ``order`` (vectorized mode) carries this node's members in
        per-feature sorted order, shape ``(d, index.size)``; children's
        order matrices are derived from it by boolean filtering, so the
        fit-time argsort is never repeated.
        """
        node = len(self._value)
        self._feature.append(_NO_CHILD)
        self._threshold.append(0.0)
        self._left.append(_NO_CHILD)
        self._right.append(_NO_CHILD)
        # Bit-identical to targets[index].mean(): same pairwise
        # summation, without np.mean's reduction bookkeeping.
        self._value.append(float(targets[index].sum() / index.size))

        split = None
        if (self.max_depth is None or depth < self.max_depth) and (
            index.size >= self.min_samples_split
        ):
            split = self._best_split(features, targets, index, order)
        if split is None:
            self._train_leaf_ids[index] = node
            return node

        self._feature[node] = split.feature
        self._threshold[node] = split.threshold
        left_order = right_order = None
        if order is not None:
            mask = self._node_mask
            mask[:] = False
            mask[split.left_index] = True
            keep = mask[order]
            left_order = order[keep].reshape(order.shape[0], split.left_index.size)
            right_order = order[~keep].reshape(
                order.shape[0], split.right_index.size
            )
        self._left[node] = self._grow(
            features, targets, split.left_index, depth + 1, left_order
        )
        self._right[node] = self._grow(
            features, targets, split.right_index, depth + 1, right_order
        )
        return node

    def _grow_level_wise(
        self, features: np.ndarray, targets: np.ndarray, index: np.ndarray
    ) -> None:
        """Breadth-first growth: one batched split search per level.

        Produces exactly the tree :meth:`_grow` would (splits are
        computed per node either way and the flat arrays are emitted in
        the same depth-first order afterwards); batching just lets every
        sizeable node of a level share one ``bincount``/``cumsum`` pass.
        """
        root = {"index": index}
        frontier = [root]
        depth = 0
        while frontier:
            batched = []
            for entry in frontier:
                node_index = entry["index"]
                entry["split"] = None
                if self.max_depth is not None and depth >= self.max_depth:
                    continue
                if node_index.size < self.min_samples_split:
                    continue
                if node_index.size <= _HISTOGRAM_MIN_NODE:
                    entry["split"] = self._best_split_histogram(
                        features, targets, node_index
                    )
                else:
                    batched.append(entry)
            if batched:
                splits = self._batch_histogram_splits(
                    features, targets, [entry["index"] for entry in batched]
                )
                for entry, split in zip(batched, splits):
                    entry["split"] = split
            next_frontier = []
            for entry in frontier:
                split = entry["split"]
                if split is not None:
                    entry["left"] = {"index": split.left_index}
                    entry["right"] = {"index": split.right_index}
                    next_frontier.append(entry["left"])
                    next_frontier.append(entry["right"])
            frontier = next_frontier
            depth += 1
        self._emit(targets, root)

    def _emit(self, targets: np.ndarray, entry: dict) -> int:
        """Write a grown node (and its subtree) into the flat arrays.

        Depth-first, matching the layout :meth:`_grow` produces.
        """
        node = len(self._value)
        index = entry["index"]
        self._feature.append(_NO_CHILD)
        self._threshold.append(0.0)
        self._left.append(_NO_CHILD)
        self._right.append(_NO_CHILD)
        self._value.append(float(targets[index].sum() / index.size))
        split = entry["split"]
        if split is None:
            self._train_leaf_ids[index] = node
            return node
        self._feature[node] = split.feature
        self._threshold[node] = split.threshold
        self._left[node] = self._emit(targets, entry["left"])
        self._right[node] = self._emit(targets, entry["right"])
        return node

    def _batch_histogram_splits(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        nodes: list[np.ndarray],
    ) -> list[Optional[_Split]]:
        """Histogram split search for several nodes in one pass.

        Per-(node, feature, bin) aggregates come from a single
        ``bincount`` over the concatenated node members, so the level
        costs one set of array dispatches regardless of how many nodes
        it holds. Produces the same splits as calling
        :meth:`_best_split_histogram` per node: each bucket accumulates
        the same samples in the same order.
        """
        bins = self._bins
        n_bins = bins.n_bins
        d = features.shape[1]
        min_leaf = self.min_samples_leaf
        m = len(nodes)
        results: list[Optional[_Split]] = [None] * m
        stride = d * n_bins
        is_root = m == 1 and nodes[0].size == targets.size
        if is_root:
            # Root level: every sample belongs, codes need no gather.
            level_targets = targets
            flat_codes = bins.codes.reshape(-1)
            n_level = targets.size
        elif m == 1:
            level_targets = targets[nodes[0]]
            flat_codes = bins.codes[:, nodes[0]].reshape(-1)
            n_level = nodes[0].size
        else:
            sizes = np.array([node_index.size for node_index in nodes])
            level_index = np.concatenate(nodes)
            level_targets = targets[level_index]
            shifted = bins.codes[:, level_index] + np.repeat(
                np.arange(m) * stride, sizes
            )
            flat_codes = shifted.reshape(-1)
            n_level = level_index.size
        weights = np.broadcast_to(level_targets, (d, n_level)).ravel()
        if is_root and bins.root_counts is not None:
            counts = bins.root_counts
        else:
            counts = np.bincount(flat_codes, minlength=m * stride).reshape(
                m, d, n_bins
            )
        sums = np.bincount(flat_codes, weights=weights, minlength=m * stride)
        sums = sums.reshape(m, d, n_bins)

        node_sizes = (
            n_level if m == 1 else sizes[:, None, None]
        )
        left_counts = np.cumsum(counts, axis=2)[:, :, :-1]
        left_sums = np.cumsum(sums, axis=2)[:, :, :-1]
        total = left_sums[:, :, -1:] + sums[:, :, -1:]
        right_counts = node_sizes - left_counts
        score = left_sums**2 / left_counts
        score += (total - left_sums) ** 2 / right_counts
        score[(left_counts < min_leaf) | (right_counts < min_leaf)] = -np.inf
        pos = np.argmax(score, axis=2)
        row_scores = score.ravel()[pos.ravel() + self._row_picks(m * d, n_bins - 1)]
        row_scores = row_scores.reshape(m, d)
        all_gains = row_scores - total[:, :, 0] ** 2 / (
            n_level if m == 1 else sizes[:, None]
        )

        # Constant-target check per node (same boolean np.allclose
        # produces on finite data): extrema are exact regardless of
        # reduction order, so per-node min/max (via reduceat when the
        # level holds several nodes) match the reference bit-for-bit.
        if m == 1:
            first = float(level_targets[0])
            bound = 1e-08 + 1e-05 * abs(first)
            constant = [
                float(level_targets.max()) - first <= bound
                and first - float(level_targets.min()) <= bound
            ]
        else:
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            firsts = level_targets[starts]
            bounds = 1e-08 + 1e-05 * np.abs(firsts)
            constant = (
                (np.maximum.reduceat(level_targets, starts) - firsts <= bounds)
                & (firsts - np.minimum.reduceat(level_targets, starts) <= bounds)
            ).tolist()
        for k in range(m):
            node_index = nodes[k]
            if constant[k]:
                continue
            positions = pos[k].tolist()
            node_counts = counts[k]

            def bin_threshold(row: int, feature: int) -> float:
                split_bin = positions[row]
                occupied_after = np.flatnonzero(node_counts[feature, split_bin + 1 :])
                next_bin = split_bin + 1 + int(occupied_after[0])
                return 0.5 * (
                    bins.values[feature, split_bin] + bins.values[feature, next_bin]
                )

            results[k] = self._resolve_winner(
                features,
                node_index,
                None,
                all_gains[k].tolist(),
                row_scores[k].tolist(),
                bin_threshold,
            )
        return results

    def _candidate_features(self, n_features: int) -> np.ndarray:
        """Choose the feature subset examined for one split."""
        if self.max_features is None:
            return np.arange(n_features)
        if isinstance(self.max_features, float):
            count = max(1, int(round(self.max_features * n_features)))
        else:
            count = max(1, min(int(self.max_features), n_features))
        return self._rng.choice(n_features, size=count, replace=False)

    def _best_split(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        index: np.ndarray,
        order: Optional[np.ndarray],
    ) -> Optional[_Split]:
        """Find the variance-minimising split over ``index`` or ``None``."""
        if self.split_algorithm == "vectorized":
            return self._best_split_vectorized(features, targets, index, order)
        if self.split_algorithm == "histogram":
            return self._best_split_histogram(features, targets, index)
        return self._best_split_reference(features, targets, index)

    def _best_split_histogram(
        self, features: np.ndarray, targets: np.ndarray, index: np.ndarray
    ) -> Optional[_Split]:
        """Per-bin aggregation: one ``bincount`` over every feature.

        Every threshold the reference considers is a boundary between
        two occupied unique-value bins, so the candidate set is
        identical; only the floating-point summation order differs.
        Positions inside a run of empty bins tie bit-exactly with the
        run's first boundary (prefix sums grow by ``+0.0``), and
        ``argmax`` keeps the first, so thresholds always sit between
        values actually present in the node. Cost scales with feature
        cardinality instead of node size.

        Small nodes delegate to the exact vectorized kernel (sorting
        just the node): that is where two features can realise the
        *same* partition (exactly tied true gains, broken by rounding
        order — the exact kernel resolves them like the reference does),
        and where per-bin aggregation stops paying for itself anyway.
        """
        if index.size <= _HISTOGRAM_MIN_NODE:
            self._ensure_fallback_scratch(features, targets)
            order = index[np.argsort(features[index], axis=0, kind="stable")].T
            return self._best_split_vectorized(features, targets, index, order)
        node_targets = targets[index]
        # Constant-target check, same boolean np.allclose would produce
        # on finite data but without its broadcasting machinery.
        first = float(node_targets[0])
        if bool(
            (np.abs(node_targets - first) <= 1e-08 + 1e-05 * abs(first)).all()
        ):
            return None
        min_leaf = self.min_samples_leaf
        n = index.size
        n_features = features.shape[1]
        bins = self._bins
        n_bins = bins.n_bins
        if self.max_features is None:
            candidates = None  # all features, in natural order
            codes = bins.codes[:, index]
            c = n_features
        else:
            candidates = self._candidate_features(n_features)
            codes = bins.codes[candidates][:, index]
            c = candidates.size

        flat_codes = codes.ravel()
        weights = np.broadcast_to(node_targets, (c, n)).ravel()
        length = n_features * n_bins
        counts = np.bincount(flat_codes, minlength=length)
        sums = np.bincount(flat_codes, weights=weights, minlength=length)
        if candidates is None:
            counts = counts.reshape(c, n_bins)
            sums = sums.reshape(c, n_bins)
        else:
            counts = counts.reshape(n_features, n_bins)[candidates]
            sums = sums.reshape(n_features, n_bins)[candidates]

        left_counts = np.cumsum(counts, axis=1)[:, :-1]
        left_sums = np.cumsum(sums, axis=1)[:, :-1]
        total = left_sums[:, -1:] + sums[:, -1:]

        # Rank boundaries by L²/n_L + R²/n_R — equivalent (up to
        # rounding) to minimising the summed child SSEs, since the
        # node's total square sum is constant across split positions.
        # Division by an empty side yields inf/nan; those positions are
        # overwritten with -inf below (fit() silences the warnings).
        right_counts = n - left_counts
        score = left_sums**2 / left_counts
        score += (total - left_sums) ** 2 / right_counts
        score[(left_counts < min_leaf) | (right_counts < min_leaf)] = -np.inf
        pos = np.argmax(score, axis=1)

        # The parent SSE enters every gain through the same constant:
        # gain = score - total² / n.
        row_scores = score[np.arange(c), pos]
        gains = (row_scores - total[:, 0] ** 2 / n).tolist()
        pos = pos.tolist()

        def bin_threshold(row: int, feature: int) -> float:
            split_bin = pos[row]
            occupied_after = np.flatnonzero(counts[row, split_bin + 1 :])
            next_bin = split_bin + 1 + int(occupied_after[0])
            return 0.5 * (
                bins.values[feature, split_bin] + bins.values[feature, next_bin]
            )

        return self._resolve_winner(
            features, index, candidates, gains, row_scores.tolist(), bin_threshold
        )

    def _ensure_fallback_scratch(
        self, features: np.ndarray, targets: np.ndarray
    ) -> None:
        """Build the vectorized kernel's scratch on first fallback use."""
        if self._features_flat is None:
            self._features_flat = np.ascontiguousarray(features.T).reshape(-1)
            self._row_offsets = (
                np.arange(features.shape[1]) * features.shape[0]
            )[:, None]
            self._targets_stack = np.stack([targets, targets**2])

    def _resolve_winner(
        self,
        features: np.ndarray,
        index: np.ndarray,
        candidates: Optional[np.ndarray],
        gains: list[float],
        scores: list[float],
        threshold_of,
    ) -> Optional[_Split]:
        """Pick the winning feature and partition the node once.

        Selecting the score maximum (first occurrence on ties, usable
        gain only) and excluding collapsed candidates on retry yields
        exactly the split the reference's scan-with-running-best loop
        returns, while the expensive partition arrays are built only for
        the final winner instead of every improvement along the scan.
        """
        excluded: set[int] = set()
        n_rows = len(gains)
        while True:
            best_row = -1
            best_score = -np.inf
            for row in range(n_rows):
                if gains[row] <= 1e-12 or row in excluded:
                    continue  # invalid boundary (-inf) or no usable gain
                if best_row < 0 or scores[row] > best_score:
                    best_row = row
                    best_score = scores[row]
            if best_row < 0:
                return None
            feature = best_row if candidates is None else candidates[best_row]
            threshold = threshold_of(best_row, feature)
            column = features[index, feature]
            below = column <= threshold
            if not below.any() or below.all():
                # Adjacent floats can make the midpoint collapse onto
                # one side; such a split would create an empty child.
                excluded.add(best_row)
                continue
            return _Split(
                feature=int(feature),
                threshold=float(threshold),
                gain=gains[best_row],
                left_index=index[below],
                right_index=index[~below],
            )

    def _best_split_vectorized(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        index: np.ndarray,
        order: np.ndarray,
    ) -> Optional[_Split]:
        """All candidate features evaluated in one 2-D cumulative-sum pass.

        Bit-identical to :meth:`_best_split_reference`: each node's
        per-feature sorted order (``order``, inherited down the
        recursion from the fit-time stable argsort) is the same
        permutation a stable sort of the subset would produce, and the
        gain arithmetic runs in the same floating-point order, just
        across a ``(features, thresholds)`` matrix instead of one
        feature at a time.
        """
        node_targets = targets[index]
        # Constant-target check, same boolean np.allclose would produce
        # on finite data but without its broadcasting machinery.
        first = float(node_targets[0])
        if bool(
            (np.abs(node_targets - first) <= 1e-08 + 1e-05 * abs(first)).all()
        ):
            return None
        parent_sse = _sse(node_targets)
        min_leaf = self.min_samples_leaf
        n = index.size
        n_features = features.shape[1]
        if self.max_features is None:
            candidates = None  # all features, in natural order
            cand_order = order
            # One flat gather instead of a 2-D fancy index: row r of
            # ``order`` indexes row r of the transposed feature matrix.
            vals = self._features_flat[cand_order + self._row_offsets]
            c = n_features
        else:
            candidates = self._candidate_features(n_features)
            cand_order = order[candidates]
            vals = self._features_flat[cand_order + self._row_offsets[candidates]]
            c = candidates.size

        # Prefix sums let us evaluate every split position in O(n):
        # one gather + one cumsum covers both the target sums and the
        # target-square sums.
        csums = np.cumsum(self._targets_stack[:, cand_order], axis=-1)
        csum, csum_sq = csums[0], csums[1]
        left_sum, left_sq = csum[:, :-1], csum_sq[:, :-1]
        total, total_sq = csum[:, -1:], csum_sq[:, -1:]

        counts = np.arange(1, n)
        right_counts = n - counts
        # In-place arithmetic (bit-identical, fewer temporaries):
        # sse = (left_sq - left_sum²/counts)
        #     + ((total_sq - left_sq) - (total - left_sum)²/right_counts)
        sse = left_sum**2
        sse /= counts
        np.subtract(left_sq, sse, out=sse)
        right_sse = total - left_sum
        right_sse **= 2
        right_sse /= right_counts
        np.subtract(total_sq - left_sq, right_sse, out=right_sse)
        sse += right_sse

        # Split positions whose children satisfy min_samples_leaf form a
        # contiguous band; mask the ends by slice instead of comparing
        # the full counts vectors.
        valid = vals[:, 1:] > vals[:, :-1]
        if min_leaf > 1:
            valid[:, : min_leaf - 1] = False
            valid[:, n - min_leaf :] = False
        has_valid = valid.any(axis=1)
        if not has_valid.any():
            return None
        sse[~valid] = np.inf
        pos = np.argmin(sse, axis=1)
        # The reference only considers features with a valid boundary;
        # parent_sse - inf = -inf conveniently fails the gain check for
        # the rest.
        gains = (parent_sse - sse[np.arange(c), pos]).tolist()
        pos = pos.tolist()

        def midpoint_threshold(row: int, feature: int) -> float:
            split_pos = pos[row]
            return 0.5 * (vals[row, split_pos] + vals[row, split_pos + 1])

        return self._resolve_winner(
            features, index, candidates, gains, gains, midpoint_threshold
        )

    def _best_split_reference(
        self, features: np.ndarray, targets: np.ndarray, index: np.ndarray
    ) -> Optional[_Split]:
        """The original per-feature split loop (equivalence oracle)."""
        node_targets = targets[index]
        if np.allclose(node_targets, node_targets[0]):
            return None
        parent_sse = _sse(node_targets)
        best: Optional[_Split] = None
        min_leaf = self.min_samples_leaf

        for feature in self._candidate_features(features.shape[1]):
            column = features[index, feature]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            sorted_targets = node_targets[order]

            # Prefix sums let us evaluate every split position in O(n).
            csum = np.cumsum(sorted_targets)
            csum_sq = np.cumsum(sorted_targets**2)
            total, total_sq = csum[-1], csum_sq[-1]
            n = index.size

            counts = np.arange(1, n)
            left_sse = csum_sq[:-1] - csum[:-1] ** 2 / counts
            right_counts = n - counts
            right_sum = total - csum[:-1]
            right_sse = (total_sq - csum_sq[:-1]) - right_sum**2 / right_counts

            valid = (
                (sorted_vals[1:] > sorted_vals[:-1])
                & (counts >= min_leaf)
                & (right_counts >= min_leaf)
            )
            if not valid.any():
                continue
            sse = np.where(valid, left_sse + right_sse, np.inf)
            pos = int(np.argmin(sse))
            gain = parent_sse - float(sse[pos])
            if gain <= 1e-12:
                continue
            if best is None or gain > best.gain:
                threshold = 0.5 * (sorted_vals[pos] + sorted_vals[pos + 1])
                mask = column <= threshold
                if not mask.any() or mask.all():
                    # Adjacent floats can make the midpoint collapse onto
                    # one side; such a split would create an empty child.
                    continue
                best = _Split(
                    feature=int(feature),
                    threshold=float(threshold),
                    gain=gain,
                    left_index=index[mask],
                    right_index=index[~mask],
                )
        return best

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d) -> (n,)."""
        return self._value_arr[self.apply(features)]

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf node id each row of ``features`` (n, d) lands in -> (n,)."""
        if not self._fitted:
            raise ModelNotFittedError("DecisionTreeRegressor.predict before fit")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        feature = self._feature_arr
        threshold = self._threshold_arr
        left = self._left_arr
        right = self._right_arr

        # Vectorised level-order descent: advance every row one level per
        # iteration until all rows rest at leaves.
        nodes = np.zeros(features.shape[0], dtype=int)
        active = feature[nodes] != _NO_CHILD
        while active.any():
            rows = np.flatnonzero(active)
            node_ids = nodes[rows]
            go_left = (
                features[rows, feature[node_ids]] <= threshold[node_ids]
            )
            nodes[rows] = np.where(go_left, left[node_ids], right[node_ids])
            active[rows] = feature[nodes[rows]] != _NO_CHILD
        return nodes

    def training_leaf_values(self) -> np.ndarray:
        """Per-row leaf predictions of the samples ``fit`` was given.

        Equivalent to ``predict(train_features)`` but free: leaf
        membership was recorded while the tree grew, so a boosting loop
        can update residuals without re-traversing the tree.
        """
        if not self._fitted:
            raise ModelNotFittedError("training_leaf_values before fit")
        return self._value_arr[self._train_leaf_ids]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes in the grown tree."""
        return len(self._value)

    @property
    def depth(self) -> int:
        """Depth of the grown tree (root = 0)."""
        if not self._fitted:
            raise ModelNotFittedError("tree not fitted")
        return self._depth_of(0)

    def _depth_of(self, node: int) -> int:
        if self._feature[node] == _NO_CHILD:
            return 0
        return 1 + max(
            self._depth_of(self._left[node]), self._depth_of(self._right[node])
        )

    def feature_importances(self, n_features: int) -> np.ndarray:
        """Split-count importances normalised to sum to 1 (or zeros)."""
        counts = np.zeros(n_features, dtype=float)
        for feat in self._feature:
            if feat != _NO_CHILD:
                counts[feat] += 1.0
        total = counts.sum()
        return counts / total if total > 0 else counts


def _sse(values: np.ndarray) -> float:
    """Sum of squared errors of ``values`` around their mean."""
    return float(((values - values.mean()) ** 2).sum())
