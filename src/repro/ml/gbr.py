"""Least-squares gradient boosting over CART regression trees.

This mirrors the configuration SLOMO and Yala use from scikit-learn's
``GradientBoostingRegressor``: shallow trees fitted to residuals with a
shrinkage factor, optional row subsampling (stochastic gradient
boosting), and optional early stopping on a validation fraction.

Two hot-path optimisations keep results bit-identical to the naive
loop while removing most of its cost:

- **Leaf-cache residual updates**: each stage's contribution to the
  in-sample rows is read from the leaf assignments recorded while the
  tree grew (no re-traversal); only rows outside the stage's subsample
  are routed through the tree.
- **Fixed-depth predict kernel**: the first ``predict`` after a fit
  packs every tree into one set of node arrays (``fit`` drops the
  pack). Each tree is renumbered breadth-first so that a node's right
  child is its left child + 1. A leaf points to itself and tests a
  constant zero column appended to every row, so ``0.0 <= 0.0`` keeps
  a row at its leaf, NaN features included. Every row then descends
  exactly the ensemble's maximum depth (3 for every model in the repo)
  with no "still active?" bookkeeping: per level,
  ``nodes = left[nodes] + ~(x[feature[nodes]] <= threshold[nodes])``,
  so NaN fails the test and goes right, as in the per-tree descent.
  Rows go in blocks of :data:`_BLOCK_ROWS`, which keeps each level's
  (rows, trees) temporaries small.
- **Stage sum by ``cumsum``**: the stages add up with one
  ``np.cumsum`` over ``[base, lr*leaf_0, lr*leaf_1, ...]``, keeping
  the last column. ``cumsum`` is a sequential left fold, so it makes
  the same additions in the same order as the per-stage loop
  ``prediction += lr * leaf``. ``np.sum`` would not: it adds pairwise.
  :meth:`GradientBoostingRegressor.staged_predict` keeps the per-tree
  loop as the reference.

Early stopping truncates the ensemble back to the best validation
stage (as scikit-learn does), instead of keeping the stale trees fitted
after the validation loss stopped improving.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.errors import ConfigurationError, ModelNotFittedError
from repro.ml.tree import _NO_CHILD, DecisionTreeRegressor
from repro.rng import SeedLike, make_rng

#: Rows per block of the predict kernel. At 300 stages a block's
#: (rows, trees) temporaries stay under 64 KB; 64-row blocks, 150 KB
#: temporaries, made 1,000-row batches about 1.6x slower on a 2-vCPU
#: VM, most of it spent allocating.
_BLOCK_ROWS = 24


class _PackedEnsemble(NamedTuple):
    """All trees as one set of node arrays (see ``_packed_ensemble``)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


class GradientBoostingRegressor:
    """Gradient-boosted regression trees with squared-error loss.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting stages.
    learning_rate:
        Shrinkage applied to each stage's contribution.
    max_depth:
        Depth of the individual regression trees.
    subsample:
        Fraction of rows sampled (without replacement) per stage; 1.0
        disables stochastic boosting.
    min_samples_leaf:
        Minimum samples per tree leaf.
    n_iter_no_change / validation_fraction / tol:
        If ``n_iter_no_change`` is set, a validation split of
        ``validation_fraction`` rows is held out and boosting stops when
        the validation loss fails to improve by ``tol`` for that many
        consecutive stages; the ensemble is then truncated back to the
        best validation stage.
    seed:
        Seed for subsampling and the validation split.
    split_algorithm:
        Split finder used by the stage trees (see
        :class:`~repro.ml.tree.DecisionTreeRegressor`).
    reuse_leaf_cache:
        Update residuals from the leaf assignments recorded during each
        stage's fit instead of re-traversing the tree (bit-identical;
        disable only to benchmark the naive path).
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        n_iter_no_change: Optional[int] = None,
        validation_fraction: float = 0.1,
        tol: float = 1e-4,
        seed: SeedLike = None,
        split_algorithm: str = "vectorized",
        reuse_leaf_cache: bool = True,
    ) -> None:
        if n_estimators < 1:
            raise ConfigurationError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if not 0.0 < subsample <= 1.0:
            raise ConfigurationError(f"subsample must be in (0, 1], got {subsample}")
        if not 0.0 < validation_fraction < 1.0:
            raise ConfigurationError(
                f"validation_fraction must be in (0, 1), got {validation_fraction}"
            )
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.n_iter_no_change = n_iter_no_change
        self.validation_fraction = validation_fraction
        self.tol = tol
        self.split_algorithm = split_algorithm
        self.reuse_leaf_cache = reuse_leaf_cache
        self._rng = make_rng(seed)
        self._base_prediction = 0.0
        self._trees: list[DecisionTreeRegressor] = []
        self._train_losses: list[float] = []
        self._val_losses: list[float] = []
        self._packed: Optional[_PackedEnsemble] = None
        self._n_features = 0
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self, features: np.ndarray, targets: np.ndarray
    ) -> "GradientBoostingRegressor":
        """Fit the ensemble on ``features`` (n, d), ``targets`` (n,)."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2:
            raise ConfigurationError("features must be 2-D")
        if targets.shape != (features.shape[0],):
            raise ConfigurationError("targets shape must match features rows")
        n = features.shape[0]
        if n < 2:
            raise ConfigurationError("need at least 2 samples to boost")

        # Optional validation split for early stopping.
        if self.n_iter_no_change is not None and n >= 10:
            permutation = self._rng.permutation(n)
            n_val = max(1, int(round(self.validation_fraction * n)))
            val_idx, train_idx = permutation[:n_val], permutation[n_val:]
        else:
            train_idx = np.arange(n)
            val_idx = np.empty(0, dtype=int)

        x_train, y_train = features[train_idx], targets[train_idx]
        x_val, y_val = features[val_idx], targets[val_idx]

        self._base_prediction = float(y_train.mean())
        self._trees = []
        self._train_losses = []
        self._val_losses = []
        self._packed = None
        self._n_features = features.shape[1]
        current = np.full(x_train.shape[0], self._base_prediction)
        current_val = np.full(x_val.shape[0], self._base_prediction)

        best_val_loss = np.inf
        best_stage = 0
        stall = 0
        n_rows = x_train.shape[0]
        sample_size = max(2, int(round(self.subsample * n_rows)))
        full_sample = np.arange(n_rows)
        presorted = None
        prebinned = None
        if self.split_algorithm == "vectorized" and self.subsample >= 1.0:
            # Every stage refits on the same rows: share one presort.
            presorted = DecisionTreeRegressor.presort(x_train)
        elif self.split_algorithm == "histogram":
            # Bin identities do not depend on the stage's subsample:
            # bucket once, hand each stage a row-subset view.
            prebinned = DecisionTreeRegressor.prebin(x_train)

        for _ in range(self.n_estimators):
            residual = y_train - current
            if self.subsample < 1.0:
                rows = self._rng.choice(n_rows, size=sample_size, replace=False)
            else:
                rows = full_sample
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=self._rng,
                split_algorithm=self.split_algorithm,
            )
            if presorted is not None or (
                prebinned is not None and rows is full_sample
            ):
                tree.fit(x_train, residual, presorted=presorted, prebinned=prebinned)
            elif prebinned is not None:
                tree.fit(
                    x_train[rows], residual[rows], prebinned=prebinned.subset(rows)
                )
            else:
                tree.fit(x_train[rows], residual[rows])
            self._trees.append(tree)
            current = current + self.learning_rate * self._stage_prediction(
                tree, x_train, rows, identity_rows=rows is full_sample
            )
            # Same pairwise summation as np.mean, minus its bookkeeping.
            self._train_losses.append(
                float(((y_train - current) ** 2).sum() / n_rows)
            )

            if self.n_iter_no_change is not None and val_idx.size:
                current_val = current_val + self.learning_rate * tree.predict(x_val)
                val_loss = float(np.mean((y_val - current_val) ** 2))
                self._val_losses.append(val_loss)
                if val_loss < best_val_loss - self.tol:
                    best_val_loss = val_loss
                    best_stage = len(self._trees)
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.n_iter_no_change:
                        break

        if self.n_iter_no_change is not None and val_idx.size:
            # Drop the stale trees fitted after the best validation
            # stage, as scikit-learn's early stopping does.
            del self._trees[best_stage:]
            del self._train_losses[best_stage:]
        self._fitted = True
        return self

    def _stage_prediction(
        self,
        tree: DecisionTreeRegressor,
        x_train: np.ndarray,
        rows: np.ndarray,
        identity_rows: bool = False,
    ) -> np.ndarray:
        """This stage's per-row contribution over all training rows.

        In-sample rows reuse the leaf assignments cached during
        ``tree.fit``; only out-of-subsample rows traverse the tree.
        ``identity_rows`` must only be set when ``rows`` is the identity
        ordering — a full-size *permutation* (subsample rounding up to
        ``n``) still needs the scatter below to undo the fit-row order.
        """
        if not self.reuse_leaf_cache:
            return tree.predict(x_train)
        if identity_rows:
            # Full-sample stage: fit-row order is x_train order.
            return tree.training_leaf_values()
        n_rows = x_train.shape[0]
        prediction = np.empty(n_rows)
        in_sample = np.zeros(n_rows, dtype=bool)
        in_sample[rows] = True
        prediction[rows] = tree.training_leaf_values()
        out_rows = np.flatnonzero(~in_sample)
        if out_rows.size:
            prediction[out_rows] = tree.predict(x_train[out_rows])
        return prediction

    # ------------------------------------------------------------------
    def _packed_ensemble(self) -> _PackedEnsemble:
        """The ensemble in the fixed-depth layout (see module docstring).

        Trees are concatenated in stage order. Values are stored
        pre-multiplied by the learning rate: the product is the same
        float the per-stage loop computes.
        """
        if self._packed is None:
            zero_column = self._n_features
            feature, threshold, left, value, roots = [], [], [], [], []
            depth = 0
            for tree in self._trees:
                base = len(feature)
                roots.append(base)
                # (old node id, depth) in breadth-first order; children
                # are appended as pairs, so sibling ids are adjacent.
                order = [(0, 0)]
                for old, level in order:
                    if tree._feature[old] == _NO_CHILD:
                        feature.append(zero_column)
                        threshold.append(0.0)
                        left.append(len(left))
                        depth = max(depth, level)
                    else:
                        feature.append(tree._feature[old])
                        threshold.append(tree._threshold[old])
                        left.append(base + len(order))
                        order.append((tree._left[old], level + 1))
                        order.append((tree._right[old], level + 1))
                    value.append(self.learning_rate * tree._value[old])
            self._packed = _PackedEnsemble(
                feature=np.asarray(feature, dtype=np.intp),
                threshold=np.asarray(threshold, dtype=float),
                left=np.asarray(left, dtype=np.intp),
                value=np.asarray(value, dtype=float),
                roots=np.asarray(roots, dtype=np.intp),
                depth=depth,
            )
        return self._packed

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d) -> (n,)."""
        if not self._fitted:
            raise ModelNotFittedError("GradientBoostingRegressor.predict before fit")
        features = self._checked(features)
        n = features.shape[0]
        if not self._trees:
            return np.full(n, self._base_prediction)
        packed = self._packed_ensemble()
        feature, threshold, left = packed.feature, packed.threshold, packed.left
        width = self._n_features + 1
        # Row-major copy with the zero column appended, flattened so one
        # gather reads every (row, tree) cursor's split feature.
        padded = np.zeros((n, width))
        padded[:, :-1] = features
        flat = padded.reshape(-1)
        prediction = np.empty(n)
        terms = np.empty((min(n, _BLOCK_ROWS), packed.roots.size + 1))
        terms[:, 0] = self._base_prediction
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            offsets = np.arange(start * width, stop * width, width)[:, None]
            # The roots broadcast against the rows' offsets, so the first
            # level gathers one node per tree, not one per (row, tree).
            nodes = packed.roots
            for _ in range(packed.depth):
                # NaN fails the test and goes right, as in tree.apply.
                nodes = left[nodes] + ~(
                    flat[offsets + feature[nodes]] <= threshold[nodes]
                )
            block = terms[: stop - start]
            block[:, 1:] = packed.value[nodes]
            # cumsum is a sequential left fold: the same additions, in
            # the same order, as ``prediction += lr * leaf`` per stage.
            prediction[start:stop] = np.cumsum(block, axis=1)[:, -1]
        return prediction

    def _checked(self, features: np.ndarray) -> np.ndarray:
        """``features`` as a float (n, d) matrix of the fitted width."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.ndim != 2 or features.shape[1] != self._n_features:
            raise ConfigurationError(
                f"model was fitted on {self._n_features} features, "
                f"got input of shape {features.shape}"
            )
        return features

    @property
    def n_stages(self) -> int:
        """Number of boosting stages actually fitted."""
        return len(self._trees)

    @property
    def train_losses(self) -> list[float]:
        """Training MSE after each boosting stage."""
        return list(self._train_losses)

    @property
    def val_losses(self) -> list[float]:
        """Validation MSE after each fitted stage (pre-truncation).

        Empty unless early stopping was active. After truncation,
        ``n_stages`` is the last stage whose validation loss improved on
        the previous best by at least ``tol``.
        """
        return list(self._val_losses)

    def staged_predict(self, features: np.ndarray, every: int = 1) -> np.ndarray:
        """Predictions after every ``every`` stages, shape (s, n).

        Useful for inspecting convergence of the boosting process.
        """
        if not self._fitted:
            raise ModelNotFittedError("staged_predict before fit")
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        features = self._checked(features)
        prediction = np.full(features.shape[0], self._base_prediction)
        stages = []
        for i, tree in enumerate(self._trees):
            prediction = prediction + self.learning_rate * tree.predict(features)
            if (i + 1) % every == 0:
                stages.append(prediction.copy())
        if not stages:
            stages.append(prediction.copy())
        return np.array(stages)

    def feature_importances(self, n_features: int) -> np.ndarray:
        """Average split-count importances across all trees."""
        if not self._trees:
            return np.zeros(n_features)
        total = np.zeros(n_features)
        for tree in self._trees:
            total += tree.feature_importances(n_features)
        norm = total.sum()
        return total / norm if norm > 0 else total
