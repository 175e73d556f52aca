"""Unit tests for gradient boosting regression."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ModelNotFittedError
from repro.ml.gbr import GradientBoostingRegressor


def _smooth_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 4))
    y = 2.0 * x[:, 0] + np.sin(4 * x[:, 1]) + 0.5 * x[:, 2] * x[:, 3]
    return x, y


def _bits(values: np.ndarray) -> bytes:
    """The exact float64 bits of ``values`` (NaN included)."""
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@st.composite
def ensemble_and_probe(draw):
    """A fitted ensemble and 1-300 probe rows holding NaN and +-inf.

    Covers depth 0-5 trees, full-sample and stochastic boosting, all
    three split finders, constant targets, and early stopping. Targets
    of +-1e200 overflow the validation loss to inf, so early stopping
    never sees an improvement and truncates the ensemble to 0 stages.
    """
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n_features = draw(st.integers(1, 5))
    n_rows = draw(st.integers(12, 60))
    x = rng.normal(size=(n_rows, n_features))
    if draw(st.booleans()):
        x = np.round(x * 2.0) / 2.0  # tied feature values
    targets = draw(st.sampled_from(["smooth", "constant", "overflowing"]))
    if targets == "constant":
        y = np.full(n_rows, 2.5)
    elif targets == "smooth":
        y = 2.0 * x[:, 0] + np.sin(3.0 * x[:, -1]) + 0.1 * rng.normal(size=n_rows)
    else:
        y = rng.choice([-1e200, 1e200], size=n_rows)
    model = GradientBoostingRegressor(
        n_estimators=draw(st.integers(1, 30)),
        learning_rate=draw(st.sampled_from([0.08, 0.1, 1.0])),
        max_depth=draw(st.integers(0, 5)),
        subsample=draw(st.sampled_from([1.0, 0.7])),
        min_samples_leaf=draw(st.integers(1, 3)),
        n_iter_no_change=draw(st.sampled_from([None, 1, 3])),
        split_algorithm=draw(
            st.sampled_from(["vectorized", "histogram", "reference"])
        ),
        seed=seed,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        model.fit(x, y)
    probe = rng.normal(size=(draw(st.integers(1, 300)), n_features))
    for special, share in ((np.nan, 0.1), (np.inf, 0.05), (-np.inf, 0.05)):
        probe[rng.random(probe.shape) < share] = special
    return model, probe


class TestFitting:
    def test_fits_nonlinear_function(self):
        x, y = _smooth_data()
        model = GradientBoostingRegressor(n_estimators=150, seed=0).fit(x, y)
        rmse = np.sqrt(np.mean((model.predict(x) - y) ** 2))
        assert rmse < 0.1 * y.std()

    def test_training_loss_decreases(self):
        x, y = _smooth_data()
        model = GradientBoostingRegressor(n_estimators=60, seed=0).fit(x, y)
        losses = model.train_losses
        assert losses[-1] < losses[0]

    def test_more_stages_reduce_training_error(self):
        x, y = _smooth_data()
        small = GradientBoostingRegressor(n_estimators=10, seed=0).fit(x, y)
        large = GradientBoostingRegressor(n_estimators=200, seed=0).fit(x, y)
        assert large.train_losses[-1] < small.train_losses[-1]

    def test_generalises_to_held_out_data(self):
        x, y = _smooth_data(600)
        model = GradientBoostingRegressor(n_estimators=200, seed=0).fit(
            x[:500], y[:500]
        )
        rmse = np.sqrt(np.mean((model.predict(x[500:]) - y[500:]) ** 2))
        assert rmse < 0.25 * y.std()

    def test_subsample_stochastic_boosting(self):
        x, y = _smooth_data()
        model = GradientBoostingRegressor(
            n_estimators=50, subsample=0.6, seed=0
        ).fit(x, y)
        assert model.n_stages == 50

    def test_early_stopping_halts(self):
        x, y = _smooth_data(400)
        model = GradientBoostingRegressor(
            n_estimators=500, n_iter_no_change=5, seed=0
        ).fit(x, y)
        assert model.n_stages < 500

    def test_deterministic_given_seed(self):
        x, y = _smooth_data()
        a = GradientBoostingRegressor(n_estimators=30, subsample=0.7, seed=5).fit(x, y)
        b = GradientBoostingRegressor(n_estimators=30, subsample=0.7, seed=5).fit(x, y)
        assert np.allclose(a.predict(x), b.predict(x))


class TestHotPathEquivalence:
    """The optimised boosting paths must be bit-identical to the seed."""

    @pytest.mark.parametrize("subsample", [0.8, 0.995])
    def test_leaf_cache_matches_retraversal(self, subsample):
        # subsample=0.995 rounds the sample size up to n, making rows a
        # full-size *permutation* — regression for a leaf-cache shortcut
        # that mistook it for identity ordering.
        x, y = _smooth_data(100)
        fast = GradientBoostingRegressor(
            n_estimators=40, subsample=subsample, seed=9, reuse_leaf_cache=True
        ).fit(x, y)
        slow = GradientBoostingRegressor(
            n_estimators=40, subsample=subsample, seed=9, reuse_leaf_cache=False
        ).fit(x, y)
        probe = x[:50]
        assert np.array_equal(fast.predict(probe), slow.predict(probe))
        assert fast.train_losses == slow.train_losses

    @pytest.mark.parametrize("subsample", [1.0, 0.8])
    def test_split_algorithms_match_reference(self, subsample):
        x, y = _smooth_data(250)
        models = {
            algorithm: GradientBoostingRegressor(
                n_estimators=30,
                subsample=subsample,
                min_samples_leaf=2,
                seed=4,
                split_algorithm=algorithm,
            ).fit(x, y)
            for algorithm in ("reference", "vectorized", "histogram")
        }
        probe = x[:40]
        expected = models["reference"].predict(probe)
        assert np.array_equal(expected, models["vectorized"].predict(probe))
        assert np.array_equal(expected, models["histogram"].predict(probe))

    @given(ensemble_and_probe())
    @settings(max_examples=60, deadline=None)
    def test_packed_predict_matches_per_tree_loop(self, case):
        model, probe = case
        assert _bits(model.predict(probe)) == _bits(model.staged_predict(probe)[-1])

    @given(ensemble_and_probe())
    @settings(max_examples=40, deadline=None)
    def test_batch_predict_matches_single_rows(self, case):
        model, probe = case
        singles = np.array(
            [model.predict(probe[i : i + 1])[0] for i in range(probe.shape[0])]
        )
        assert _bits(singles) == _bits(model.predict(probe))

    @given(ensemble_and_probe(), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_predict_survives_pickle_and_refit(self, case, refit_width):
        model, probe = case
        expected = _bits(model.predict(probe))
        # Before and after the packed layout is cached.
        assert _bits(pickle.loads(pickle.dumps(model)).predict(probe)) == expected
        fresh = pickle.loads(pickle.dumps(model))
        fresh._packed = None
        assert _bits(fresh.predict(probe)) == expected
        # A refit, even to another width, must not predict from the
        # previous fit's layout.
        rng = np.random.default_rng(refit_width)
        x = rng.normal(size=(40, refit_width))
        model.fit(x, np.cos(x[:, 0]) + x[:, -1])
        assert _bits(model.predict(x)) == _bits(model.staged_predict(x)[-1])


class TestEarlyStoppingTruncation:
    def test_ensemble_truncated_to_best_validation_stage(self):
        x, y = _smooth_data(400)
        model = GradientBoostingRegressor(
            n_estimators=500, n_iter_no_change=5, tol=1e-4, seed=0
        ).fit(x, y)
        val_losses = model.val_losses
        assert val_losses, "early stopping must record validation losses"
        # The stale trees fitted after the last tol-sized improvement
        # are gone...
        assert model.n_stages < len(val_losses)
        assert len(model.train_losses) == model.n_stages
        # ...and the kept stage replicates the seed's running-best logic:
        best, stage = np.inf, 0
        for index, loss in enumerate(val_losses):
            if loss < best - 1e-4:
                best, stage = loss, index + 1
        assert model.n_stages == stage

    def test_truncated_model_still_predicts(self):
        x, y = _smooth_data(400)
        model = GradientBoostingRegressor(
            n_estimators=300, n_iter_no_change=3, seed=2
        ).fit(x, y)
        rmse = np.sqrt(np.mean((model.predict(x) - y) ** 2))
        assert rmse < 0.5 * y.std()

    def test_no_early_stopping_keeps_all_stages(self):
        x, y = _smooth_data(100)
        model = GradientBoostingRegressor(n_estimators=20, seed=0).fit(x, y)
        assert model.n_stages == 20
        assert model.val_losses == []


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"subsample": 0.0},
            {"subsample": 1.2},
            {"validation_fraction": 1.0},
        ],
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            GradientBoostingRegressor(**kwargs)

    def test_rejects_single_sample(self):
        with pytest.raises(ConfigurationError):
            GradientBoostingRegressor().fit(np.ones((1, 2)), np.ones(1))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            GradientBoostingRegressor().fit(np.ones((5, 2)), np.ones(6))

    def test_predict_before_fit(self):
        with pytest.raises(ModelNotFittedError):
            GradientBoostingRegressor().predict(np.ones((1, 2)))

    def test_staged_predict_before_fit(self):
        with pytest.raises(ModelNotFittedError):
            GradientBoostingRegressor().staged_predict(np.ones((1, 2)))

    @pytest.mark.parametrize("width", [2, 4, 5])
    def test_predict_rejects_other_input_widths(self, width):
        x, y = _smooth_data(50)
        model = GradientBoostingRegressor(n_estimators=5, seed=0).fit(x[:, :3], y)
        with pytest.raises(ConfigurationError):
            model.predict(np.ones((2, width)))
        with pytest.raises(ConfigurationError):
            model.staged_predict(np.ones((2, width)))

    @pytest.mark.parametrize("every", [0, -1])
    def test_staged_predict_rejects_nonpositive_every(self, every):
        x, y = _smooth_data(50)
        model = GradientBoostingRegressor(n_estimators=5, seed=0).fit(x, y)
        with pytest.raises(ConfigurationError):
            model.staged_predict(x, every=every)


class TestIntrospection:
    def test_staged_predictions_shape(self):
        x, y = _smooth_data(100)
        model = GradientBoostingRegressor(n_estimators=20, seed=0).fit(x, y)
        stages = model.staged_predict(x[:10], every=5)
        assert stages.shape == (4, 10)

    def test_staged_predictions_converge_to_final(self):
        x, y = _smooth_data(100)
        model = GradientBoostingRegressor(n_estimators=20, seed=0).fit(x, y)
        stages = model.staged_predict(x[:10], every=1)
        assert np.allclose(stages[-1], model.predict(x[:10]))

    def test_feature_importances(self):
        x, y = _smooth_data()
        model = GradientBoostingRegressor(n_estimators=60, seed=0).fit(x, y)
        importances = model.feature_importances(4)
        assert importances.sum() == pytest.approx(1.0)
        # The two main-effect features dominate the weak interaction pair.
        assert importances[0] + importances[1] > importances[2] + importances[3]
