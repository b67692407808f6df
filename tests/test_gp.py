"""Tests for the Gaussian-process substrate (repro.gp)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategies import STANDARD_SETTINGS

from repro.gp import (
    ContextualGP,
    GaussianProcess,
    LinearKernel,
    Matern52Kernel,
    RBFKernel,
    SumKernel,
    additive_contextual_kernel,
    expected_improvement,
    lower_confidence_bound,
    probability_of_feasibility,
    product_contextual_kernel,
    upper_confidence_bound,
)
from repro.gp.kernels import ColumnSliceKernel, ProductKernel


def _random_inputs(rng, n=12, d=3):
    return rng.random((n, d))


class TestKernels:
    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(),
                                        LinearKernel()])
    def test_symmetry(self, kernel, rng):
        X = _random_inputs(rng)
        K = kernel(X, X)
        assert np.allclose(K, K.T, atol=1e-10)

    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel()])
    def test_psd(self, kernel, rng):
        X = _random_inputs(rng, n=20)
        K = kernel(X, X)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-8

    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel()])
    def test_diag_matches_full(self, kernel, rng):
        X = _random_inputs(rng)
        assert np.allclose(kernel.diag(X), np.diag(kernel(X, X)))

    def test_stationary_kernel_self_similarity(self, rng):
        kernel = Matern52Kernel(variance=2.5)
        X = _random_inputs(rng)
        assert np.allclose(np.diag(kernel(X, X)), 2.5)

    def test_theta_roundtrip(self):
        kernel = Matern52Kernel(lengthscale=0.7, variance=1.3)
        theta = kernel.theta
        kernel.theta = theta
        assert kernel.lengthscale == pytest.approx(0.7)
        assert kernel.variance == pytest.approx(1.3)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_gradients_match_finite_difference(self, kernel_cls, rng):
        kernel = kernel_cls(lengthscale=0.6, variance=1.2)
        X = _random_inputs(rng, n=6)
        grads = kernel.gradients(X)
        theta0 = kernel.theta.copy()
        eps = 1e-6
        for i, grad in enumerate(grads):
            theta_hi = theta0.copy()
            theta_hi[i] += eps
            kernel.theta = theta_hi
            K_hi = kernel(X, X)
            theta_lo = theta0.copy()
            theta_lo[i] -= eps
            kernel.theta = theta_lo
            K_lo = kernel(X, X)
            kernel.theta = theta0
            fd = (K_hi - K_lo) / (2 * eps)
            assert np.allclose(grad, fd, atol=1e-4), f"param {i}"

    def test_sum_kernel_adds(self, rng):
        X = _random_inputs(rng)
        a, b = RBFKernel(), LinearKernel()
        assert np.allclose(SumKernel([a, b])(X, X), a(X, X) + b(X, X))

    def test_product_kernel_multiplies(self, rng):
        X = _random_inputs(rng)
        a, b = RBFKernel(), RBFKernel(lengthscale=1.5)
        assert np.allclose(ProductKernel(a, b)(X, X), a(X, X) * b(X, X))

    def test_column_slice_ignores_other_columns(self, rng):
        X = _random_inputs(rng, d=5)
        inner = Matern52Kernel()
        sliced = ColumnSliceKernel(inner, slice(0, 2))
        Y = X.copy()
        Y[:, 2:] = rng.random(Y[:, 2:].shape)  # perturb ignored columns
        assert np.allclose(sliced(X, X), sliced(Y, Y))

    def test_additive_contextual_kernel_structure(self, rng):
        kernel = additive_contextual_kernel(3, 2)
        X = _random_inputs(rng, d=5)
        configs_only = X.copy()
        configs_only[:, 3:] = 0.0
        contexts_only = X.copy()
        contexts_only[:, :3] = 0.0
        full = kernel(X, X)
        # additive: changing context leaves the config part unchanged
        m = Matern52Kernel()
        assert np.allclose(full, m(X[:, :3], X[:, :3])
                           + LinearKernel()(X[:, 3:], X[:, 3:]))

    def test_product_contextual_kernel_runs(self, rng):
        kernel = product_contextual_kernel(3, 2)
        X = _random_inputs(rng, d=5)
        K = kernel(X, X)
        assert K.shape == (12, 12)

    def test_sum_kernel_theta_concatenation(self):
        kernel = SumKernel([Matern52Kernel(), LinearKernel()])
        assert len(kernel.theta) == 3
        new = kernel.theta + 0.1
        kernel.theta = new
        assert np.allclose(kernel.theta, new)


class TestGaussianProcess:
    def test_interpolates_noise_free(self, rng):
        X = rng.random((15, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        gp = GaussianProcess(noise=1e-6, optimize_noise=False)
        gp.fit(X, y, optimize=True)
        mean, _ = gp.predict(X)
        assert np.allclose(mean, y, atol=0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        X = rng.random((10, 2)) * 0.3
        y = X[:, 0]
        gp = GaussianProcess().fit(X, y)
        _, std_near = gp.predict(X[:1])
        _, std_far = gp.predict(np.array([[0.95, 0.95]]))
        assert std_far[0] > std_near[0]

    def test_predictions_in_original_units(self, rng):
        X = rng.random((12, 2))
        y = 1000.0 + 50.0 * X[:, 0]
        gp = GaussianProcess().fit(X, y)
        mean, _ = gp.predict(X)
        assert 950 < mean.mean() < 1100

    def test_zero_observations_raises(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.empty((0, 2)), np.empty(0))

    def test_mismatched_shapes_raise(self, rng):
        with pytest.raises(ValueError):
            GaussianProcess().fit(rng.random((5, 2)), rng.random(4))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_log_marginal_likelihood_finite(self, rng):
        X = rng.random((10, 2))
        gp = GaussianProcess().fit(X, rng.random(10))
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_noise_bounded_during_optimization(self, rng):
        X = rng.random((20, 3))
        y = rng.random(20)  # pure noise
        gp = GaussianProcess().fit(X, y, optimize=True)
        assert gp.noise <= 0.5 + 1e-9

    def test_lengthscale_floor_respected(self, rng):
        X = rng.random((20, 3)) * 0.01  # pathological blob
        y = rng.random(20)
        gp = GaussianProcess(kernel=Matern52Kernel()).fit(X, y, optimize=True)
        assert gp.kernel.lengthscale >= 0.3 - 1e-9

    def test_posterior_samples_shape(self, rng):
        X = rng.random((8, 2))
        gp = GaussianProcess().fit(X, rng.random(8))
        samples = gp.sample_posterior(rng.random((5, 2)), n_samples=3)
        assert samples.shape == (3, 5)

    def test_more_data_reduces_uncertainty(self, rng):
        f = lambda X: np.sin(4 * X[:, 0])
        X_small = rng.random((5, 1))
        X_big = np.vstack([X_small, rng.random((20, 1))])
        probe = np.array([[0.5]])
        gp_small = GaussianProcess().fit(X_small, f(X_small))
        gp_big = GaussianProcess().fit(X_big, f(X_big))
        assert gp_big.predict(probe)[1][0] <= gp_small.predict(probe)[1][0] + 1e-6


class TestContextualGP:
    def test_fit_predict_shapes(self, rng):
        model = ContextualGP(config_dim=3, context_dim=2)
        model.fit(rng.random((20, 3)), rng.random((20, 2)), rng.random(20))
        mean, std = model.predict(rng.random((7, 3)), rng.random(2))
        assert mean.shape == (7,) and std.shape == (7,)

    def test_context_broadcast(self, rng):
        model = ContextualGP(2, 1)
        model.fit(rng.random((10, 2)), rng.random((10, 1)), rng.random(10))
        mean, _ = model.predict(rng.random((5, 2)), np.array([0.3]))
        assert mean.shape == (5,)

    def test_dimension_validation(self, rng):
        model = ContextualGP(2, 1)
        with pytest.raises(ValueError):
            model.fit(rng.random((10, 3)), rng.random((10, 1)), rng.random(10))
        with pytest.raises(ValueError):
            model.fit(rng.random((10, 2)), rng.random((10, 4)), rng.random(10))

    def test_confidence_bounds_ordering(self, rng):
        model = ContextualGP(2, 1, beta=2.0)
        model.fit(rng.random((15, 2)), rng.random((15, 1)), rng.random(15))
        mean, lower, upper = model.confidence_bounds(rng.random((6, 2)),
                                                     np.array([0.5]))
        assert np.all(lower <= mean) and np.all(mean <= upper)

    def test_knowledge_transfer_between_contexts(self, rng):
        """The Figure 3 scenario: correlated contexts share knowledge."""
        configs = rng.random((25, 1))
        contexts = np.zeros((25, 1))
        y = np.sin(3 * configs[:, 0])
        model = ContextualGP(1, 1)
        model.fit(configs, contexts, y)
        probe = np.array([[0.5]])
        _, std_near_ctx = model.predict(probe, np.array([0.05]))
        _, std_far_ctx = model.predict(probe, np.array([5.0]))
        assert std_near_ctx[0] < std_far_ctx[0]

    def test_lcb_ucb_helpers(self, rng):
        model = ContextualGP(2, 1)
        model.fit(rng.random((10, 2)), rng.random((10, 1)), rng.random(10))
        cands = rng.random((4, 2))
        ctx = np.array([0.2])
        assert np.all(model.lcb(cands, ctx) <= model.ucb(cands, ctx))


class TestAcquisitions:
    def test_ei_nonnegative(self, rng):
        mean, std = rng.normal(size=50), rng.random(50) + 0.01
        assert np.all(expected_improvement(mean, std, best=0.0) >= 0)

    def test_ei_zero_when_certain_and_worse(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-12]), best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_ei_increases_with_mean(self):
        std = np.array([0.5, 0.5])
        ei = expected_improvement(np.array([0.0, 1.0]), std, best=0.5)
        assert ei[1] > ei[0]

    def test_ucb_lcb_bracket_mean(self, rng):
        mean, std = rng.normal(size=20), rng.random(20)
        assert np.all(upper_confidence_bound(mean, std) >= mean)
        assert np.all(lower_confidence_bound(mean, std) <= mean)

    def test_pof_bounds_and_monotonicity(self):
        mean = np.array([-1.0, 0.0, 1.0])
        std = np.ones(3)
        pof = probability_of_feasibility(mean, std, threshold=0.0)
        assert np.all((0 <= pof) & (pof <= 1))
        assert pof[0] < pof[1] < pof[2]

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.01, max_value=2.0))
    @STANDARD_SETTINGS
    def test_pof_half_at_threshold(self, mu, sigma):
        pof = probability_of_feasibility(np.array([mu]), np.array([sigma]),
                                         threshold=mu)
        assert pof[0] == pytest.approx(0.5, abs=1e-9)


class TestAcquisitionExactness:
    """EI and PoF evaluate the standard normal without ``scipy.stats``;
    they must stay bit-identical to the ``scipy.stats.norm`` formulas
    (``scipy.stats`` is imported here only, never by the package)."""

    @staticmethod
    def _cases(rng):
        n = 200
        random = (rng.normal(scale=3.0, size=n), rng.random(n) * 2.0)
        floored = (rng.normal(size=n),                       # std floor
                   np.concatenate([np.zeros(n // 2),
                                   rng.random(n - n // 2) * 1e-13]))
        wide_z = (np.linspace(-40.0, 40.0, n), np.ones(n))    # |z| up to 40
        huge = (np.array([1e300, -1e300, 1e300, -1e300, 0.0]),
                np.array([1.0, 1.0, 1e-12, 0.0, 1e-300]))
        return [random, floored, wide_z, huge]

    def test_expected_improvement_matches_scipy_norm(self, rng):
        norm = pytest.importorskip("scipy.stats").norm
        for mean, std in self._cases(rng):
            for best, xi in ((0.0, 0.0), (0.7, 0.01), (-2.5, 0.0)):
                floored = np.maximum(std, 1e-12)
                with np.errstate(over="ignore"):
                    z = (mean - best - xi) / floored
                    want = ((mean - best - xi) * norm.cdf(z)
                            + floored * norm.pdf(z))
                    got = expected_improvement(mean, std, best=best, xi=xi)
                assert np.array_equal(got, want)

    def test_probability_of_feasibility_matches_scipy_norm(self, rng):
        norm = pytest.importorskip("scipy.stats").norm
        for mean, std in self._cases(rng):
            for threshold in (0.0, 1.3, -4.0):
                floored = np.maximum(std, 1e-12)
                with np.errstate(over="ignore"):
                    want = 1.0 - norm.cdf((threshold - mean) / floored)
                    got = probability_of_feasibility(mean, std, threshold)
                assert np.array_equal(got, want)


class TestWarmStartHyperopt:
    """Large doubling-schedule refits warm-start L-BFGS from the last
    optimum with a bounded budget; small refits keep the full search."""

    def _data(self, rng, n=192, d=3):
        X = rng.random((n, d))
        y = np.sin(3.0 * X[:, 0]) + 0.5 * X[:, 1] + 0.05 * rng.normal(size=n)
        return X, y

    def test_first_fit_is_cold_then_warm(self, rng):
        X, y = self._data(rng)
        gp = GaussianProcess(kernel=Matern52Kernel(), warm_start_refits=True)
        gp.fit(X[:96], y[:96], optimize=True)
        assert gp.hyperopt_count == 1 and not gp.last_opt_warm
        gp.fit(X, y, optimize=True)             # the 2x refit
        assert gp.hyperopt_count == 2 and gp.last_opt_warm
        # warm refits are iteration-bounded (the satellite's point)
        assert gp.last_opt_nit <= 25

    def test_small_refits_keep_full_budget(self, rng):
        # below the size gate each likelihood evaluation is cheap and
        # hyperparameters still move a lot: no bounded budget
        X, y = self._data(rng, n=48)
        gp = GaussianProcess(kernel=Matern52Kernel(), warm_start_refits=True)
        gp.fit(X[:24], y[:24], optimize=True)
        gp.fit(X, y, optimize=True)
        assert not gp.last_opt_warm

    def test_bounded_warm_refit_matches_unbounded(self, rng):
        # bounding the warm refit's iterations must not degrade the
        # optimum the unbounded (pre-warm-start) refit reaches from the
        # same x0 — the previous optimum, which fit() keeps in the kernel
        X, y = self._data(rng)
        warm = GaussianProcess(kernel=Matern52Kernel(), warm_start_refits=True)
        warm.fit(X[:96], y[:96], optimize=True)
        warm.fit(X, y, optimize=True)
        legacy = GaussianProcess(kernel=Matern52Kernel())
        legacy.fit(X[:96], y[:96], optimize=True)
        legacy.hyperopt_count = 0       # force the old cold-budget path
        legacy.fit(X, y, optimize=True)
        lml_warm = warm.log_marginal_likelihood()
        lml_legacy = legacy.log_marginal_likelihood()
        assert lml_warm >= lml_legacy - 0.01 * abs(lml_legacy) - 0.1
        assert warm.last_opt_nit <= legacy.last_opt_nit + 1

    def test_optimum_survives_pickle(self, rng):
        import pickle
        X, y = self._data(rng, n=96)
        gp = GaussianProcess(kernel=Matern52Kernel(), warm_start_refits=True)
        gp.fit(X, y, optimize=True)
        clone = pickle.loads(pickle.dumps(gp))
        clone.fit(X, y, optimize=True)
        assert clone.last_opt_warm

    def test_baseline_gps_keep_full_budget_by_default(self, rng):
        # warm bounding is opt-in: a default GP (as the BO/ResTune
        # baselines build) never switches to the short search
        X, y = self._data(rng)
        gp = GaussianProcess(kernel=Matern52Kernel())
        gp.fit(X[:96], y[:96], optimize=True)
        gp.fit(X, y, optimize=True)
        assert not gp.last_opt_warm
