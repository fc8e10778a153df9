import numpy as np
import pytest
from scipy import sparse, stats

from nglatent.distributions import NoiseSpec
from nglatent.errors import DegenerateSamplesError, InputError
from nglatent.gibbs import gibbs_run
from nglatent.model import assemble_model, simulate
from nglatent.operators import ar1_operator
from nglatent.prediction import (
    PredictiveSamples,
    crps_sample,
    posterior_predict,
    score_report,
    scrps_sample,
)


def gaussian_crps(mu, sig, y):
    """Closed-form CRPS of a Gaussian forecast, negatively oriented."""
    z = (y - mu) / sig
    return sig * (z * (2 * stats.norm.cdf(z) - 1) + 2 * stats.norm.pdf(z) - 1 / np.sqrt(np.pi))


def gaussian_model(n=6, phi=0.6, sigma=1.2, sigma_eps=0.5):
    return assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(phi, n),
        noise_w=NoiseSpec("gaussian", sigma=sigma),
        noise_y=NoiseSpec("gaussian", sigma=sigma_eps),
    )


class TestCrps:
    def test_degenerate_perfect_forecast_is_zero(self):
        assert crps_sample(np.full(50, 1.7), 1.7) == 0.0

    def test_gaussian_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100000)
        est = crps_sample(x, 0.0)
        # batch-split standard error
        batches = [crps_sample(b, 0.0) for b in x.reshape(100, -1)]
        se = np.std(batches, ddof=1) / np.sqrt(100)
        assert abs(est - 0.23369) < 3 * se

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 1.3, size=400)
        assert crps_sample(x + 5.7, 0.3 + 5.7) == pytest.approx(
            crps_sample(x, 0.3), abs=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=300)
        assert crps_sample(x, 0.1) == pytest.approx(
            crps_sample(rng.permutation(x), 0.1), abs=1e-13
        )

    def test_pairwise_term_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=150)
        from nglatent.prediction import _pairwise_mean_abs

        brute = np.abs(x[:, None] - x[None, :])
        k = x.size
        expected = brute.sum() / (k * (k - 1))
        assert _pairwise_mean_abs(x) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(InputError):
            crps_sample(np.array([1.0]), 0.0)

    def test_propriety_smoke(self):
        # the true predictive distribution scores no worse than shifted
        # or inflated alternatives on average
        rng = np.random.default_rng(4)
        xs_true = rng.standard_normal(4000)
        xs_shift = xs_true + 1.0
        xs_wide = 3.0 * rng.standard_normal(4000)
        ys = rng.standard_normal(500)
        s_true = np.mean([crps_sample(xs_true, y) for y in ys])
        s_shift = np.mean([crps_sample(xs_shift, y) for y in ys])
        s_wide = np.mean([crps_sample(xs_wide, y) for y in ys])
        assert s_true < s_shift
        assert s_true < s_wide


class TestScrps:
    def test_scale_change_is_additive_log(self):
        rng = np.random.default_rng(5)
        x = rng.normal(1.0, 2.0, size=2000)
        y = 0.7
        c = 3.5
        base = scrps_sample(x, y)
        scaled = scrps_sample(c * x, c * y)
        assert scaled - base == pytest.approx(0.5 * np.log(c), abs=1e-10)

    def test_reproducible_across_seeds(self):
        vals = []
        for seed in range(8):
            x = np.random.default_rng(seed).standard_normal(100000)
            vals.append(scrps_sample(x, 0.0))
        spread = np.std(vals, ddof=1)
        assert spread < 0.01
        # E|X| / E|X-X'| + 0.5 log E|X-X'|, Gaussian closed forms
        expected = (np.sqrt(2 / np.pi)) / (2 / np.sqrt(np.pi)) + 0.5 * np.log(
            2 / np.sqrt(np.pi)
        )
        assert np.mean(vals) == pytest.approx(expected, abs=3 * spread)

    def test_shares_pairwise_statistic_with_crps(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=500)
        y = 0.4
        from nglatent.prediction import _pairwise_mean_abs

        spread = _pairwise_mean_abs(x)
        crps = crps_sample(x, y)
        scrps = scrps_sample(x, y)
        m1 = np.mean(np.abs(x - y))
        assert crps == pytest.approx(m1 - 0.5 * spread, abs=1e-13)
        assert scrps == pytest.approx(m1 / spread + 0.5 * np.log(spread), abs=1e-13)

    def test_degenerate_error(self):
        with pytest.raises(DegenerateSamplesError):
            scrps_sample(np.full(10, 2.0), 2.0)


class TestScoreReport:
    def test_perfect_degenerate_prediction(self):
        pred = PredictiveSamples(eta_star=np.full((20, 3), 2.0), targets=np.arange(3))
        rep = score_report(pred, np.full(3, 2.0))
        assert rep.mae == 0.0 and rep.mse == 0.0 and rep.crps == 0.0
        assert np.isnan(rep.scrps) and rep.scrps_undefined

    def test_constant_mean_gives_bias_scores(self):
        rng = np.random.default_rng(7)
        d = 0.8
        eta = rng.normal(size=(5000, 4))
        pred = PredictiveSamples(eta_star=eta, targets=np.arange(4))
        y = eta.mean(axis=0) + d
        rep = score_report(pred, y)
        assert rep.mae == pytest.approx(d, abs=1e-12)
        assert rep.mse == pytest.approx(d**2, abs=1e-12)

    def test_gaussian_crps_column(self):
        rng = np.random.default_rng(8)
        eta = rng.standard_normal((100000, 1))
        pred = PredictiveSamples(eta_star=eta, targets=np.arange(1))
        rep = score_report(pred, np.zeros(1))
        batches = [crps_sample(b, 0.0) for b in eta[:, 0].reshape(100, -1)]
        se = np.std(batches, ddof=1) / np.sqrt(100)
        assert abs(rep.crps - 0.23369) < 3 * se

    def test_length_mismatch(self):
        pred = PredictiveSamples(eta_star=np.zeros((5, 3)), targets=np.arange(3))
        with pytest.raises(InputError):
            score_report(pred, np.zeros(4))

    def test_one_sample_rejected(self):
        pred = PredictiveSamples(eta_star=np.zeros((1, 3)), targets=np.arange(3))
        with pytest.raises(InputError):
            score_report(pred, np.zeros(3))

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_the_per_column_scores(self, degenerate):
        # the samples of all targets sorted at once against crps_sample and
        # scrps_sample column by column; a zero-spread column leaves sCRPS
        # undefined and CRPS defined
        rng = np.random.default_rng(12)
        m = 30
        eta = rng.standard_normal((400, m)) * rng.uniform(0.1, 5.0, m) + rng.normal(size=m)
        if degenerate:
            eta[:, 7] = 1.25
        y = rng.normal(size=m)
        rep = score_report(PredictiveSamples(eta_star=eta, targets=np.arange(m)), y)
        crps = np.mean([crps_sample(eta[:, j], y[j]) for j in range(m)])
        assert rep.crps == pytest.approx(crps, rel=1e-13, abs=1e-13)
        assert rep.scrps_undefined == degenerate
        if degenerate:
            assert np.isnan(rep.scrps)
        else:
            scrps = np.mean([scrps_sample(eta[:, j], y[j]) for j in range(m)])
            assert rep.scrps == pytest.approx(scrps, rel=1e-13, abs=1e-13)


class TestPosteriorPredict:
    def test_interpolation_limit_small_noise(self):
        model = gaussian_model(sigma_eps=1e-3)
        rng = np.random.default_rng(9)
        Y, _ = simulate(model, rng=rng)
        pred = posterior_predict(
            model.theta_natural(), model, Y, model.A, model.X, k=200, seed=1
        )
        assert np.abs(pred.mean() - Y).max() < 0.01

    def test_gaussian_kriging_oracle(self):
        model = gaussian_model(n=5)
        rng = np.random.default_rng(10)
        Y, _ = simulate(model, rng=rng)
        K = model.op.K.toarray()
        sig_w = model.noise_w.sigma**2 * np.linalg.inv(K.T @ K)
        gain = sig_w @ np.linalg.inv(sig_w + model.noise_y.sigma**2 * np.eye(5))
        mu_post = gain @ Y
        cov_post = sig_w - gain @ sig_w
        pred = posterior_predict(
            model.theta_natural(), model, Y, sparse.identity(5), np.zeros((5, 0)),
            k=20000, seed=2,
        )
        se_mean = np.sqrt(np.diag(cov_post) / pred.k)
        assert np.all(np.abs(pred.mean() - mu_post) < 3 * se_mean)
        var_emp = pred.eta_star.var(axis=0, ddof=1)
        se_var = np.diag(cov_post) * np.sqrt(2.0 / pred.k)
        assert np.all(np.abs(var_emp - np.diag(cov_post)) < 3 * se_var)

    def test_single_sample_row(self):
        model = gaussian_model()
        Y, _ = simulate(model, rng=np.random.default_rng(11))
        pred = posterior_predict(model.theta_natural(), model, Y, model.A, model.X, k=1)
        assert pred.eta_star.shape == (1, 6)

    def test_identity_targets_reproduce_gibbs_draws(self):
        model = gaussian_model(n=4)
        Y, _ = simulate(model, rng=np.random.default_rng(12))
        pred = posterior_predict(
            model.theta_natural(), model, Y, sparse.identity(4), np.zeros((4, 0)),
            k=7, seed=33, burnin=10,
        )
        draws = gibbs_run(
            np.random.default_rng(33), model, None, Y, iters=17, burnin=10
        )
        W = np.stack([s.W for s in draws.states[:7]])
        assert np.array_equal(pred.eta_star, W)

    def test_dimension_validation(self):
        model = gaussian_model(n=4)
        Y = np.zeros(4)
        with pytest.raises(InputError):
            posterior_predict(model.theta_natural(), model, Y, sparse.identity(5), np.zeros((5, 0)), k=2)
