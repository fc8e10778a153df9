import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from nglatent import distributions

from nglatent.distributions import (
    GigParams,
    NoiseSpec,
    gh_noise_sample,
    gig_logpdf,
    gig_moments,
    gig_sample,
    gig_sample_many,
    mixing_prior,
    noise_kld,
    noise_logpdf,
)
from nglatent.errors import ParameterDomainError, UnsupportedFamilyError


def gig_pdf(x, g):
    return np.exp(gig_logpdf(x, g))


def quad_moment(g, k=0):
    val, _ = integrate.quad(lambda x: x**k * gig_pdf(x, g), 0, np.inf, limit=400)
    return val


def quadrature_cdf(g, xs):
    """Tabulated CDF from trapezoid integration on a dense grid."""
    hi = xs.max() * 1.2
    lo = max(xs.min() * 0.5, 1e-12)
    grid = np.concatenate([[1e-13], np.geomspace(lo, hi, 60000)])
    pdf = gig_pdf(grid, g)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    return np.interp(xs, grid, cdf / cdf[-1])


def ks_distance(draws, g):
    d = np.sort(draws)
    n = d.size
    th = quadrature_cdf(g, d)
    i = np.arange(1, n + 1)
    return max(np.max(np.abs(th - i / n)), np.max(np.abs(th - (i - 1) / n)))


ADMISSIBLE = [
    GigParams(1.0, 2.0, 3.0),
    GigParams(-1.0, 0.4, 5.0),
    GigParams(0.0, 1.0, 1.0),
    GigParams(-0.5, 2.0, 2.0),
    GigParams(2.5, 1.0, 0.5),
    GigParams(3.0, 2.0, 0.0),
    GigParams(-2.5, 0.0, 3.0),
]


class TestGigParams:
    def test_admissible_region(self):
        GigParams(0.0, 1.0, 1.0)
        GigParams(2.0, 1.0, 0.0)
        GigParams(-2.0, 0.0, 1.0)
        with pytest.raises(ParameterDomainError):
            GigParams(0.0, 0.0, 0.0)
        with pytest.raises(ParameterDomainError):
            GigParams(-1.0, 1.0, -0.5)
        with pytest.raises(ParameterDomainError):
            GigParams(0.0, 1.0, 0.0)  # b = 0 needs p > 0
        with pytest.raises(ParameterDomainError):
            GigParams(0.5, 0.0, 1.0)  # a = 0 needs p < 0


class TestGigLogpdf:
    def test_matches_inverse_gaussian(self):
        # GIG(-1/2, a, b) is inverse-Gaussian(mean sqrt(b/a), shape b)
        g = GigParams(-0.5, 2.0, 2.0)
        mu0, lam = 1.0, 2.0
        x = 1.0
        ig = 0.5 * np.log(lam / (2 * np.pi * x**3)) - lam * (x - mu0) ** 2 / (2 * mu0**2 * x)
        assert gig_logpdf(x, g) == pytest.approx(ig, abs=1e-12)

    def test_gamma_limit(self):
        g = GigParams(3.0, 2.0, 0.0)
        for x0 in (0.3, 1.0, 4.2):
            assert gig_logpdf(x0, g) == pytest.approx(
                stats.gamma(a=3.0, scale=1.0).logpdf(x0), abs=1e-12
            )

    def test_inverse_gamma_limit(self):
        g = GigParams(-2.5, 0.0, 3.0)
        for x0 in (0.2, 1.0, 2.5):
            assert gig_logpdf(x0, g) == pytest.approx(
                stats.invgamma(a=2.5, scale=1.5).logpdf(x0), abs=1e-12
            )

    @pytest.mark.parametrize("g", ADMISSIBLE, ids=str)
    def test_normalization(self, g):
        assert quad_moment(g, 0) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ParameterDomainError):
            gig_logpdf(0.0, GigParams(1.0, 2.0, 3.0))


class TestGigMoments:
    def test_half_order_mean_is_h(self):
        nu, h = 0.4, 1.7
        mean, _ = gig_moments(GigParams(-0.5, nu, nu * h**2))
        assert mean == pytest.approx(h, rel=1e-13)

    def test_gamma_mean_is_h(self):
        nu, h = 2.0, 0.6
        mean, _ = gig_moments(GigParams(h * nu, 2 * nu, 0.0))
        assert mean == pytest.approx(h, rel=1e-13)

    @pytest.mark.parametrize("g", ADMISSIBLE[:5], ids=str)
    def test_matches_quadrature(self, g):
        mean, inv_mean = gig_moments(g)
        assert mean == pytest.approx(quad_moment(g, 1), abs=1e-8)
        assert inv_mean == pytest.approx(quad_moment(g, -1), abs=1e-8)

    def test_nonexistent_moments_raise(self):
        with pytest.raises(ParameterDomainError):
            gig_moments(GigParams(0.8, 4.0, 0.0))  # E[1/V] for Gamma shape <= 1
        with pytest.raises(ParameterDomainError):
            gig_moments(GigParams(-0.9, 0.0, 2.0))  # E[V] for inv-Gamma shape <= 1

    def test_large_argument_no_overflow(self):
        mean, inv_mean = gig_moments(GigParams(1.0, 1e8, 1e8))
        assert np.isfinite(mean) and np.isfinite(inv_mean)
        assert mean == pytest.approx(1.0, rel=1e-6)


class TestGigSample:
    def test_inverse_gaussian_mean(self):
        nu, h = 0.4, 2.0
        rng = np.random.default_rng(11)
        d = gig_sample_many(rng, -0.5, nu, nu * h**2, size=(100000,))
        se = d.std() / np.sqrt(d.size)
        assert abs(d.mean() - h) < 3 * se

    def test_gamma_mean(self):
        nu, h = 1.5, 0.8
        rng = np.random.default_rng(12)
        d = gig_sample_many(rng, h * nu, 2 * nu, 0.0, size=(100000,))
        se = d.std() / np.sqrt(d.size)
        assert abs(d.mean() - h) < 3 * se

    def test_ks_against_quadrature_cdf(self):
        rng = np.random.default_rng(13)
        g = GigParams(1.0, 2.0, 3.0)
        d = gig_sample_many(rng, g.p, g.a, g.b, size=(100000,))
        assert ks_distance(d, g) < 0.01

    @pytest.mark.parametrize("g", ADMISSIBLE, ids=str)
    def test_distribution_matches_density(self, g):
        # KS test at alpha = 0.001: critical value 1.949 / sqrt(n)
        rng = np.random.default_rng(hash((g.p, g.a, g.b)) % 2**32)
        d = gig_sample_many(rng, g.p, g.a, g.b, size=(100000,))
        assert ks_distance(d, g) < 1.949 / np.sqrt(100000)

    def test_seed_determinism(self):
        g = GigParams(-1.0, 0.7, 1.3)
        a = gig_sample(np.random.default_rng(5), g, size=(10,))
        b = gig_sample(np.random.default_rng(5), g, size=(10,))
        assert np.array_equal(a, b)

    def test_scalar_draw(self):
        x = gig_sample(np.random.default_rng(0), GigParams(1.0, 2.0, 3.0))
        assert isinstance(x, float) and x > 0


class TestOrderMinusOneSampler:
    """GIG(-1, a, b), the law of every NIG mixing variable given W and Y,
    drawn by rejection from an inverse-Gaussian proposal."""

    @pytest.mark.parametrize(
        "omega, seed", [(1e-3, 31), (0.1, 35), (0.3, 36), (1.0, 32), (30.0, 33), (1e3, 34)]
    )
    def test_distribution_matches_density(self, omega, seed):
        # KS test at alpha = 0.001; sqrt(b/a) = 2 puts the law off unit scale.
        # At omega = 0.1 and 0.3 (the NIG conditionals of a bivariate Matern
        # fit) a quarter to a third of the draws come from the tail rounds
        g = GigParams(-1.0, omega / 2.0, 2.0 * omega)
        d = gig_sample_many(np.random.default_rng(seed), g.p, g.a, g.b, size=(100000,))
        assert ks_distance(d, g) < 1.949 / np.sqrt(100000)

    @pytest.mark.parametrize(
        "g, seed", [(GigParams(-1.0, 1.0, 0.01), 41), (GigParams(-1.0, 2.0, 30.0), 42),
                    (GigParams(-1.0, 5.0, 0.2), 43)], ids=str,
    )
    def test_moments(self, g, seed):
        d = gig_sample_many(np.random.default_rng(seed), g.p, g.a, g.b, size=(100000,))
        mean, inv_mean = gig_moments(g)
        for draws, expected in ((d, mean), (1.0 / d, inv_mean)):
            se = draws.std() / np.sqrt(draws.size)
            assert abs(draws.mean() - expected) < 4 * se

    EXTREMES = [(a, b) for a in (1e-12, 1.0, 1e12) for b in (1e-30, 1.0, 1e30)]

    @pytest.mark.parametrize("a, b", EXTREMES)
    def test_extreme_parameters_give_finite_draws(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = gig_sample_many(np.random.default_rng(51), -1.0, a, b, size=(2000,))
        assert np.all(np.isfinite(d)) and np.all(d > 0)

    def test_extreme_parameters_in_one_call(self):
        a, b = (np.repeat(x, 500) for x in zip(*self.EXTREMES))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = gig_sample_many(np.random.default_rng(52), -1.0, a, b)
        assert d.shape == (4500,)
        assert np.all(np.isfinite(d)) and np.all(d > 0)

    @pytest.mark.parametrize("a, b", [(1e-3, 1e-30), (1.0, 1e-25), (1e-6, 1e-18)])
    def test_below_the_guard_takes_the_devroye_path(self, a, b):
        omega = np.sqrt(a * b)
        assert omega < distributions._WALD_MIN_OMEGA
        d = gig_sample_many(np.random.default_rng(61), -1.0, a, b, size=(300,))
        z = distributions._devroye_gig2(np.random.default_rng(61), 1.0, omega, (300,))
        assert np.array_equal(d, 1.0 / z * np.sqrt(b / a))

    def test_above_the_guard_skips_the_devroye_path(self, monkeypatch):
        def unused(*args):
            raise AssertionError("Devroye's sampler was called")

        monkeypatch.setattr(distributions, "_devroye_gig2", unused)
        omega = np.geomspace(distributions._WALD_MIN_OMEGA, 1e12, 50)
        d = gig_sample_many(np.random.default_rng(62), -1.0, omega, omega)
        assert np.all(np.isfinite(d)) and np.all(d > 0)


class TestLargeBesselArgument:
    """scipy's kve is NaN from an argument of about 5e9 on; the
    large-argument expansion of K_p takes over there."""

    @staticmethod
    def log_kv_reference(p, x):
        # two terms of the expansion; the next is O(x^-2), below 1e-20 here
        return 0.5 * np.log(np.pi / (2.0 * x)) - x + np.log1p((4.0 * p * p - 1.0) / (8.0 * x))

    @pytest.mark.parametrize("p", [-1.5, -1.0, -0.5, 0.0, 0.7, 2.5])
    def test_moments_match_the_expansion(self, p):
        # K_{p+1}(w) / K_p(w) = 1 + (2p + 1) / 2w + O(w^-2)
        omega = 1e12
        mean, inv_mean = gig_moments(GigParams(p, omega, omega))
        ratio = 1.0 + (2.0 * p + 1.0) / (2.0 * omega)
        assert mean == pytest.approx(ratio, rel=1e-15)
        assert inv_mean == pytest.approx(ratio - 2.0 * p / omega, rel=1e-15)

    @pytest.mark.parametrize("p", [-1.5, -0.5, 0.0, 2.5])
    def test_log_density_matches_the_expansion(self, p):
        omega = 1e12
        ref = -np.log(2.0) - self.log_kv_reference(p, omega) - omega
        # the density's exponent cancels omega, so the absolute error is
        # about omega times the rounding unit
        assert gig_logpdf(1.0, GigParams(p, omega, omega)) == pytest.approx(ref, abs=1e-3)

    def test_noise_log_density_at_a_far_outlier(self):
        spec = NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0, h=None)
        x = 1e12
        big_a = 1.0 + 0.25
        big_b = 1.0 + (x + 0.5) ** 2
        omega = np.sqrt(big_a * big_b)
        # K_{-1/2}(1) = sqrt(pi / 2) e^-1 in the normalizer of GIG(-1/2, 1, 1)
        ref = (
            -np.log(2.0) - (0.5 * np.log(np.pi / 2.0) - 1.0)
            - 0.5 * np.log(2.0 * np.pi) + 0.5 * (x + 0.5) + np.log(2.0)
            - 0.5 * (np.log(big_b) - np.log(big_a)) + self.log_kv_reference(-1.0, omega)
        )
        # both sides carry rounding of order omega times the rounding unit
        assert noise_logpdf(spec, x) == pytest.approx(ref, abs=1e-3)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.0, 2.5])
    def test_continuous_with_the_scaled_bessel_at_1e8(self, p):
        omega = 1e8
        ratio = special.kve(p + 1.0, omega) / special.kve(p, omega)
        mean, _ = gig_moments(GigParams(p, omega, omega))
        assert mean == pytest.approx(ratio, rel=1e-14)
        logkv = np.log(special.kve(p, omega)) - omega
        assert distributions._log_kv(p, omega) == pytest.approx(logkv, rel=1e-14)


class TestMixingPrior:
    def test_nig_parameterization(self):
        spec = NoiseSpec("nig", sigma=1.0, mu=0.0, nu=0.4, h=np.array([1.0]))
        g = mixing_prior(spec, 0)
        assert (g.p, g.a, g.b) == (-0.5, 0.4, 0.4)

    def test_gal_parameterization(self):
        spec = NoiseSpec("gal", sigma=1.0, mu=0.0, nu=2.0, h=np.array([0.5]))
        g = mixing_prior(spec, 0)
        assert (g.p, g.a, g.b) == (1.0, 4.0, 0.0)

    @pytest.mark.parametrize("family", ["nig", "gal"])
    def test_mean_equals_h(self, family):
        h = np.array([0.55, 1.0, 3.7])
        spec = NoiseSpec(family, sigma=1.0, mu=0.0, nu=3.0, h=h)
        for i in range(3):
            mean, _ = gig_moments(mixing_prior(spec, i))
            assert mean == pytest.approx(h[i], rel=1e-12)

    def test_small_shape_gal_mean_by_quadrature(self):
        # hn*nu < 1: E[1/V] does not exist but the mean still equals h
        spec = NoiseSpec("gal", sigma=1.0, mu=0.0, nu=0.9, h=np.array([0.25]))
        g = mixing_prior(spec, 0)
        assert quad_moment(g, 1) == pytest.approx(0.25, abs=1e-9)

    def test_gaussian_rejected(self):
        spec = NoiseSpec("gaussian", sigma=1.0, h=np.ones(3))
        with pytest.raises(UnsupportedFamilyError):
            mixing_prior(spec, 0)

    def test_index_bounds(self):
        spec = NoiseSpec("nig", sigma=1.0, nu=1.0, h=np.ones(3))
        with pytest.raises(ParameterDomainError):
            mixing_prior(spec, 3)


class TestGhNoiseSample:
    def test_gaussian_returns_h(self):
        spec = NoiseSpec("gaussian", sigma=1.0, h=np.ones(50))
        eps, v = gh_noise_sample(np.random.default_rng(0), spec)
        assert np.array_equal(v, spec.h)

    def test_gaussian_variance(self):
        h = np.full(200000, 0.7)
        spec = NoiseSpec("gaussian", sigma=1.4, h=h)
        eps, _ = gh_noise_sample(np.random.default_rng(3), spec)
        var = eps.var()
        se = var * np.sqrt(2.0 / eps.size)
        assert abs(var - 1.4**2 * 0.7) < 3 * se

    def test_nig_centered(self):
        spec = NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4, h=np.ones(100000))
        eps, _ = gh_noise_sample(np.random.default_rng(7), spec)
        se = eps.std() / np.sqrt(eps.size)
        assert abs(eps.mean()) < 3 * se

    def test_symmetric_nig_heavy_tails(self):
        # excess kurtosis of symmetric NIG is 3/nu = 7.5 here
        spec = NoiseSpec("nig", sigma=2.0, mu=0.0, nu=0.4, h=np.ones(200000))
        eps, _ = gh_noise_sample(np.random.default_rng(9), spec)
        assert stats.kurtosis(eps, fisher=False) > 3.0

    def test_gal_centered(self):
        spec = NoiseSpec("gal", sigma=1.0, mu=-2.0, nu=1.5, h=np.full(100000, 0.5))
        eps, v = gh_noise_sample(np.random.default_rng(21), spec)
        se = eps.std() / np.sqrt(eps.size)
        assert abs(eps.mean()) < 3 * se
        se_v = v.std() / np.sqrt(v.size)
        assert abs(v.mean() - 0.5) < 3 * se_v


class TestNoiseSpec:
    def test_requires_positive_sigma(self):
        with pytest.raises(ParameterDomainError):
            NoiseSpec("gaussian", sigma=0.0, h=np.ones(2))

    def test_non_gaussian_requires_nu(self):
        with pytest.raises(ParameterDomainError):
            NoiseSpec("nig", sigma=1.0, mu=0.0, nu=None, h=np.ones(2))

    @pytest.mark.parametrize("family", ["gaussian", "nig"])
    def test_mu_must_be_finite(self, family):
        # a Gaussian block's noise is mu (V - h) + sigma sqrt(V) Z at V = h too
        with pytest.raises(ParameterDomainError):
            NoiseSpec(family, sigma=1.0, mu=np.inf, nu=1.0, h=np.ones(2))

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            NoiseSpec("cauchy", sigma=1.0, h=np.ones(2))

    def test_positive_weights(self):
        with pytest.raises(ParameterDomainError):
            NoiseSpec("gaussian", sigma=1.0, h=np.array([1.0, 0.0]))


class TestMarginalNoiseDensity:
    def test_closed_form_matches_mixture_integral(self):
        spec = NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4, h=None)
        g = GigParams(-0.5, 0.4, 0.4)
        for x0 in (-2.0, 0.0, 1.5, 10.0):
            mix, _ = integrate.quad(
                lambda v: gig_pdf(v, g)
                * np.exp(-0.5 * (x0 - 3.0 * (v - 1.0)) ** 2 / (4.0 * v))
                / np.sqrt(2 * np.pi * 4.0 * v),
                0,
                np.inf,
                limit=400,
            )
            assert noise_logpdf(spec, x0) == pytest.approx(np.log(mix), abs=1e-9)

    @pytest.mark.parametrize(
        "spec,h",
        [
            (NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4, h=None), 1.0),
            (NoiseSpec("nig", sigma=1.0, mu=-1.0, nu=2.0, h=None), 0.5),
            (NoiseSpec("gal", sigma=1.5, mu=0.7, nu=1.2, h=None), 1.0),
            (NoiseSpec("gaussian", sigma=0.8, h=None), 2.0),
        ],
    )
    def test_normalization(self, spec, h):
        val, _ = integrate.quad(
            lambda x: np.exp(noise_logpdf(spec, x, h)), -np.inf, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_kld_zero_on_self(self):
        spec = NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4, h=None)
        assert noise_kld(spec, spec) == pytest.approx(0.0, abs=1e-10)

    def test_kld_positive_and_ordered(self):
        true = NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4, h=None)
        close = NoiseSpec("nig", sigma=1.718, mu=3.035, nu=0.362, h=None)
        far = NoiseSpec("nig", sigma=0.4, mu=1.0, nu=2.0, h=None)
        k_close = noise_kld(true, close)
        k_far = noise_kld(true, far)
        assert 0 < k_close < k_far
        assert k_close < 0.05
