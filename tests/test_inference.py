import numpy as np
import pytest
from scipy import optimize, sparse

from nglatent.distributions import NoiseSpec
from nglatent.errors import (
    FactorizationError,
    InputError,
    OptimizationError,
    ParameterDomainError,
)
from nglatent.inference import (
    FitOptions,
    SgldOptions,
    drift_check,
    grad_inner_stat,
    map_fit,
    rhat,
    sgld_sample,
)
from nglatent.model import assemble_model, flat_priors, simulate
from nglatent.mesh import build_interval_mesh
from nglatent.operators import ar1_operator, bivariate_operator, matern_operator
from nglatent.transforms import jacobian_natural, to_natural, to_unconstrained

TAGS = ("log", "log", "stationary-logit")


class TestTransforms:
    def test_log_example(self):
        u = to_unconstrained(np.array([2.0]), ("log",))
        assert u[0] == pytest.approx(np.log(2.0))
        assert to_natural(u, ("log",))[0] == pytest.approx(2.0)

    def test_stationarity_example(self):
        u = to_unconstrained(np.array([0.8]), ("stationary-logit",))
        assert u[0] == pytest.approx(np.log(9.0))
        assert to_natural(u, ("stationary-logit",))[0] == pytest.approx(0.8)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nat = np.array(
                [rng.uniform(0.01, 50), rng.uniform(0.01, 50), rng.uniform(-0.99, 0.99)]
            )
            back = to_natural(to_unconstrained(nat, TAGS), TAGS)
            assert np.abs(back - nat).max() < 1e-13 * max(1, np.abs(nat).max())

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            nat = np.array(
                [rng.uniform(0.1, 5), rng.uniform(0.1, 5), rng.uniform(-0.9, 0.9)]
            )
            u = to_unconstrained(nat, TAGS)
            jac = jacobian_natural(nat, TAGS)
            for i in range(3):
                up, dn = u.copy(), u.copy()
                up[i] += 1e-7
                dn[i] -= 1e-7
                fd = (to_natural(up, TAGS)[i] - to_natural(dn, TAGS)[i]) / 2e-7
                assert jac[i] == pytest.approx(fd, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            to_unconstrained(np.array([-1.0]), ("log",))
        with pytest.raises(ParameterDomainError):
            to_unconstrained(np.array([1.0]), ("stationary-logit",))


class TestRhat:
    def test_identical_chains_exactly_one(self):
        rng = np.random.default_rng(2)
        one = rng.normal(size=(1, 20, 3))
        arr = np.repeat(one, 4, axis=0)
        rr = rhat(arr, window=10)
        assert np.all(rr.values == 1.0)

    def test_degenerate_constant_chains_flagged(self):
        arr = np.full((3, 10, 2), 1.7)
        rr = rhat(arr, window=5)
        assert np.all(rr.values == 1.0)
        assert np.all(rr.degenerate)

    def test_constant_chains_at_different_levels(self):
        arr = np.zeros((2, 10, 1))
        arr[1] = 5.0
        rr = rhat(arr, window=5)
        assert rr.values[0] > 100 or np.isinf(rr.values[0])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        arr = np.cumsum(rng.normal(size=(4, 30, 2)), axis=1) * 0.1
        window = 12
        rr = rhat(arr, window)
        tail = arr[:, -window:, :]
        for j in range(2):
            chains = tail[:, :, j]
            m = chains.shape[1]
            w = np.mean([np.var(c, ddof=1) for c in chains])
            means = [np.mean(c) for c in chains]
            b = m * np.var(means, ddof=1)
            expected = np.sqrt((w + b / m) / w)
            assert abs(rr.values[j] - expected) < 1e-12

    def test_needs_two_chains(self):
        with pytest.raises(InputError):
            rhat(np.zeros((1, 10, 2)), window=5)


class TestDriftCheck:
    def test_constant_trace_passes(self):
        arr = np.full((2, 8, 2), 3.3)
        rep = drift_check(arr, window=8)
        assert np.all(rep.slope == 0)
        assert np.all(rep.rel_var == 0)
        assert rep.all_passed

    def test_linear_ramp_recovers_slope(self):
        iters = np.arange(10, dtype=float)
        ramp = 0.37 * iters
        arr = np.tile(ramp[None, :, None], (3, 1, 1))
        rep = drift_check(arr, window=10)
        assert rep.slope[0] == pytest.approx(0.37, rel=1e-12)
        assert not rep.passed[0]

    def test_noisy_flat_trace_passes(self):
        rng = np.random.default_rng(4)
        arr = 2.0 + 0.002 * rng.normal(size=(4, 10, 1))
        rep = drift_check(arr, window=10)
        assert rep.all_passed

    def test_needs_three_checkpoints(self):
        with pytest.raises(InputError):
            drift_check(np.zeros((2, 2, 1)), window=2)


class TestGradInnerStat:
    def test_repeated_gradient(self):
        g = np.array([1.0, -2.0, 0.5])
        hist = np.tile(g, (7, 1))
        assert grad_inner_stat(hist) == pytest.approx(6 * g @ g)

    def test_alternating_gradient(self):
        g = np.array([1.0, -2.0, 0.5])
        hist = np.array([g * (-1) ** t for t in range(7)])
        assert grad_inner_stat(hist) == pytest.approx(-6 * g @ g)

    def test_white_noise_grows_like_sqrt_t(self):
        rng = np.random.default_rng(5)
        d = 4

        def rms(T, reps=300):
            vals = [
                grad_inner_stat(rng.normal(size=(T, d))) for _ in range(reps)
            ]
            return np.sqrt(np.mean(np.square(vals)))

        ratio = rms(400) / rms(100)
        assert 1.6 < ratio < 2.5  # sqrt(399/99) ~ 2


def dense_gaussian_ar1_optimum(Y, n):
    """Dense marginal-likelihood optimizer oracle for (sigma_eps, sigma, phi)."""
    tags = ("log", "log", "stationary-logit")

    def neg_marginal(u):
        sig_eps, sig, phi = to_natural(u, tags)
        K = ar1_operator(phi, n).K.toarray()
        S = sig**2 * np.linalg.inv(K.T @ K) + sig_eps**2 * np.eye(n)
        _, logdet = np.linalg.slogdet(S)
        return 0.5 * (logdet + Y @ np.linalg.solve(S, Y) + n * np.log(2 * np.pi))

    res = optimize.minimize(
        neg_marginal,
        to_unconstrained(np.array([1.0, 1.5, 0.5]), tags),
        method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-12, maxiter=5000),
    )
    return to_natural(res.x, tags)


class TestMapFit:
    def test_gaussian_matches_dense_optimizer(self):
        n = 50
        gen = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.9, n),
            noise_w=NoiseSpec("gaussian", sigma=2.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(gen, rng=np.random.default_rng(9))
        fit_model = assemble_model(
            A=gen.A,
            X=gen.X,
            op=ar1_operator(0.3, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
            priors=flat_priors(("sigma_eps", "sigma", "phi")),
        )
        oracle = dense_gaussian_ar1_optimum(Y, n)
        fit = map_fit(
            fit_model,
            Y,
            FitOptions(
                chains=3,
                max_iters=900,
                min_iters=200,
                k=1,
                step0=0.05,
                decay_start=300,
                seed=1,
                jitter=0.3,
            ),
        )
        rel = np.abs(fit.theta_map - oracle) / np.abs(oracle)
        assert np.all(rel < 0.05)
        assert fit.converged

    def test_zero_iterations_returns_initialization(self):
        n = 10
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.4, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        theta0 = np.array([0.9, 1.1, 0.2])
        fit = map_fit(model, np.zeros(n), FitOptions(max_iters=0, theta0=theta0))
        assert np.array_equal(fit.theta_map, theta0)
        assert fit.n_iters == 0 and not fit.converged

    def test_divergence_raises_with_traces(self):
        n = 12
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.4, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(6))
        with pytest.raises(OptimizationError) as ei:
            map_fit(model, Y, FitOptions(chains=1, max_iters=50, step0=1e8, seed=0))
        assert ei.value.traces is not None

    def test_fixed_parameters_stay_fixed(self):
        n = 30
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.5, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(7))
        theta0 = np.array([1.3, 0.9, 0.5])
        fit = map_fit(
            model,
            Y,
            FitOptions(
                chains=2,
                max_iters=60,
                min_iters=60,
                k=1,
                theta0=theta0,
                fixed=("sigma_eps", "phi"),
                seed=2,
            ),
        )
        assert fit.theta_map[0] == pytest.approx(1.3)
        assert fit.theta_map[2] == pytest.approx(0.5)
        assert fit.theta_map[1] != pytest.approx(0.9)

    def test_trace_shapes(self):
        n = 10
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.4, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(8))
        fit = map_fit(model, Y, FitOptions(chains=3, max_iters=40, min_iters=40, k=1, seed=3))
        assert len(fit.traces) == 4
        assert fit.traces[0].theta.shape == (3, 3)
        assert fit.traces[0].grad.shape == (3, 3)
        assert fit.traces[-1].iteration == 40

    def test_bivariate_fit_starting_near_zeta_zero(self):
        # chain jitter takes zeta below 0; D(zeta, rho) is 2pi-periodic, so
        # the rebuild wraps it instead of leaving the operator's domain
        mesh = build_interval_mesh(np.linspace(0.0, 10.0, 20))
        op = bivariate_operator(
            matern_operator(1.0, mesh), matern_operator(1.5, mesh), zeta=0.1, rho=0.3
        )
        model = assemble_model(
            A=sparse.identity(op.dim, format="csr"),
            X=np.zeros((op.dim, 0)),
            op=op,
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=0.5),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(4))
        fit = map_fit(
            model, Y, FitOptions(chains=2, max_iters=5, min_iters=5, k=1, jitter=0.3, seed=1)
        )
        assert fit.n_iters == 5
        assert np.all(np.isfinite(fit.theta_map))

    @pytest.mark.parametrize("error", [ParameterDomainError, FactorizationError])
    def test_chain_start_failure_is_an_optimization_error(self, monkeypatch, error):
        import nglatent.inference as inference

        def fail(*args, **kwargs):
            raise error("bad start")

        monkeypatch.setattr(inference, "GibbsChain", fail)
        model = conjugate_toy()
        with pytest.raises(OptimizationError, match="bad start"):
            map_fit(model, np.zeros(model.m), FitOptions(chains=1, max_iters=3))


def conjugate_toy(n=4, sigma=1.0, sigma_eps=0.5):
    """All-Gaussian model with only the intercept free: the marginal
    posterior of beta is exactly Gaussian."""
    X = np.ones((n, 1))
    model = assemble_model(
        A=sparse.identity(n, format="csr"),
        X=X,
        op=ar1_operator(0.5, n),
        noise_w=NoiseSpec("gaussian", sigma=sigma),
        noise_y=NoiseSpec("gaussian", sigma=sigma_eps),
    )
    return model


def conjugate_posterior(model, Y):
    K = model.op.K.toarray()
    cov_y = model.noise_w.sigma**2 * np.linalg.inv(K.T @ K) + model.noise_y.sigma**2 * np.eye(model.m)
    X = model.X
    prec = X.T @ np.linalg.solve(cov_y, X) + 1.0 / 10.0
    mean = np.linalg.solve(prec, X.T @ np.linalg.solve(cov_y, Y))
    return float(mean[0]), float(1.0 / prec[0, 0])


class TestSgld:
    def test_zero_step_gives_constant_chain(self):
        model = conjugate_toy()
        Y = np.array([1.0, 2.0, 0.5, 1.5])
        theta0 = np.array([2.0, 0.5, 1.0, 0.5])
        samples = sgld_sample(model, Y, theta0, SgldOptions(n_samples=20, step0=0.0, seed=0))
        assert np.all(samples == samples[0])

    def test_injected_noise_variance(self, monkeypatch):
        # with the gradient stubbed to zero, increments are N(0, 2 gamma)
        from nglatent import inference as inf

        monkeypatch.setattr(
            inf._ChainWorker, "gradient", lambda self: np.zeros(self.u.size)
        )
        model = conjugate_toy()
        Y = np.zeros(4)
        gamma = 0.01
        opts = SgldOptions(n_samples=4000, step0=gamma, tau=1e12, seed=1)
        samples = sgld_sample(model, Y, np.array([2.0, 0.5, 1.0, 0.5]), opts)
        u = np.log(samples[:, 1])  # log sigma_eps coordinate... see ordering below
        # parameter order: beta[0], sigma_eps, sigma, phi; beta has identity
        inc = np.diff(samples[:, 0])
        var = inc.var()
        se = var * np.sqrt(2.0 / inc.size)
        assert abs(var - 2 * gamma) < 3 * se

    @pytest.mark.slow
    def test_conjugate_gaussian_calibration(self):
        model = conjugate_toy()
        rng = np.random.default_rng(11)
        gen = assemble_model(
            A=model.A, X=model.X, op=model.op,
            noise_w=model.noise_w, noise_y=model.noise_y,
            beta=np.array([2.0]),
        )
        Y, _ = simulate(gen, rng=rng)
        m_star, v_star = conjugate_posterior(model, Y)
        theta0 = np.array([m_star, 0.5, 1.0, 0.5])
        gamma = 0.04 * v_star
        opts = SgldOptions(
            n_samples=4000,
            step0=gamma,
            tau=1e12,
            k=1,
            seed=12,
            thin=10,
            fixed=("sigma_eps", "sigma", "phi"),
        )
        samples = sgld_sample(model, Y, theta0, opts)
        beta = samples[:, 0]
        assert abs(beta.mean() - m_star) < 0.05 * max(abs(m_star), np.sqrt(v_star))
        # constant-step SGLD with an exact gradient is ULA on N(m*, v*),
        # whose stationary variance is v* / (1 - gamma / (2 v*))
        v_ula = v_star / (1.0 - gamma / (2.0 * v_star))
        assert abs(beta.var() - v_ula) < 0.10 * v_ula
