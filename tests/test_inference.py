import warnings

import numpy as np
import pytest
from scipy import optimize, sparse

from nglatent.distributions import NoiseSpec
from nglatent.errors import (
    FactorizationError,
    InputError,
    NumericalError,
    OptimizationError,
    ParameterDomainError,
    SamplingError,
)
from nglatent.gibbs import V_FLOOR, GibbsChain
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
from nglatent.operators import (
    ar1_operator,
    bivariate_operator,
    matern_operator,
    tensor_operator,
)
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

    def test_overflow_names_the_parameter(self):
        # exp overflows without a RuntimeWarning and raises instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError, match="parameter 1"):
                to_natural(np.array([0.0, 800.0, 0.0]), TAGS)


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

    def test_one_gradient_row_leaves_the_gradient_check_unavailable(self):
        # a fit that stops after one iteration has one gradient row per
        # chain and so no lag-one correlation: it returns unconverged
        n = 10
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.4, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(8))
        fit = map_fit(
            model, Y, FitOptions(chains=2, max_iters=1, min_iters=0, checkpoint_every=1, k=1)
        )
        assert fit.n_iters == 1 and not fit.converged
        assert fit.diagnostics["checks"]["grad"] is False
        assert fit.diagnostics["grad_corr"].size == 0
        assert fit.diagnostics["grad_rms"].shape == (2,)

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

    @pytest.mark.parametrize(
        "make_op, max_bandwidth",
        [
            pytest.param(lambda: large_bivariate(2100), 8, id="bivariate-d2100"),
            pytest.param(lambda: large_bivariate(5000), 8, id="bivariate-d5000"),
            pytest.param(
                lambda: tensor_operator(
                    ar1_operator(0.5, 1000),
                    matern_operator(1.0, build_interval_mesh(np.linspace(0.0, 10.0, 10))),
                ),
                12,
                id="tensor-ar1x1000-matern10",
            ),
        ],
    )
    def test_large_fit(self, make_op, max_bandwidth):
        # n = 4200 to 10^4: each operator's own log-det gradient and the
        # banded path keep a few RB iterations cheap at these sizes
        op = make_op()
        model = assemble_model(
            A=sparse.identity(op.dim, format="csr"),
            X=np.zeros((op.dim, 0)),
            op=op,
            noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
            noise_y=NoiseSpec("gaussian", sigma=0.2),
        )
        assert model.plan.bandwidth <= max_bandwidth
        Y, _ = simulate(model, rng=np.random.default_rng(5))
        fit = map_fit(model, Y, FitOptions(chains=2, max_iters=3, min_iters=3, k=1, seed=1))
        assert fit.n_iters == 3
        assert all(np.all(np.isfinite(t.theta)) for t in fit.traces)
        assert np.all(np.isfinite(fit.theta_map))

    def test_failure_inside_a_step_is_an_optimization_error(self):
        # at kappa = 1e-8 the Matern K = kappa^2 C + G is numerically
        # singular, so the first gradient's Cholesky of K fails
        mesh = build_interval_mesh(np.linspace(0.0, 10.0, 20))
        model = assemble_model(
            A=sparse.identity(20, format="csr"),
            X=np.zeros((20, 0)),
            op=matern_operator(1e-8, mesh),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=0.5),
        )
        Y = np.random.default_rng(4).standard_normal(20)
        with pytest.raises(OptimizationError) as ei:
            map_fit(model, Y, FitOptions(chains=1, max_iters=5, min_iters=5, jitter=0.0, seed=1))
        assert isinstance(ei.value.__cause__, FactorizationError)
        assert ei.value.traces is not None

    @pytest.mark.parametrize("start", ["phi=0.999999", "phi=-0.999999", "nu=1e-8", "V=V_FLOOR"])
    def test_edge_start_ends_in_a_result_or_a_fit_error(self, monkeypatch, start):
        # a short fit with SGLD draws from the edge of the parameter space,
        # or with every chain's mixing variables at the floor of the GIG draw
        import nglatent.inference as inference

        name, value = start.split("=")
        if name == "V":
            class FlooredChain(GibbsChain):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    self.v_w[:] = V_FLOOR
                    self.v_y[:] = V_FLOOR

            monkeypatch.setattr(inference, "GibbsChain", FlooredChain)
        n = 60
        truth = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.8, n),
            noise_w=NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(truth, rng=np.random.default_rng(2))
        params = {"phi": 0.3, "nu": 1.0}
        if name in params:
            params[name] = float(value)
        model = assemble_model(
            A=truth.A,
            X=truth.X,
            op=ar1_operator(params["phi"], n),
            noise_w=NoiseSpec("nig", sigma=1.0, mu=0.0, nu=params["nu"]),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        opts = FitOptions(chains=2, max_iters=10, min_iters=10, k=2, seed=1,
                          theta0=model.theta_natural(), sgld_samples=10)
        try:
            fit = map_fit(model, Y, opts)
        except (OptimizationError, SamplingError):
            return
        assert fit.n_iters == 10
        assert np.all(np.isfinite(fit.theta_map))
        assert fit.posterior.shape == (10, model.n_params)
        assert np.all(np.isfinite(fit.posterior))

    def test_monte_carlo_estimator_fit(self):
        # the plain augmented gradient at the drawn W, in place of the
        # Rao-Blackwellized default, through a short fit with SGLD draws
        n = 40
        truth = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.8, n),
            noise_w=NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        Y, _ = simulate(truth, rng=np.random.default_rng(5))
        model = assemble_model(
            A=truth.A,
            X=truth.X,
            op=ar1_operator(0.3, n),
            noise_w=NoiseSpec("nig", sigma=1.0, mu=0.0, nu=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        opts = dict(chains=2, max_iters=20, min_iters=20, k=2, seed=4, sgld_samples=6)
        fit = map_fit(model, Y, FitOptions(estimator="mc", **opts))
        assert fit.n_iters == 20
        assert np.all(np.isfinite(fit.theta_map))
        assert fit.posterior.shape == (6, model.n_params)
        assert np.all(np.isfinite(fit.posterior))
        rb = map_fit(model, Y, FitOptions(estimator="rb", **opts))
        assert not np.array_equal(fit.theta_map, rb.theta_map)

    @pytest.mark.parametrize("estimator", ["RB", "bogus", ""])
    def test_unknown_estimator_rejected(self, estimator):
        model = conjugate_toy()
        Y = np.zeros(model.m)
        with pytest.raises(InputError, match="estimator"):
            map_fit(model, Y, FitOptions(chains=1, max_iters=3, estimator=estimator))
        with pytest.raises(InputError, match="estimator"):
            sgld_sample(model, Y, model.theta_natural(), SgldOptions(n_samples=2, estimator=estimator))

    @pytest.mark.parametrize(
        "options, field, value",
        [
            (FitOptions, "chains", 0),
            (FitOptions, "checkpoint_every", 0),
            (FitOptions, "sgld_thin", 0),
            (FitOptions, "max_iters", -1),
            (FitOptions, "k", 0),
            (FitOptions, "estimator", "bogus"),
            (FitOptions, "fixed", ("nope",)),
            (SgldOptions, "thin", 0),
            (SgldOptions, "k", 0),
            (SgldOptions, "fixed", ("nope",)),
            (FitOptions, "window", 2),
            (FitOptions, "sgld_samples", -1),
            (SgldOptions, "n_samples", -1),
            # a MAP step that is not finite and positive, an SGLD decay
            # scale that is not positive, or an SGLD step that is negative
            # or not finite, ascends, stalls, divides by zero or leaves the
            # reals (a zero SGLD step is the constant chain of TestSgld, an
            # infinite decay scale a constant step)
            (FitOptions, "step0", -0.1),
            (FitOptions, "step0", 0.0),
            (FitOptions, "step0", np.nan),
            (FitOptions, "sgld_step0", np.inf),
            (FitOptions, "sgld_step0", -2e-4),
            (FitOptions, "sgld_tau", 0.0),
            (FitOptions, "decay_start", 0),
            (FitOptions, "decay_start", -5),
            (SgldOptions, "step0", -2e-4),
            (SgldOptions, "step0", np.nan),
            (SgldOptions, "tau", 0.0),
            (SgldOptions, "tau", np.nan),
        ],
    )
    def test_option_values_that_cannot_run(self, monkeypatch, options, field, value):
        # rejected before any work: no chain is built, also at max_iters = 0
        import nglatent.inference as inference

        def unbuilt(*args, **kwargs):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(inference, "GibbsChain", unbuilt)
        model = conjugate_toy()
        Y = np.zeros(model.m)
        with pytest.raises(InputError, match=field):
            if options is FitOptions:
                map_fit(model, Y, FitOptions(**{"max_iters": 0, field: value}))
            else:
                sgld_sample(model, Y, model.theta_natural(), SgldOptions(**{field: value}))

    def test_infinite_sgld_decay_scale_is_a_constant_step(self):
        # step0 (1 + t / inf)^-0.51 = step0, as at a decay scale so large
        # that 1 + t / tau rounds to 1
        model = conjugate_toy()
        Y = np.array([1.0, 2.0, 0.5, 1.5])
        theta0 = model.theta_natural()

        def draws(tau):
            fit = map_fit(model, Y, FitOptions(max_iters=2, sgld_samples=3, sgld_tau=tau, seed=4))
            alone = sgld_sample(model, Y, theta0, SgldOptions(n_samples=3, tau=tau, seed=4))
            return fit.posterior, alone

        for got, want in zip(draws(np.inf), draws(1e300)):
            assert np.all(np.isfinite(got))
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("error", [ParameterDomainError, FactorizationError])
    def test_chain_start_failure_is_an_optimization_error(self, monkeypatch, error):
        import nglatent.inference as inference

        def fail(*args, **kwargs):
            raise error("bad start")

        monkeypatch.setattr(inference, "GibbsChain", fail)
        model = conjugate_toy()
        with pytest.raises(OptimizationError, match="bad start"):
            map_fit(model, np.zeros(model.m), FitOptions(chains=1, max_iters=3))


def fail_at_gig_call(monkeypatch, fail_at, error):
    """Make the fail_at-th GIG call of the Gibbs sweeps raise ``error``."""
    import nglatent.gibbs as gibbs

    draw, calls = gibbs.gig_sample_many, []

    def failing(*args):
        calls.append(1)
        if len(calls) == fail_at:
            raise error("injected")
        return draw(*args)

    monkeypatch.setattr(gibbs, "gig_sample_many", failing)


class TestSharedSweepErrors:
    """A failure in the sweep that all chains share, or in one chain's
    step, keeps its mapping."""

    def setup_method(self):
        n = 30
        self.model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.5, n),
            noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
            noise_y=NoiseSpec("gaussian", sigma=0.5),
        )
        self.Y, _ = simulate(self.model, rng=np.random.default_rng(6))
        # one GIG call per sweep, two sweeps per step: MAP iteration t
        # makes calls 2t - 1 and 2t, SGLD step t calls 8 + 2t - 1 and 8 + 2t
        self.opts = FitOptions(chains=3, max_iters=4, min_iters=4, k=2, seed=2,
                               checkpoint_every=2, sgld_samples=9)

    @pytest.mark.parametrize("error", [NumericalError, ParameterDomainError])
    def test_map_phase_ends_in_an_optimization_error(self, monkeypatch, error):
        fail_at_gig_call(monkeypatch, 7, error)
        with pytest.raises(OptimizationError, match="iteration 4") as ei:
            map_fit(self.model, self.Y, self.opts)
        assert isinstance(ei.value.__cause__, error)
        assert [t.iteration for t in ei.value.traces] == [2]

    @pytest.mark.parametrize("error", [NumericalError, ParameterDomainError])
    @pytest.mark.parametrize("step", [1, 3])
    def test_sgld_phase_reports_the_last_kept_draw(self, monkeypatch, error, step):
        posterior = map_fit(self.model, self.Y, self.opts).posterior
        fail_at_gig_call(monkeypatch, 8 + 2 * step, error)
        with pytest.raises(SamplingError, match=f"step {step}") as ei:
            map_fit(self.model, self.Y, self.opts)
        assert isinstance(ei.value.__cause__, error)
        if step == 1:
            assert ei.value.last_state is None
        else:  # chain 0's draws lead the posterior rows
            np.testing.assert_array_equal(ei.value.last_state, posterior[step - 2])

    @pytest.mark.parametrize("chain", [1, 2])
    def test_sgld_failure_in_one_chain_reports_its_last_draw(self, monkeypatch, chain):
        # the sweep and the gradient pass serve all chains at once; each
        # chain's step is then pushed into its own model: 4 MAP iterations
        # of 3 chains make pushes 1-12, and chain c's push at SGLD step t is
        # push 12 + 3 (t - 1) + c + 1; each chain keeps 3 of the 9 draws
        import nglatent.inference as inference

        posterior = map_fit(self.model, self.Y, self.opts).posterior
        commit, calls = inference._commit, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 12 + 3 * 2 + chain + 1:
                raise NumericalError("injected")
            return commit(*args, **kwargs)

        monkeypatch.setattr(inference, "_commit", failing)
        with pytest.raises(SamplingError, match="step 3") as ei:
            map_fit(self.model, self.Y, self.opts)
        np.testing.assert_array_equal(ei.value.last_state, posterior[3 * chain + 1])


def large_bivariate(d):
    # coupled nodes i and i + d give Q a natural bandwidth of d + 2; the
    # band order narrows it to 5
    mesh = build_interval_mesh(np.linspace(0.0, d / 21.0, d))
    return bivariate_operator(
        matern_operator(0.5, mesh), matern_operator(1.0, mesh), zeta=2.5, rho=0.5
    )


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
        # with the gradient stubbed to zero, increments are N(0, 2 gamma);
        # the Gibbs sweeps, whose draws the stub ignores, are stubbed too
        from types import SimpleNamespace

        from nglatent import inference as inf

        monkeypatch.setattr(
            inf, "lockstep_sweep", lambda chains, k, rng: [(None, None)] * len(chains)
        )
        monkeypatch.setattr(
            inf,
            "rb_gradient",
            lambda models, Y, states, conds=None: SimpleNamespace(
                g=np.zeros((len(models), models[0].n_params))
            ),
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

    @pytest.mark.parametrize("fail_at, thin", [(1, 1), (4, 1), (5, 2)])
    def test_failed_step_reports_the_previous_draw(self, monkeypatch, fail_at, thin):
        # a step that fails carries the last kept draw (natural scale), or
        # None when no draw was kept yet
        from nglatent import inference as inf

        model = conjugate_toy()
        Y = np.array([1.0, 2.0, 0.5, 1.5])
        theta0 = np.array([2.0, 0.5, 1.0, 0.5])
        opts = SgldOptions(n_samples=4, step0=1e-3, thin=thin, seed=3)
        kept = sgld_sample(model, Y, theta0, opts)
        # one chain: one gradient per step
        gradient, calls = inf.rb_gradient, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise ParameterDomainError("injected")
            return gradient(*args, **kwargs)

        monkeypatch.setattr(inf, "rb_gradient", failing)
        with pytest.raises(SamplingError, match=f"step {fail_at}") as ei:
            sgld_sample(model, Y, theta0, opts)
        n_kept = (fail_at - 1) // thin
        if n_kept == 0:
            assert ei.value.last_state is None
        else:
            np.testing.assert_array_equal(ei.value.last_state, kept[n_kept - 1])

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
