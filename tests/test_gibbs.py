import copy

import numpy as np
import pytest
from scipy import sparse

from nglatent.distributions import GigParams, NoiseSpec, gig_logpdf, gig_moments
from nglatent.errors import InputError
import nglatent.gibbs as gibbs
from nglatent.gibbs import (
    GibbsChain,
    conditional_v_gig_params,
    conditional_w_params,
    gibbs_run,
    lockstep_sweep,
    sample_v,
    sample_w,
)
from nglatent.model import assemble_model, simulate
from nglatent.operators import ar1_operator, bivariate_operator, matern_operator, tensor_operator
from nglatent.mesh import build_interval_mesh


def gaussian_ar1_model(n=5, phi=0.6, sigma=1.3, sigma_eps=0.8):
    return assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(phi, n),
        noise_w=NoiseSpec("gaussian", sigma=sigma),
        noise_y=NoiseSpec("gaussian", sigma=sigma_eps),
    )


def nig_ar1_model(n=20, phi=0.8, mu=3.0, sigma=2.0, nu=0.4, sigma_eps=1.0):
    return assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(phi, n),
        noise_w=NoiseSpec("nig", sigma=sigma, mu=mu, nu=nu),
        noise_y=NoiseSpec("gaussian", sigma=sigma_eps),
    )


def dense_w_posterior(model, v_w, v_y, Y):
    """Dense generalized-least-squares oracle for W | V, Y."""
    K = model.op.K.toarray()
    A = model.A.toarray()
    dw = model.noise_w.sigma**2 * v_w
    dy = model.noise_y.sigma**2 * v_y
    Q = K.T @ np.diag(1.0 / dw) @ K + A.T @ np.diag(1.0 / dy) @ A
    rhs = K.T @ (model.noise_w.mu * (v_w - model.noise_w.h) / dw)
    rhs = rhs + A.T @ ((Y - model.X @ model.beta - model.noise_y.mu * (v_y - 1.0)) / dy)
    cov = np.linalg.inv(Q)
    return cov @ rhs, cov


class TestConditionalW:
    def test_matches_dense_gls(self):
        model = gaussian_ar1_model(n=40)
        rng = np.random.default_rng(0)
        Y, _ = simulate(model, rng=rng)
        V = (model.noise_w.h.copy(), np.ones(model.m))
        mu, Q = conditional_w_params(model, None, V, Y)
        mu_dense, cov = dense_w_posterior(model, V[0], V[1], Y)
        assert np.abs(mu - mu_dense).max() < 1e-10
        assert np.allclose(Q.toarray(), np.linalg.inv(cov), rtol=1e-9)

    def test_no_data_returns_prior_conditional_mean(self):
        n = 6
        model = assemble_model(
            A=sparse.csr_matrix((3, n)),
            X=np.zeros((3, 0)),
            op=ar1_operator(0.5, n),
            noise_w=NoiseSpec("nig", sigma=1.5, mu=2.0, nu=0.7),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        rng = np.random.default_rng(1)
        v_w = rng.gamma(2.0, 1.0, size=n)
        Y = np.zeros(3)
        mu, _ = conditional_w_params(model, None, (v_w, np.ones(3)), Y)
        K = model.op.K.toarray()
        expected = np.linalg.solve(K, 2.0 * (v_w - model.noise_w.h))
        assert np.allclose(mu, expected, atol=1e-10)

    def test_kriging_mean_on_three_nodes(self):
        model = gaussian_ar1_model(n=3)
        Y = np.array([1.0, -0.5, 2.0])
        V = (model.noise_w.h.copy(), np.ones(3))
        mu, _ = conditional_w_params(model, None, V, Y)
        K = model.op.K.toarray()
        sig_w = model.noise_w.sigma**2 * np.linalg.inv(K) @ np.diag(model.noise_w.h) @ np.linalg.inv(K).T
        A = model.A.toarray()
        gain = sig_w @ A.T @ np.linalg.inv(A @ sig_w @ A.T + model.noise_y.sigma**2 * np.eye(3))
        assert np.allclose(mu, gain @ Y, atol=1e-12)

    def test_given_v_y_used_with_gaussian_measurement_noise(self):
        # the one-shot callers condition on the V_Y they are given, also
        # where the sampler holds a Gaussian measurement block at V_Y = 1
        model = nig_ar1_model(n=12)
        rng = np.random.default_rng(4)
        Y, _ = simulate(model, rng=rng)
        v_w = rng.gamma(2.0, 0.3, size=model.n)
        v_y = rng.gamma(2.0, 1.0, size=model.m)
        mu, Q = conditional_w_params(model, None, (v_w, v_y), Y)
        mu_dense, cov = dense_w_posterior(model, v_w, v_y, Y)
        assert np.abs(mu - mu_dense).max() < 1e-10
        assert np.allclose(Q.toarray(), np.linalg.inv(cov), rtol=1e-9)
        # V_Y near zero pins W to the observations (A is the identity)
        w = sample_w(rng, model, None, (v_w, np.full(model.m, 1e-12)), Y)
        assert np.abs(w - Y).max() < 1e-4

    def test_rejects_nonpositive_v(self):
        model = gaussian_ar1_model()
        with pytest.raises(InputError):
            conditional_w_params(
                model, None, (np.zeros(model.n), np.ones(model.m)), np.zeros(model.m)
            )


class TestSampleW:
    def test_long_run_mean(self):
        model = nig_ar1_model(n=4)
        rng = np.random.default_rng(2)
        Y, _ = simulate(model, rng=rng)
        v = (1.3 * model.noise_w.h, np.ones(4))
        mu, _ = conditional_w_params(model, None, v, Y)
        draws = np.array([sample_w(rng, model, None, v, Y) for _ in range(8000)])
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se)

    def test_long_run_covariance(self):
        model = gaussian_ar1_model(n=3)
        rng = np.random.default_rng(3)
        Y = np.array([0.5, 0.0, -1.0])
        v = (model.noise_w.h.copy(), np.ones(3))
        _, cov = dense_w_posterior(model, v[0], v[1], Y)
        draws = np.array([sample_w(rng, model, None, v, Y) for _ in range(8000)])
        emp = np.cov(draws.T)
        n = draws.shape[0]
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) < 3 * se)

    def test_seed_determinism(self):
        model = nig_ar1_model(n=6)
        Y, _ = simulate(model, rng=np.random.default_rng(4))
        v = (model.noise_w.h.copy(), np.ones(6))
        w1 = sample_w(np.random.default_rng(9), model, None, v, Y)
        w2 = sample_w(np.random.default_rng(9), model, None, v, Y)
        w3 = sample_w(np.random.default_rng(10), model, None, v, Y)
        assert np.array_equal(w1, w2)
        assert not np.array_equal(w1, w3)


def grid_total_variation(p_log, q_log, grid):
    """TV distance between two grid-normalized densities."""
    p = np.exp(p_log - p_log.max())
    q = np.exp(q_log - q_log.max())
    wp = np.trapezoid(p, grid)
    wq = np.trapezoid(q, grid)
    return 0.5 * np.trapezoid(np.abs(p / wp - q / wq), grid)


class TestSampleV:
    def test_conditional_is_shifted_gig(self):
        # mu = 0, KW = 0, h = 1: posterior is GIG(-1, nu, nu)
        nu = 0.4
        model = nig_ar1_model(n=3, mu=0.0, nu=nu, sigma=1.0)
        p, a, b = conditional_v_gig_params(model, None, np.zeros(3), np.zeros(3))
        assert np.allclose(p, -1.0)
        assert np.allclose(a, nu)
        assert np.allclose(b, nu)
        grid = np.geomspace(1e-6, 60.0, 4000)
        posterior = gig_logpdf(grid, GigParams(-1.0, nu, nu))
        prior = gig_logpdf(grid, GigParams(-0.5, nu, nu))
        kernel = -0.5 * np.log(grid)  # N(0; 0, sigma^2 v) up to constants
        assert grid_total_variation(posterior, prior + kernel, grid) < 1e-3

    def test_gaussian_measurement_block_fixed(self):
        model = nig_ar1_model(n=5)
        rng = np.random.default_rng(5)
        Y, state = simulate(model, rng=rng)
        v_w, v_y = sample_v(rng, model, None, state.W, Y)
        assert np.array_equal(v_y, np.ones(5))
        assert np.all(v_w > 0)

    def test_posterior_mean_grows_with_residual(self):
        model = nig_ar1_model(n=3, mu=1.0)
        means = []
        for scale in (0.1, 2.0, 8.0):
            W = np.linalg.solve(model.op.K.toarray(), np.full(3, scale))
            p, a, b = conditional_v_gig_params(model, None, W, np.zeros(3))
            means.append(gig_moments(GigParams(p[1], a[1], b[1]))[0])
        assert means[0] < means[1] < means[2]

    def test_proposition_identity_random_configurations(self):
        # conditional density == prior x Gaussian kernel after normalization
        rng = np.random.default_rng(12)
        for trial in range(10):
            family = "nig" if trial % 2 == 0 else "gal"
            nu = float(rng.uniform(0.3, 2.0))
            mu = float(rng.uniform(-2.0, 2.0))
            sigma = float(rng.uniform(0.5, 2.0))
            model = assemble_model(
                A=sparse.identity(3, format="csr"),
                X=np.zeros((3, 0)),
                op=ar1_operator(float(rng.uniform(-0.9, 0.9)), 3),
                noise_w=NoiseSpec(family, sigma=sigma, mu=mu, nu=nu),
                noise_y=NoiseSpec("gaussian", sigma=1.0),
            )
            W = rng.normal(size=3)
            p, a, b = conditional_v_gig_params(model, None, W, np.zeros(3))
            kw = model.op.K @ W
            i = int(rng.integers(0, 3))
            grid = np.geomspace(1e-7, 80.0, 6000)
            posterior = gig_logpdf(grid, GigParams(float(p[i]), float(a[i]), float(b[i])))
            prior_params = (
                GigParams(-0.5, nu, nu) if family == "nig" else GigParams(nu, 2 * nu, 0.0)
            )
            prior = gig_logpdf(grid, prior_params)
            kernel = -0.5 * np.log(grid) - (kw[i] - mu * (grid - 1.0)) ** 2 / (
                2 * sigma**2 * grid
            )
            lhs = posterior - posterior.max()
            rhs = prior + kernel
            rhs = rhs - rhs.max()
            # normalize both on the grid and compare pointwise
            lp = np.exp(lhs) / np.trapezoid(np.exp(lhs), grid)
            rp = np.exp(rhs) / np.trapezoid(np.exp(rhs), grid)
            assert np.abs(lp - rp).max() < 1e-6 * lp.max()


class TestGibbsRun:
    def test_gaussian_model_exact_posterior(self):
        model = gaussian_ar1_model(n=5)
        rng = np.random.default_rng(6)
        Y, _ = simulate(model, rng=rng)
        draws = gibbs_run(rng, model, None, Y, iters=3100, burnin=100)
        W = np.array([s.W for s in draws.states])
        mu_exact, cov_exact = dense_w_posterior(model, model.noise_w.h, np.ones(5), Y)
        n = W.shape[0]
        se_mean = np.sqrt(np.diag(cov_exact) / n)
        assert np.all(np.abs(W.mean(axis=0) - mu_exact) < 3 * se_mean)
        emp_cov = np.cov(W.T)
        se_cov = np.sqrt((np.outer(np.diag(cov_exact), np.diag(cov_exact)) + cov_exact**2) / n)
        assert np.all(np.abs(emp_cov - cov_exact) < 3 * se_cov)

    def test_nig_mixing_mean_vs_importance_sampling(self):
        # weak likelihood keeps the prior-proposal IS oracle well conditioned
        model = nig_ar1_model(n=20, sigma_eps=4.0)
        rng = np.random.default_rng(7)
        Y, _ = simulate(model, rng=rng)

        draws = gibbs_run(rng, model, None, Y, iters=9000, burnin=1000)
        V = np.array([s.V_W for s in draws.states])
        gibbs_mean = V.mean(axis=0)
        # batch means for an autocorrelation-aware standard error
        batches = V.reshape(20, -1, V.shape[1]).mean(axis=1)
        se_gibbs = batches.std(axis=0, ddof=1) / np.sqrt(batches.shape[0])

        # vectorized prior-proposal importance sampler
        from nglatent.distributions import gig_sample_many, mixing_prior_arrays

        is_rng = np.random.default_rng(8)
        M = 200000
        p, a, b = mixing_prior_arrays(model.noise_w)
        vs = gig_sample_many(is_rng, p, a, b, size=(M, model.n))
        z = is_rng.standard_normal((M, model.n))
        nw = model.noise_w
        eps = nw.mu * (vs - nw.h) + nw.sigma * np.sqrt(vs) * z
        from scipy.sparse.linalg import splu

        W = splu(sparse.csc_matrix(model.op.K)).solve(eps.T).T
        resid = Y[None, :] - W  # A = I
        logw = -0.5 * np.sum(resid**2, axis=1) / model.noise_y.sigma**2
        w = np.exp(logw - logw.max())
        w /= w.sum()
        is_mean = w @ vs
        ess = 1.0 / np.sum(w**2)
        is_var = w @ (vs - is_mean) ** 2
        se_is = np.sqrt(is_var / ess)
        tol = 3 * np.sqrt(se_gibbs**2 + se_is**2)
        assert np.all(np.abs(gibbs_mean - is_mean) < tol)

    def test_thinning_halves_states(self):
        model = gaussian_ar1_model(n=3)
        Y = np.zeros(3)
        full = gibbs_run(np.random.default_rng(0), model, None, Y, iters=110, burnin=10)
        thinned = gibbs_run(np.random.default_rng(0), model, None, Y, iters=110, burnin=10, thin=2)
        assert len(full) == 100
        assert len(thinned) == 50

    def test_iteration_validation(self):
        model = gaussian_ar1_model(n=3)
        with pytest.raises(InputError):
            gibbs_run(np.random.default_rng(0), model, None, np.zeros(3), iters=5, burnin=10)

    def test_precision_spd_for_positive_v(self):
        model = nig_ar1_model(n=8)
        rng = np.random.default_rng(9)
        for _ in range(5):
            v_w = rng.gamma(0.5, 2.0, size=8) + 1e-6
            v_y = rng.gamma(0.5, 2.0, size=8) + 1e-6
            _, Q = conditional_w_params(model, None, (v_w, v_y), np.zeros(8))
            Qd = Q.toarray()
            assert np.allclose(Qd, Qd.T, atol=1e-12)
            assert np.linalg.eigvalsh(Qd).min() > 0

    def test_warm_chain_matches_fresh_run(self):
        model = nig_ar1_model(n=6)
        Y, _ = simulate(model, rng=np.random.default_rng(10))
        chain = GibbsChain(model, Y, np.random.default_rng(11))
        states_a = chain.sweep(3)
        run = gibbs_run(np.random.default_rng(11), model, None, Y, iters=3, burnin=0)
        for sa, sb in zip(states_a, run.states):
            assert np.array_equal(sa.W, sb.W)
            assert np.array_equal(sa.V_W, sb.V_W)


class TestNonGaussianMeasurement:
    def test_nig_measurement_block_sampled(self):
        n = 10
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.5, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("nig", sigma=1.0, mu=1.0, nu=0.8),
        )
        rng = np.random.default_rng(13)
        Y, state = simulate(model, rng=rng)
        v_w, v_y = sample_v(rng, model, None, state.W, Y)
        assert np.array_equal(v_w, model.noise_w.h)
        assert np.all(v_y > 0) and not np.allclose(v_y, 1.0)
        # one sweep of the full chain stays finite
        w = sample_w(rng, model, None, (v_w, v_y), Y)
        assert np.all(np.isfinite(w))


def nig_both_model(n=12, phi=0.6, sigma=1.5, mu=1.0, nu=0.7):
    """NIG process and NIG measurement noise, so both mixing blocks draw."""
    return assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.ones((n, 1)),
        op=ar1_operator(phi, n),
        noise_w=NoiseSpec("nig", sigma=sigma, mu=mu, nu=nu),
        noise_y=NoiseSpec("nig", sigma=0.8, mu=0.5, nu=1.2),
        beta=np.array([0.3]),
    )


class TestLockstepSweep:
    def test_each_chain_gets_its_own_conditional_draw(self, monkeypatch):
        # with the GIG draw replaced by b / a, every chain's mixing
        # variables must be that value of its own conditional parameters,
        # whatever the other chains in the joined call hold
        calls = []

        def stand_in(rng, p, a, b):
            calls.append(p.size)
            return b / a

        monkeypatch.setattr(gibbs, "gig_sample_many", stand_in)
        base = nig_both_model()
        Y, _ = simulate(base, rng=np.random.default_rng(1))
        theta = base.theta_natural()
        theta[base.param_names.index("phi")] = -0.4
        theta[base.param_names.index("nu")] = 3.0
        gauss_w = assemble_model(
            A=base.A, X=base.X, op=base.op, beta=base.beta,
            noise_w=NoiseSpec("gaussian", sigma=1.1), noise_y=base.noise_y,
        )
        chains = [
            GibbsChain(base, Y, np.random.default_rng(2)),
            GibbsChain(base, Y, np.random.default_rng(3), theta=theta),
            GibbsChain(gauss_w, Y, np.random.default_rng(4)),
        ]
        runs = lockstep_sweep(chains, 2, np.random.default_rng(5))
        # per sweep: the two NIG process blocks, then all three measurement blocks
        assert calls == [2 * base.n, 3 * base.m] * 2
        for chain, (states, conds) in zip(chains, runs):
            assert len(states) == len(conds) == 2
            mdl, W = chain.model, states[-1].W
            if mdl.noise_w.family == "gaussian":
                np.testing.assert_array_equal(states[-1].V_W, mdl.noise_w.h)
            else:
                p, a, b = conditional_v_gig_params(mdl, None, W, Y)
                np.testing.assert_array_equal(states[-1].V_W, b / a)
            resid = Y - mdl.X @ mdl.beta - mdl.A @ W
            p, a, b = gibbs._gig_params(gibbs._gig_block(mdl.noise_y), resid)
            np.testing.assert_array_equal(states[-1].V_Y, b / a)
        assert not np.array_equal(runs[0][0][-1].V_W, runs[1][0][-1].V_W)

    @pytest.mark.parametrize("make_model", [nig_both_model, nig_ar1_model])
    def test_one_chain_matches_a_loop_of_single_draws(self, make_model):
        # the chain's own rng is the mixing stream: W, then V_W, then V_Y
        model = make_model()
        Y, _ = simulate(model, rng=np.random.default_rng(8))
        states = GibbsChain(model, Y, np.random.default_rng(9)).sweep(4)
        rng = np.random.default_rng(9)
        V = (model.noise_w.h.copy(), np.ones(model.m))
        for state in states:
            W = sample_w(rng, model, None, V, Y)
            V = sample_v(rng, model, None, W, Y)
            assert np.array_equal(state.W, W)
            assert np.array_equal(state.V_W, V[0])
            assert np.array_equal(state.V_Y, V[1])


def stage_model(kind):
    """Models whose per-theta stages differ: a NIG process with Gaussian
    measurement noise, NIG with NIG measurement noise (V_Y drawn), a GAL
    process, and NIG on a tensor and on a bivariate operator (reordered
    band), each with a covariate."""
    mesh = build_interval_mesh(np.linspace(0.0, 4.0, 9))
    ops = {
        "tensor": lambda: tensor_operator(ar1_operator(0.6, 4), matern_operator(1.2, mesh)),
        "bivariate": lambda: bivariate_operator(
            matern_operator(0.8, mesh), matern_operator(1.6, mesh), 2.5, 0.5
        ),
    }
    op = ops.get(kind, lambda: ar1_operator(0.6, 15))()
    family = "gal" if kind == "gal" else "nig"
    noise_y = (NoiseSpec("nig", sigma=0.8, mu=0.5, nu=1.2) if kind == "nig-nig"
               else NoiseSpec("gaussian", sigma=0.5))
    return assemble_model(
        A=sparse.identity(op.dim, format="csr"),
        X=np.ones((op.dim, 1)),
        op=op,
        noise_w=NoiseSpec(family, sigma=1.2, mu=0.7, nu=0.9),
        noise_y=noise_y,
        beta=np.array([0.3]),
    )


class TestThetaStage:
    def test_gibbs_run_builds_the_mixing_arrays_once(self, monkeypatch):
        # the process block's GIG arrays depend on theta only: a run at one
        # theta builds them once, not once per sweep
        calls = []
        prior = gibbs.mixing_prior_arrays
        monkeypatch.setattr(
            gibbs, "mixing_prior_arrays", lambda noise: calls.append(noise) or prior(noise)
        )
        model = nig_ar1_model(n=10)
        Y, _ = simulate(model, rng=np.random.default_rng(1))
        gibbs_run(np.random.default_rng(2), model, None, Y, iters=10, burnin=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["nig-ar1", "nig-nig", "gal", "tensor", "bivariate"])
    def test_set_theta_rebuilds_the_stage(self, kind):
        # after set_theta, each conditional equals one built from scratch at
        # the new theta, bit for bit
        model = stage_model(kind)
        Y, _ = simulate(model, rng=np.random.default_rng(3))
        chain = GibbsChain(model, Y, np.random.default_rng(4))
        chain.sweep(3)
        theta = model.theta_natural()
        theta[0] += 0.2  # beta
        for name in model.param_names[1:]:
            theta[model.param_names.index(name)] *= 1.1 if name != "mu" else -0.5
        chain.set_theta(theta)
        fresh = gibbs._ThetaStage(model.with_theta(theta), Y)
        # the next W is drawn from the conditional at the current V
        mu, factor = gibbs._w_conditional(fresh.joint, [chain.v_w], [chain.v_y])
        w = mu[0] + factor.whiten(copy.deepcopy(chain.rng).standard_normal(model.n))
        states, conds = lockstep_sweep([chain], 2, chain.rng)[0]
        assert np.array_equal(states[0].W, w)
        for state, (mu, factor) in zip(states, conds):
            ref_mu, ref_factor = gibbs._w_conditional(fresh.joint, [state.V_W], [state.V_Y])
            assert np.array_equal(mu, ref_mu[0])
            assert np.array_equal(factor._cb, ref_factor._cb)
