from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse, special, stats

from nglatent._linalg import StructurePlan

from nglatent.distributions import NoiseSpec, gig_logpdf, GigParams
from nglatent.errors import InputError, ParameterDomainError, UnsupportedFamilyError
from nglatent.gibbs import GibbsChain, gibbs_run, sample_w
from nglatent.gradients import (
    augmented_grad,
    augmented_loglik,
    mc_gradient,
    prior_grad,
    rb_gradient,
    trace_term,
)
from nglatent.model import (
    LatentState,
    NormalPrior,
    InverseExpPrior,
    assemble_model,
    flat_priors,
    simulate,
)
from nglatent.operators import (
    ar1_operator,
    bivariate_operator,
    matern_operator,
    ou_operator,
    tensor_operator,
)
from nglatent.mesh import build_interval_mesh
from nglatent.transforms import jacobian_natural, to_natural, to_unconstrained


def make_model(family="nig", n=6, op=None, sigma_eps=1.0, mu=3.0, sigma=2.0, nu=0.4, X=None, beta=None):
    op = op if op is not None else ar1_operator(0.8, n)
    n = op.dim
    X = np.zeros((n, 0)) if X is None else X
    kw = {"sigma": sigma} if family == "gaussian" else {"sigma": sigma, "mu": mu, "nu": nu}
    return assemble_model(
        A=sparse.identity(n, format="csr"),
        X=X,
        op=op,
        noise_w=NoiseSpec(family, **kw),
        noise_y=NoiseSpec("gaussian", sigma=sigma_eps),
        beta=beta,
    )


def fd_gradient(model, Y, state, step=1e-6):
    """Central differences of the augmented log-likelihood on the
    unconstrained scale."""
    u0 = model.theta_unconstrained()
    out = np.empty_like(u0)
    for i in range(u0.size):
        up, dn = u0.copy(), u0.copy()
        up[i] += step
        dn[i] -= step
        f_up = augmented_loglik(model, to_natural(up, model.transform_tags), Y, state)
        f_dn = augmented_loglik(model, to_natural(dn, model.transform_tags), Y, state)
        out[i] = (f_up - f_dn) / (2 * step)
    return out


class TestAugmentedLoglik:
    def test_gaussian_matches_dense_joint(self):
        model = make_model("gaussian", n=10, sigma=1.3, sigma_eps=0.7)
        rng = np.random.default_rng(0)
        Y, state = simulate(model, rng=rng)
        ll = augmented_loglik(model, None, Y, state)
        K = model.op.K.toarray()
        cov_w = 1.3**2 * np.linalg.inv(K) @ np.diag(model.noise_w.h) @ np.linalg.inv(K).T
        dense = stats.multivariate_normal(np.zeros(10), cov_w).logpdf(state.W)
        dense += stats.multivariate_normal(state.W, 0.7**2 * np.eye(10)).logpdf(Y)
        assert ll == pytest.approx(dense, abs=1e-8)

    def test_sigma_eps_doubling(self):
        model = make_model("nig", n=8)
        rng = np.random.default_rng(1)
        Y, state = simulate(model, rng=rng)
        r = Y - model.A @ state.W
        theta = model.theta_natural()
        theta2 = theta.copy()
        theta2[0] = 2.0 * theta[0]  # sigma_eps is first (no covariates)
        delta = augmented_loglik(model, theta2, Y, state) - augmented_loglik(
            model, None, Y, state
        )
        expected = -8 * np.log(2.0) + 0.375 * np.sum(r**2) / theta[0] ** 2
        assert delta == pytest.approx(expected, rel=1e-10)

    def test_nig_mixing_term_at_v_equals_h(self):
        nu = 0.4
        model = make_model("nig", n=7, nu=nu)
        state = LatentState(W=np.zeros(7), V_W=np.ones(7), V_Y=np.ones(7))
        ll = augmented_loglik(model, None, np.zeros(7), state)
        from nglatent.distributions import _log_prior_v

        assert _log_prior_v(model.noise_w, state.V_W) == pytest.approx(
            7 * 0.5 * np.log(nu / (2 * np.pi))
        )

    def test_rejects_nonpositive_v(self):
        model = make_model("nig", n=4)
        state = LatentState(W=np.zeros(4), V_W=np.zeros(4), V_Y=np.ones(4))
        with pytest.raises(ParameterDomainError):
            augmented_loglik(model, None, np.zeros(4), state)

    def test_non_gaussian_measurement_rejected(self):
        n = 4
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=ar1_operator(0.5, n),
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        )
        state = LatentState(W=np.zeros(n), V_W=np.ones(n), V_Y=np.ones(n))
        with pytest.raises(UnsupportedFamilyError):
            augmented_loglik(model, None, np.zeros(n), state)


class TestAugmentedGrad:
    @pytest.mark.parametrize("family", ["gaussian", "nig", "gal"])
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(2)
        model = make_model(
            family,
            n=6,
            X=rng.normal(size=(6, 2)),
            beta=np.array([0.5, -1.0]),
            nu=0.9,
            mu=-1.2,
            sigma=1.4,
        )
        Y, state = simulate(model, rng=rng)
        g = augmented_grad(model, None, Y, state)
        fd = fd_gradient(model, Y, state)
        assert np.abs(g - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_beta_gradient_zero_at_augmented_mle(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(8), rng.normal(size=8)])
        model = make_model("gaussian", n=8, X=X, beta=np.array([1.0, 2.0]))
        Y, state = simulate(model, rng=rng)
        beta_hat, *_ = np.linalg.lstsq(X, Y - model.A @ state.W, rcond=None)
        theta = model.theta_natural()
        theta[:2] = beta_hat
        g = augmented_grad(model, theta, Y, state)
        assert np.allclose(g[:2], 0.0, atol=1e-9)

    def test_gal_nu_gradient_closed_form(self):
        nu = 1.7
        model = make_model("gal", n=5, nu=nu, mu=0.0)
        state = LatentState(W=np.zeros(5), V_W=np.ones(5), V_Y=np.ones(5))
        from nglatent.distributions import _nu_grad

        expected = 5 * (np.log(nu) - special.psi(nu))
        assert _nu_grad(model.noise_w, state.V_W) == pytest.approx(expected, rel=1e-12)


class TestTraceTerm:
    def test_ar1_dense_oracle(self):
        model = make_model("nig", n=20)
        K = model.op.K.toarray()
        dK = model.op.dK["phi"].toarray()
        dense = np.trace(np.linalg.solve(K, dK))
        assert trace_term(model, None, "phi") == pytest.approx(dense, abs=1e-10)

    def test_matern_closed_form(self):
        mesh = build_interval_mesh(np.linspace(0, 3, 12))
        model = make_model("gaussian", op=matern_operator(1.5, mesh))
        K = model.op.K.toarray()
        C = np.diag(mesh.weights)
        dense = 2 * 1.5 * np.trace(np.linalg.solve(K, C))
        assert trace_term(model, None, "kappa") == pytest.approx(dense, rel=1e-10)


class TestPriorGrad:
    def test_normal_prior_values(self):
        ps = type(
            "PS", (), {}
        )  # simple ad-hoc container is overkill; use the real one
        from nglatent.model import PriorSet

        priors = PriorSet({"a": NormalPrior(0.0, 10.0)})
        _, g0 = prior_grad(priors, np.array([0.0]))
        _, g2 = prior_grad(priors, np.array([2.0]))
        assert g0[0] == 0.0
        assert g2[0] == pytest.approx(-0.2)

    def test_inverse_exp_prior_against_quadrature(self):
        from scipy import integrate

        lam = np.log(2.0) / 0.7
        prior = InverseExpPrior(rate=lam)
        # density on u = log(nu) integrates to one
        val, _ = integrate.quad(lambda u: np.exp(prior.logpdf_grad(u)[0]), -30, 30)
        assert val == pytest.approx(1.0, abs=1e-9)
        # gradient changes sign at the mode u* = log(lam)
        assert prior.logpdf_grad(np.log(lam) - 0.3)[1] > 0
        assert prior.logpdf_grad(np.log(lam) + 0.3)[1] < 0
        # and matches finite differences
        for u in (-1.0, 0.2, 1.5):
            fd = (prior.logpdf_grad(u + 1e-6)[0] - prior.logpdf_grad(u - 1e-6)[0]) / 2e-6
            assert prior.logpdf_grad(u)[1] == pytest.approx(fd, abs=1e-6)


def marginal_loglik_quadrature(model, theta_nat, Y, n_grid=70):
    """Tensor-grid quadrature of the marginal likelihood over V (n = 3)."""
    mdl = model.with_theta(theta_nat)
    nw = mdl.noise_w
    K = mdl.op.K.toarray()
    Kinv = np.linalg.inv(K)
    u = np.linspace(-11.0, 7.5, n_grid)
    du = u[1] - u[0]
    v1 = np.exp(u)
    g = GigParams(-0.5, nw.nu, nw.nu * 1.0**2)  # h = 1 for AR1
    log_prior_1d = gig_logpdf(v1, g) + u  # includes Jacobian of v = e^u
    V1, V2, V3 = np.meshgrid(v1, v1, v1, indexing="ij")
    V = np.stack([V1.ravel(), V2.ravel(), V3.ravel()], axis=1)
    LP = (
        log_prior_1d[:, None, None]
        + log_prior_1d[None, :, None]
        + log_prior_1d[None, None, :]
    ).ravel()
    mean = (Kinv @ (nw.mu * (V - 1.0)).T).T
    diff = Y[None, :] - mean
    total = np.full(V.shape[0], -np.inf)
    chunk = 40000
    sig_eps2 = mdl.noise_y.sigma**2
    for s in range(0, V.shape[0], chunk):
        sl = slice(s, min(s + chunk, V.shape[0]))
        cov = nw.sigma**2 * np.einsum(
            "ij,bj,kj->bik", Kinv, V[sl], Kinv
        ) + sig_eps2 * np.eye(3)
        sign, logdet = np.linalg.slogdet(cov)
        sol = np.linalg.solve(cov, diff[sl][:, :, None])[:, :, 0]
        quad = np.sum(diff[sl] * sol, axis=1)
        total[sl] = -0.5 * (3 * np.log(2 * np.pi) + logdet + quad) + LP[sl]
    return special.logsumexp(total) + 3 * np.log(du)


class TestMcGradient:
    def test_unbiased_against_quadrature_oracle(self):
        model = make_model("nig", n=3, mu=1.5, sigma=1.2, nu=0.8, sigma_eps=0.9)
        model = assemble_model(
            A=model.A,
            X=model.X,
            op=model.op,
            noise_w=model.noise_w,
            noise_y=model.noise_y,
            priors=flat_priors(model.param_names),
        )
        rng = np.random.default_rng(4)
        Y, _ = simulate(model, rng=rng)

        # oracle: central differences of the quadrature marginal on the
        # unconstrained scale (flat prior, so gradient of E is -d loglik)
        u0 = model.theta_unconstrained()
        oracle = np.empty_like(u0)
        for i in range(u0.size):
            up, dn = u0.copy(), u0.copy()
            up[i] += 1e-4
            dn[i] -= 1e-4
            f_up = marginal_loglik_quadrature(model, to_natural(up, model.transform_tags), Y)
            f_dn = marginal_loglik_quadrature(model, to_natural(dn, model.transform_tags), Y)
            oracle[i] = -(f_up - f_dn) / 2e-4

        M = 200
        grads = np.empty((M, u0.size))
        for j in range(M):
            draws = gibbs_run(rng, model, None, Y, iters=60, burnin=50)
            grads[j] = mc_gradient(model, None, Y, draws).g
        se = grads.std(axis=0, ddof=1) / np.sqrt(M)
        assert np.all(np.abs(grads.mean(axis=0) - oracle) < 3 * np.maximum(se, 2e-3))

    def test_flat_prior_contributes_zero(self):
        model = make_model("nig", n=5)
        rng = np.random.default_rng(5)
        Y, state = simulate(model, rng=rng)
        flat = flat_priors(model.param_names)
        rep = mc_gradient(model, None, Y, [state], priors=flat)
        g_exp = -augmented_grad(model, None, Y, state)
        assert np.allclose(rep.g, g_exp)
        lp, pg = prior_grad(flat, model.theta_unconstrained())
        assert lp == 0.0 and np.all(pg == 0.0)

    @pytest.mark.parametrize("family", ["gaussian", "nig", "gal"])
    def test_stacked_states_equal_the_mean_of_single_states(self, family):
        # k states in one array pass against k single-state gradients
        rng = np.random.default_rng(8)
        model = make_model(family, n=7, X=rng.normal(size=(7, 2)), beta=np.array([0.5, -1.0]))
        Y, _ = simulate(model, rng=rng)
        states = gibbs_run(rng, model, None, Y, iters=12, burnin=2, thin=2).states
        flat = flat_priors(model.param_names)
        rep = mc_gradient(model, None, Y, states, priors=flat)
        ref = -np.mean([augmented_grad(model, None, Y, s) for s in states], axis=0)
        assert rep.k == len(states) == 5
        np.testing.assert_allclose(rep.g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_variance_shrinks_like_one_over_k(self):
        model = make_model("nig", n=4)
        rng = np.random.default_rng(6)
        Y, _ = simulate(model, rng=rng)
        # near-independent draws via thinning
        pool = gibbs_run(rng, model, None, Y, iters=100 + 25 * 420, burnin=100, thin=25).states

        def batch_var(k, reps):
            gs = []
            idx = 0
            for _ in range(reps):
                gs.append(mc_gradient(model, None, Y, pool[idx : idx + k]).g)
                idx += k
            gs = np.array(gs)
            return gs.var(axis=0, ddof=1).sum()

        v1 = batch_var(1, 350)
        v25 = batch_var(25, 14)
        ratio = v1 / v25
        assert 10.0 < ratio < 62.0  # target 25x, wide Monte Carlo band

    def test_empty_draws_rejected(self):
        model = make_model("nig", n=3)
        with pytest.raises(InputError):
            mc_gradient(model, None, np.zeros(3), [])


class TestRbGradient:
    def test_matches_nested_monte_carlo(self):
        model = make_model("nig", n=5)
        rng = np.random.default_rng(7)
        Y, _ = simulate(model, rng=rng)
        state0 = gibbs_run(rng, model, None, Y, iters=60, burnin=59).states[0]
        v = (state0.V_W, state0.V_Y)
        rb = rb_gradient(model, None, Y, [v]).g
        M = 4000
        grads = np.empty((M, model.n_params))
        for j in range(M):
            w = sample_w(rng, model, None, v, Y)
            st = LatentState(W=w, V_W=state0.V_W, V_Y=state0.V_Y)
            grads[j] = mc_gradient(model, None, Y, [st]).g
        se = grads.std(axis=0, ddof=1) / np.sqrt(M)
        assert np.all(np.abs(rb - grads.mean(axis=0)) < 3 * np.maximum(se, 1e-10))

    def test_gaussian_rb_deterministic(self):
        model = make_model("gaussian", n=6)
        rng = np.random.default_rng(8)
        Y, _ = simulate(model, rng=rng)
        v = (model.noise_w.h.copy(), np.ones(6))
        g1 = rb_gradient(model, None, Y, [v]).g
        g2 = rb_gradient(model, None, Y, [v]).g
        assert np.array_equal(g1, g2)  # no W randomness remains
        g3 = rb_gradient(model, None, Y, [v, v, v]).g
        assert np.allclose(g1, g3, rtol=1e-12)

    def test_rb_variance_below_mc(self):
        model = make_model("nig", n=10)
        rng = np.random.default_rng(9)
        Y, _ = simulate(model, rng=rng)
        chain = GibbsChain(model, Y, rng)
        chain.sweep(100)
        reps = 120
        g_mc = np.empty((reps, model.n_params))
        g_rb = np.empty((reps, model.n_params))
        for j in range(reps):
            states = chain.sweep(5)
            g_mc[j] = mc_gradient(model, None, Y, states).g
            g_rb[j] = rb_gradient(model, None, Y, states).g
        assert g_rb.var(axis=0).sum() < g_mc.var(axis=0).sum()

    def test_dense_and_banded_paths_agree(self):
        # the banded path against Sigma = inv(Q) from numpy, on an AR(1) and
        # on a bivariate model whose plan order is a reverse Cuthill-McKee order
        mesh = build_interval_mesh(np.linspace(0.0, 4.0, 9))
        op = bivariate_operator(matern_operator(0.8, mesh), matern_operator(1.6, mesh), 2.5, 0.5)
        bivariate = make_model("nig", op=op, mu=0.5, sigma=1.0, nu=1.0, sigma_eps=0.3)
        assert not np.array_equal(bivariate.plan.order, np.arange(bivariate.n))
        for model in (make_model("nig", n=7), bivariate):
            rng = np.random.default_rng(10)
            Y, _ = simulate(model, rng=rng)
            state = gibbs_run(rng, model, None, Y, iters=30, burnin=29).states[0]
            v = (state.V_W, state.V_Y)
            g = rb_gradient(model, None, Y, [v]).g
            ref = dense_rb_gradient(model, Y, *v)
            assert np.allclose(g, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    @pytest.mark.parametrize(
        "kind", ["nig-ar1", "gal-ar1", "gal-ar1-small-v", "gaussian-ar1", "tensor", "bivariate"]
    )
    def test_stacked_draws_match_dense_oracle(self, kind):
        # k = 5 draws in one pass, with the conditionals of the sweep that
        # drew them, against the dense per-draw oracle averaged over draws
        model = stacked_gradient_model(kind)
        rng = np.random.default_rng(11)
        Y, _ = simulate(model, rng=rng)
        chain = GibbsChain(model, Y, rng)
        chain.sweep(20)
        states, conds = chain.sweep(5, with_conditionals=True)
        g = rb_gradient(model, None, Y, states, _conds=conds).g
        ref = np.mean([dense_rb_gradient(model, Y, s.V_W, s.V_Y) for s in states], axis=0)
        assert np.allclose(g, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("zeros", [False, True], ids=["generic", "zero-entries"])
    @pytest.mark.parametrize("kind", ["nig-ar1", "gal-ar1", "tensor", "bivariate"])
    def test_support_pairs_match_all_pairs(self, kind, zeros):
        # each cross term dK Sigma K' sums only the row pairs on its dK's
        # support; the pairs left out have zero products, so all of K's
        # pairs give the same gradient, also where an entry inside the
        # support vanishes by value (phi = 0, zeta = rho = 0)
        model = stacked_gradient_model(kind)
        if zeros:
            theta = model.theta_natural()
            for name in ("phi", "outer.phi", "zeta", "rho"):
                if name in model.param_names:
                    theta[model.param_names.index(name)] = 0.0
            model = model.with_theta(theta)
        every_pair = replace(model, plan=StructurePlan(model.op.K, model.A))
        assert model.plan.dk.keys() == model.op.dK_support.keys() and not every_pair.plan.dk
        assert np.array_equal(every_pair.plan.order, model.plan.order)
        assert model.plan.dk
        assert all(pairs.a.size < model.plan.kk.a.size for pairs in model.plan.dk.values())
        rng = np.random.default_rng(13)
        Y, _ = simulate(model, rng=rng)
        chain = GibbsChain(model, Y, rng)
        chain.sweep(20)
        states, conds = chain.sweep(5, with_conditionals=True)
        g = rb_gradient(model, None, Y, states, _conds=conds).g
        ref = rb_gradient(every_pair, None, Y, states, _conds=conds).g
        assert np.allclose(g, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        dense = np.mean([dense_rb_gradient(model, Y, s.V_W, s.V_Y) for s in states], axis=0)
        assert np.allclose(g, dense, rtol=1e-10, atol=1e-10 * np.max(np.abs(dense)))


def stacked_gradient_model(kind):
    """AR1 with NIG, GAL or Gaussian process noise (Q bandwidth 1, the
    closed-form covariance band); an NIG AR1 x Matern tensor with
    covariates (bandwidth above 1, the blocked selected inverse); an NIG
    bivariate model in a reordered band order.

    The GAL model takes nu = 1, and nu = 0.4 for small mixing draws: there
    they reach 6e-6, where an oracle that inverted Q was off by 2e-8
    relative; the solving oracle meets the banded path to 2e-12."""
    if kind.startswith("gal-ar1"):
        return make_model("gal", n=40, mu=1.0, nu=0.4 if kind.endswith("small-v") else 1.0)
    if kind.endswith("-ar1"):
        return make_model(kind[: -len("-ar1")], n=40, mu=1.0)
    mesh = build_interval_mesh(np.linspace(0.0, 4.0, 9))
    if kind == "tensor":
        op = tensor_operator(ar1_operator(0.6, 4), matern_operator(1.2, mesh))
        X = np.column_stack([np.ones(op.dim), np.linspace(-1.0, 1.0, op.dim)])
        model = make_model("nig", op=op, mu=0.5, sigma=1.0, nu=1.0, sigma_eps=0.3,
                           X=X, beta=np.array([0.2, -0.4]))
        assert model.plan.bandwidth >= 2
        return model
    op = bivariate_operator(matern_operator(0.8, mesh), matern_operator(1.6, mesh), 2.5, 0.5)
    model = make_model("nig", op=op, mu=0.5, sigma=1.0, nu=1.0, sigma_eps=0.3)
    assert not np.array_equal(model.plan.order, np.arange(model.n))
    return model


def dense_rb_gradient(model, Y, v_w, v_y):
    """The Rao-Blackwellized gradient from dense solves with Q: the
    augmented gradient at the conditional mean plus the covariance terms
    tr(A Sigma A'), diag(K Sigma K') and diag(dK Sigma K').  The mean and
    the columns Sigma K' and Sigma A' are solved for; Sigma itself is never
    formed, since inverting Q loses digits when mixing draws are small."""
    K, A = model.op.K.toarray(), model.A.toarray()
    nw, ny = model.noise_w, model.noise_y
    dw, dy = nw.sigma**2 * v_w, ny.sigma**2 * v_y
    Q = K.T @ (K / dw[:, None]) + A.T @ (A / dy[:, None])
    resid = Y - model.X @ model.beta - ny.mu * (v_y - 1.0)
    rhs = K.T @ (nw.mu * (v_w - nw.h) / dw) + A.T @ (resid / dy)
    solved = np.linalg.solve(Q, np.column_stack([rhs, K.T, A.T]))
    mean, sigma_kt, sigma_at = solved[:, 0], solved[:, 1 : 1 + K.shape[0]], solved[:, 1 + K.shape[0] :]
    names = model.param_names
    extra = np.zeros(len(names))
    extra[names.index("sigma_eps")] = np.sum(A * sigma_at.T) / ny.sigma**3
    extra[names.index("sigma")] = np.sum(np.sum(K * sigma_kt.T, axis=1) / v_w) / nw.sigma**3
    for name, dK in model.op.dK.items():
        cross = np.sum(dK.toarray() * sigma_kt.T, axis=1)
        extra[names.index(name)] = -np.sum(cross / v_w) / nw.sigma**2
    g = augmented_grad(model, None, Y, LatentState(W=mean, V_W=v_w, V_Y=v_y))
    g = g + extra * jacobian_natural(model.theta_natural(), model.transform_tags)
    _, pg = prior_grad(model.priors, model.theta_unconstrained(), names)
    return -g - pg
