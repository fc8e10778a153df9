"""Acceptance suite: each test enforces one release criterion at its
stated tolerance and prints a PASS/FAIL line (visible with pytest -s)."""

import time

import numpy as np
import pytest
from scipy import optimize, sparse, stats

from nglatent.distributions import GigParams, NoiseSpec, gig_logpdf, noise_kld
from nglatent.gibbs import GibbsChain, conditional_v_gig_params, gibbs_run, lockstep_sweep
from nglatent.gradients import _rb_gradients, augmented_grad, augmented_loglik, mc_gradient
from nglatent.inference import (
    FitOptions,
    SgldOptions,
    drift_check,
    grad_inner_stat,
    map_fit,
    rhat,
    sgld_sample,
)
from nglatent.mesh import build_interval_mesh
from nglatent.model import assemble_model, flat_priors, simulate
from nglatent.operators import (
    ar1_operator,
    bivariate_operator,
    matern_operator,
    ou_operator,
    tensor_operator,
)
from nglatent.prediction import crps_sample
from nglatent.transforms import to_natural, to_unconstrained


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def benchmark_generator(N=500):
    return assemble_model(
        A=sparse.identity(N, format="csr"),
        X=np.zeros((N, 0)),
        op=ar1_operator(0.8, N),
        noise_w=NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4),
        noise_y=NoiseSpec("gaussian", sigma=1.0),
    )


@pytest.mark.slow
def test_criterion_01_benchmark_parameter_recovery():
    t0 = time.time()
    gen = benchmark_generator()
    Y, _ = simulate(gen, rng=np.random.default_rng(2))
    fit_model = assemble_model(
        A=gen.A,
        X=gen.X,
        op=ar1_operator(0.3, 500),
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.0, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=1.0),
    )
    fit = map_fit(
        fit_model,
        Y,
        FitOptions(
            chains=4,
            max_iters=700,
            min_iters=250,
            k=5,
            step0=0.05,
            decay_start=350,
            seed=101,
            jitter=0.5,
            sgld_samples=2000,
            sgld_step0=2e-4,
            sgld_tau=400,
        ),
    )
    elapsed = time.time() - t0
    pm = dict(zip(fit.param_names, fit.posterior.mean(axis=0)))
    kld = noise_kld(
        NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4, h=None),
        NoiseSpec("nig", sigma=pm["sigma"], mu=pm["mu"], nu=pm["nu"], h=None),
    )
    checks = {
        "rho in (0.75, 0.85)": 0.75 < pm["phi"] < 0.85,
        "mu in (2.6, 3.4)": 2.6 < pm["mu"] < 3.4,
        "nu in (0.2, 0.6)": 0.2 < pm["nu"] < 0.6,
        "sigma_eps in (0.8, 1.2)": 0.8 < pm["sigma_eps"] < 1.2,
        "noise KLD < 0.05": kld < 0.05,
        "wall time < 120 s": elapsed < 120.0,
    }
    detail = (
        f"(mu={pm['mu']:.3f} sigma={pm['sigma']:.3f} rho={pm['phi']:.3f} "
        f"sigma_eps={pm['sigma_eps']:.3f} nu={pm['nu']:.3f} KLD={kld:.4f} "
        f"{elapsed:.0f}s) failed={[k for k, v in checks.items() if not v]}"
    )
    report(1, "benchmark NIG-AR1 recovery", all(checks.values()), detail)


def test_criterion_02_gaussian_limit_equivalence():
    # augmented log-likelihood vs dense joint Gaussian density
    n = 50
    gen = assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(0.9, n),
        noise_w=NoiseSpec("gaussian", sigma=2.0),
        noise_y=NoiseSpec("gaussian", sigma=1.0),
    )
    Y, state = simulate(gen, rng=np.random.default_rng(9))
    ll = augmented_loglik(gen, None, Y, state)
    K = gen.op.K.toarray()
    cov_w = 4.0 * np.linalg.inv(K.T @ K)
    dense = stats.multivariate_normal(np.zeros(n), cov_w).logpdf(state.W)
    dense += stats.multivariate_normal(state.W, np.eye(n)).logpdf(Y)
    loglik_ok = abs(ll - dense) < 1e-8

    # stochastic MAP vs dense marginal-likelihood optimizer
    fit_model = assemble_model(
        A=gen.A,
        X=gen.X,
        op=ar1_operator(0.3, n),
        noise_w=NoiseSpec("gaussian", sigma=1.0),
        noise_y=NoiseSpec("gaussian", sigma=1.0),
        priors=flat_priors(("sigma_eps", "sigma", "phi")),
    )
    tags = fit_model.transform_tags

    def neg_marginal(u):
        sig_eps, sig, phi = to_natural(u, tags)
        Kd = ar1_operator(phi, n).K.toarray()
        S = sig**2 * np.linalg.inv(Kd.T @ Kd) + sig_eps**2 * np.eye(n)
        _, logdet = np.linalg.slogdet(S)
        return 0.5 * (logdet + Y @ np.linalg.solve(S, Y) + n * np.log(2 * np.pi))

    res = optimize.minimize(
        neg_marginal,
        to_unconstrained(np.array([1.0, 1.5, 0.5]), tags),
        method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-12, maxiter=5000),
    )
    oracle = to_natural(res.x, tags)
    fit = map_fit(
        fit_model,
        Y,
        FitOptions(
            chains=3, max_iters=900, min_iters=200, k=1,
            step0=0.05, decay_start=300, seed=1, jitter=0.3,
        ),
    )
    rel = np.abs(fit.theta_map - oracle) / np.abs(oracle)
    map_ok = bool(np.all(rel < 0.05))
    report(
        2,
        "Gaussian-limit equivalence",
        loglik_ok and map_ok,
        f"(|dll|={abs(ll - dense):.2e}, max rel={rel.max():.4f})",
    )


def _random_configurations(rng):
    mesh = build_interval_mesh(np.sort(rng.uniform(0, 3, 7)))
    mesh6 = build_interval_mesh(np.linspace(0, 2, 4))
    ops = [
        lambda: ar1_operator(rng.uniform(-0.8, 0.9), 6),
        lambda: ou_operator(rng.uniform(0.3, 2.0), mesh),
        lambda: matern_operator(rng.uniform(0.5, 2.5), mesh),
        lambda: tensor_operator(
            ar1_operator(rng.uniform(-0.5, 0.8), 2),
            matern_operator(rng.uniform(0.5, 2.0), mesh6),
        ),
        lambda: bivariate_operator(
            matern_operator(rng.uniform(0.5, 2.0), mesh6),
            matern_operator(rng.uniform(0.5, 2.0), mesh6),
            zeta=rng.uniform(0, 2 * np.pi),
            rho=rng.uniform(-1.5, 1.5),
        ),
    ]
    families = ["nig", "gal", "gaussian"]
    configs = []
    for i in range(10):
        op = ops[i % len(ops)]()
        fam = families[i % 3]
        kw = {"sigma": rng.uniform(0.5, 2.0)}
        if fam != "gaussian":
            kw.update(mu=rng.uniform(-2, 2), nu=rng.uniform(0.4, 2.0))
        n = op.dim
        X = rng.normal(size=(n, 2))
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=X,
            op=op,
            noise_w=NoiseSpec(fam, **kw),
            noise_y=NoiseSpec("gaussian", sigma=rng.uniform(0.5, 1.5)),
            beta=rng.normal(size=2),
        )
        configs.append(model)
    return configs


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(33)
    worst = 0.0
    for model in _random_configurations(rng):
        Y, state = simulate(model, rng=rng)
        g = augmented_grad(model, None, Y, state)
        u0 = model.theta_unconstrained()
        fd = np.empty_like(u0)
        for i in range(u0.size):
            up, dn = u0.copy(), u0.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            f_up = augmented_loglik(model, to_natural(up, model.transform_tags), Y, state)
            f_dn = augmented_loglik(model, to_natural(dn, model.transform_tags), Y, state)
            fd[i] = (f_up - f_dn) / 2e-6
        rel = np.abs(g - fd).max() / max(1.0, np.abs(fd).max())
        worst = max(worst, rel)
    report(3, "gradient vs finite differences", worst < 1e-5, f"(worst rel={worst:.2e})")


def test_criterion_04_conditional_mixing_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(10):
        family = "nig" if trial % 2 == 0 else "gal"
        nu = float(rng.uniform(0.3, 2.0))
        mu = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.5, 2.0))
        model = assemble_model(
            A=sparse.identity(4, format="csr"),
            X=np.zeros((4, 0)),
            op=ar1_operator(float(rng.uniform(-0.9, 0.9)), 4),
            noise_w=NoiseSpec(family, sigma=sigma, mu=mu, nu=nu),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        W = rng.normal(size=4) * 2.0
        p, a, b = conditional_v_gig_params(model, None, W, np.zeros(4))
        kw = model.op.K @ W
        i = int(rng.integers(0, 4))
        grid = np.geomspace(1e-7, 120.0, 8000)
        posterior = gig_logpdf(grid, GigParams(float(p[i]), float(a[i]), float(b[i])))
        prior_params = (
            GigParams(-0.5, nu, nu) if family == "nig" else GigParams(nu, 2 * nu, 0.0)
        )
        kernel = -0.5 * np.log(grid) - (kw[i] - mu * (grid - 1.0)) ** 2 / (
            2 * sigma**2 * grid
        )
        lhs = np.exp(posterior - posterior.max())
        rhs_log = gig_logpdf(grid, prior_params) + kernel
        rhs = np.exp(rhs_log - rhs_log.max())
        lhs /= np.trapezoid(lhs, grid)
        rhs /= np.trapezoid(rhs, grid)
        tv = 0.5 * np.trapezoid(np.abs(lhs - rhs), grid)
        worst = max(worst, tv)
    report(4, "mixing-variable conditional oracle", worst < 1e-3, f"(worst TV={worst:.2e})")


def test_criterion_05_gibbs_exactness_gaussian():
    n = 8
    model = assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(0.6, n),
        noise_w=NoiseSpec("gaussian", sigma=1.3),
        noise_y=NoiseSpec("gaussian", sigma=0.8),
    )
    rng = np.random.default_rng(55)
    Y, _ = simulate(model, rng=rng)
    draws = gibbs_run(rng, model, None, Y, iters=10100, burnin=100)
    W = np.array([s.W for s in draws.states])
    K = model.op.K.toarray()
    Q = K.T @ K / 1.3**2 + np.eye(n) / 0.8**2
    cov = np.linalg.inv(Q)
    mu = cov @ (Y / 0.8**2)
    m = W.shape[0]
    se_mean = np.sqrt(np.diag(cov) / m)
    mean_ok = np.all(np.abs(W.mean(axis=0) - mu) < 3 * se_mean)
    emp = np.cov(W.T)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / m)
    cov_ok = np.all(np.abs(emp - cov) < 3 * se_cov)
    report(5, "Gibbs exactness (Gaussian)", bool(mean_ok and cov_ok),
           f"(max mean dev={np.abs(W.mean(axis=0) - mu).max():.4f})")


def test_criterion_06_second_order_separability():
    kt = ar1_operator(0.7, 4)
    ks = matern_operator(0.9, build_interval_mesh(np.linspace(0, 3, 15)))
    op = tensor_operator(kt, ks)
    sigma = 1.4
    Kd = op.K.toarray()
    cov = sigma**2 * np.linalg.solve(Kd, np.diag(op.h) @ np.linalg.inv(Kd).T)
    cov_t = np.linalg.solve(kt.K.toarray(), np.diag(kt.h) @ np.linalg.inv(kt.K.toarray()).T)
    cov_s = np.linalg.solve(ks.K.toarray(), np.diag(ks.h) @ np.linalg.inv(ks.K.toarray()).T)
    kron = sigma**2 * np.kron(cov_t, cov_s)
    rel = np.abs(cov - kron).max() / np.abs(kron).max()
    report(6, "second-order separability", rel <= 1e-10, f"(rel={rel:.2e})")


def test_criterion_07_rao_blackwell_variance_ordering():
    gen = benchmark_generator()
    rng = np.random.default_rng(77)
    Y, _ = simulate(gen, rng=rng)
    chain = GibbsChain(gen, Y, rng)  # model already at the true theta
    chain.sweep(100)
    reps = 200
    g_mc = np.empty((reps, gen.n_params))
    g_rb = np.empty((reps, gen.n_params))
    for j in range(reps):
        states, conds = lockstep_sweep([chain], 5, chain.rng)[0]
        g_mc[j] = mc_gradient(gen, None, Y, states).g
        g_rb[j] = _rb_gradients([gen], Y, [states], conds=[conds]).g[0]
    tr_mc = g_mc.var(axis=0, ddof=1).sum()
    tr_rb = g_rb.var(axis=0, ddof=1).sum()
    report(
        7,
        "Rao-Blackwell variance ordering",
        tr_rb < tr_mc,
        f"(tr RB={tr_rb:.3f} < tr MC={tr_mc:.3f}, ratio={tr_rb / tr_mc:.3f})",
    )


@pytest.mark.slow
def test_criterion_08_sgld_calibration():
    n = 4
    X = np.ones((n, 1))
    model = assemble_model(
        A=sparse.identity(n, format="csr"),
        X=X,
        op=ar1_operator(0.5, n),
        noise_w=NoiseSpec("gaussian", sigma=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
    )
    gen = assemble_model(
        A=model.A, X=model.X, op=model.op,
        noise_w=model.noise_w, noise_y=model.noise_y, beta=np.array([2.0]),
    )
    Y, _ = simulate(gen, rng=np.random.default_rng(88))
    K = model.op.K.toarray()
    cov_y = np.linalg.inv(K.T @ K) + 0.25 * np.eye(n)
    prec = (X.T @ np.linalg.solve(cov_y, X)).item() + 0.1
    m_star = (X.T @ np.linalg.solve(cov_y, Y)).item() / prec
    v_star = 1.0 / prec
    # With Gaussian latent noise the RB gradient is exact and deterministic:
    # prec * (beta - m_star) after a single Gibbs sweep.
    for beta0 in (m_star - 1.0, m_star + 0.5):
        chain = GibbsChain(model, Y, np.random.default_rng(0), np.array([beta0, 0.5, 1.0, 0.5]))
        states, conds = lockstep_sweep([chain], 1, chain.rng)[0]
        g = _rb_gradients([chain.model], Y, [states], conds=[conds]).g[0, 0]
        assert abs(g - prec * (beta0 - m_star)) < 1e-10, f"RB gradient is not exact at beta={beta0}"
    # So SGLD at a constant step is the unadjusted Langevin algorithm on
    # N(m_star, v_star): unbiased in the mean, stationary variance
    # v_star / (1 - step / (2 v_star)) (Roberts & Tweedie 1996).
    step = 0.04 * v_star
    v_ula = v_star / (1.0 - step / (2.0 * v_star))
    samples = sgld_sample(
        model,
        Y,
        np.array([m_star, 0.5, 1.0, 0.5]),
        SgldOptions(
            n_samples=10000,
            step0=step,
            tau=1e12,
            k=1,
            seed=8,
            thin=8,
            fixed=("sigma_eps", "sigma", "phi"),
        ),
    )
    beta = samples[:, 0]
    mean_err = abs(beta.mean() - m_star) / max(abs(m_star), np.sqrt(v_star))
    var = beta.var(ddof=1)
    var_err = abs(var - v_ula) / v_ula
    sq_dev = (beta - beta.mean()) ** 2
    se_var = np.std(sq_dev.reshape(50, -1).mean(axis=1), ddof=1) / np.sqrt(50) / v_ula
    report(
        8,
        "SGLD conjugate calibration",
        mean_err < 0.05 and var_err < 0.05,
        f"(mean err={mean_err:.3%}, var err={var_err:.3%} vs ULA var={v_ula:.5f}, "
        f"raw var err vs v*={(var - v_star) / v_star:+.3%}, batch-means se={se_var:.3%})",
    )


def test_criterion_09_diagnostics_correctness():
    rng = np.random.default_rng(99)
    arr = np.cumsum(rng.normal(size=(4, 30, 3)), axis=1) * 0.05
    window = 10
    rr = rhat(arr, window)
    tail = arr[:, -window:, :]
    worst = 0.0
    for j in range(3):
        chains = tail[:, :, j]
        m = chains.shape[1]
        w = np.mean([np.var(c, ddof=1) for c in chains])
        b = m * np.var([np.mean(c) for c in chains], ddof=1)
        worst = max(worst, abs(rr.values[j] - np.sqrt((w + b / m) / w)))
    rhat_ok = worst < 1e-12

    g = rng.normal(size=5)
    hist_same = np.tile(g, (9, 1))
    hist_alt = np.array([g * (-1) ** t for t in range(9)])
    ip = float(g @ g)
    grad_ok = grad_inner_stat(hist_same) == pytest.approx(8 * ip) and grad_inner_stat(
        hist_alt
    ) == pytest.approx(-8 * ip)

    ramp = 0.41 * np.arange(12)
    arr_ramp = np.tile(ramp[None, :, None], (2, 1, 1))
    rep = drift_check(arr_ramp, window=12)
    drift_ok = rep.slope[0] == pytest.approx(0.41, rel=1e-12)
    report(
        9,
        "diagnostics correctness",
        bool(rhat_ok and grad_ok and drift_ok),
        f"(rhat dev={worst:.2e})",
    )


def test_criterion_10_scoring_correctness():
    rng = np.random.default_rng(1010)
    x = rng.standard_normal(100000)
    est = crps_sample(x, 0.0)
    batches = [crps_sample(b, 0.0) for b in x.reshape(100, -1)]
    se = np.std(batches, ddof=1) / np.sqrt(100)
    closed_form = np.sqrt(2 / np.pi) - 1 / np.sqrt(np.pi)  # 0.23369
    gauss_ok = abs(est - closed_form) < 3 * se
    degenerate_ok = crps_sample(np.full(100, 3.3), 3.3) == 0.0
    report(
        10,
        "scoring correctness",
        bool(gauss_ok and degenerate_ok),
        f"(crps={est:.5f} vs {closed_form:.5f}, 3se={3 * se:.5f})",
    )
