import numpy as np
import pytest
from scipy import sparse

from nglatent.distributions import NoiseSpec
from nglatent.errors import AssemblyError
from nglatent.mesh import build_interval_mesh
from nglatent.model import assemble_model, default_priors, flat_priors, simulate
from nglatent.operators import ar1_operator, matern_operator, tensor_operator


def nig_ar1_model(T=500, phi=0.8, mu=3.0, sigma=2.0, nu=0.4, sigma_eps=1.0):
    op = ar1_operator(phi, T)
    return assemble_model(
        A=sparse.identity(T, format="csr"),
        X=np.zeros((T, 0)),
        op=op,
        noise_w=NoiseSpec("nig", sigma=sigma, mu=mu, nu=nu),
        noise_y=NoiseSpec("gaussian", sigma=sigma_eps),
    )


class TestAssembleModel:
    def test_nig_ar1_parameter_count(self):
        T = 500
        op = ar1_operator(0.8, T)
        model = assemble_model(
            A=sparse.identity(T, format="csr"),
            X=np.ones((T, 1)),
            op=op,
            noise_w=NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        assert model.param_names == ("beta[0]", "sigma_eps", "mu", "sigma", "nu", "phi")
        assert model.n_params == 6

    def test_wrong_observation_columns(self):
        op = ar1_operator(0.5, 4)
        with pytest.raises(AssemblyError, match="observation matrix"):
            assemble_model(
                A=sparse.identity(5, format="csr"),
                X=np.zeros((5, 0)),
                op=op,
                noise_w=NoiseSpec("gaussian", sigma=1.0),
                noise_y=NoiseSpec("gaussian", sigma=1.0),
            )

    def test_gaussian_noise_drops_mu_nu(self):
        op = ar1_operator(0.5, 4)
        model = assemble_model(
            A=sparse.identity(4, format="csr"),
            X=np.zeros((4, 0)),
            op=op,
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        assert model.param_names == ("sigma_eps", "sigma", "phi")

    def test_missing_prior_named(self):
        op = ar1_operator(0.5, 4)
        with pytest.raises(AssemblyError, match="phi"):
            assemble_model(
                A=sparse.identity(4, format="csr"),
                X=np.zeros((4, 0)),
                op=op,
                noise_w=NoiseSpec("gaussian", sigma=1.0),
                noise_y=NoiseSpec("gaussian", sigma=1.0),
                priors=flat_priors(["sigma_eps", "sigma"]),
            )

    def test_rectangular_operator_rejected(self):
        from nglatent.operators import rw_operator

        op = rw_operator(1, build_interval_mesh([0.0, 1.0, 2.0]))
        with pytest.raises(AssemblyError, match="square"):
            assemble_model(
                A=sparse.identity(3, format="csr"),
                X=np.zeros((3, 0)),
                op=op,
                noise_w=NoiseSpec("gaussian", sigma=1.0),
                noise_y=NoiseSpec("gaussian", sigma=1.0),
            )

    def test_noise_y_weights_must_be_ones(self):
        op = ar1_operator(0.5, 3)
        with pytest.raises(AssemblyError, match="measurement"):
            assemble_model(
                A=sparse.identity(3, format="csr"),
                X=np.zeros((3, 0)),
                op=op,
                noise_w=NoiseSpec("gaussian", sigma=1.0),
                noise_y=NoiseSpec("gaussian", sigma=1.0, h=np.array([1.0, 2.0, 1.0])),
            )

    def test_kernel_composition_names(self):
        op = tensor_operator(
            ar1_operator(0.5, 3), matern_operator(1.0, build_interval_mesh([0, 1, 2]))
        )
        model = assemble_model(
            A=sparse.identity(9, format="csr"),
            X=np.zeros((9, 0)),
            op=op,
            noise_w=NoiseSpec("gaussian", sigma=1.0),
            noise_y=NoiseSpec("gaussian", sigma=1.0),
        )
        assert model.param_names[-2:] == ("outer.phi", "inner.kappa")


class TestThetaRoundTrip:
    def test_with_theta_rebuilds(self):
        model = nig_ar1_model(T=20)
        theta = model.theta_natural()
        assert np.allclose(theta, [1.0, 3.0, 2.0, 0.4, 0.8])
        theta2 = theta.copy()
        theta2[-1] = 0.3
        m2 = model.with_theta(theta2)
        assert m2.op.params["phi"] == pytest.approx(0.3)
        assert np.allclose(m2.theta_natural(), theta2)
        # original untouched
        assert model.op.params["phi"] == pytest.approx(0.8)

    @pytest.mark.parametrize("process", ["gaussian", "nig", "gal"])
    @pytest.mark.parametrize("measurement", ["gaussian", "nig"])
    def test_layout_block_by_block(self, process, measurement):
        # beta, then the measurement block's sigma_eps alone (whatever its
        # family), then the process block's own parameters, then the kernel
        def noise(family, sigma, mu, nu):
            kw = {} if family == "gaussian" else {"mu": mu, "nu": nu}
            return NoiseSpec(family, sigma=sigma, **kw)

        model = assemble_model(
            A=sparse.identity(5, format="csr"),
            X=np.ones((5, 1)),
            op=ar1_operator(0.5, 5),
            noise_w=noise(process, 1.3, -0.7, 0.6),
            noise_y=noise(measurement, 0.4, 0.2, 2.0),
            beta=np.array([0.25]),
        )
        block = ("sigma",) if process == "gaussian" else ("mu", "sigma", "nu")
        tags = {"mu": "identity", "sigma": "log", "nu": "log"}
        assert model.param_names == ("beta[0]", "sigma_eps", *block, "phi")
        assert model.transform_tags == (
            "identity", "log", *(tags[k] for k in block), "stationary-logit"
        )
        theta = model.theta_natural()
        values = {"mu": -0.7, "sigma": 1.3, "nu": 0.6}
        assert list(theta) == [0.25, 0.4, *(values[k] for k in block), 0.5]
        again = model.with_theta(theta)
        assert np.array_equal(again.theta_natural(), theta)
        for old, new in ((model.noise_w, again.noise_w), (model.noise_y, again.noise_y)):
            # a NIG measurement block keeps its mu and nu fixed
            assert (new.family, new.mu, new.sigma, new.nu) == (old.family, old.mu, old.sigma, old.nu)

    def test_nu_prior_rate_uses_median_weight(self):
        model = nig_ar1_model(T=10)
        prior = model.priors.entries["nu"]
        assert prior.rate == pytest.approx(np.log(2.0))


class TestSimulate:
    def test_independent_sum_variance(self):
        n = 10000
        op = ar1_operator(0.0, n)
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=op,
            noise_w=NoiseSpec("gaussian", sigma=1.5),
            noise_y=NoiseSpec("gaussian", sigma=0.7),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(0))
        target = 1.5**2 + 0.7**2
        se = target * np.sqrt(2.0 / n)
        assert abs(Y.var() - target) < 3 * se

    def test_benchmark_design_reproducible(self):
        model = nig_ar1_model()
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        y1, s1 = simulate(model, rng=rng1)
        y2, s2 = simulate(model, rng=rng2)
        assert y1.shape == (500,)
        assert np.array_equal(y1, y2)
        assert np.array_equal(s1.W, s2.W)
        assert np.array_equal(s1.V_W, s2.V_W)

    def test_different_seeds_differ(self):
        model = nig_ar1_model(T=50)
        y1, _ = simulate(model, rng=np.random.default_rng(1))
        y2, _ = simulate(model, rng=np.random.default_rng(2))
        assert not np.array_equal(y1, y2)

    @pytest.mark.parametrize("family", ["gaussian", "nig", "gal"])
    def test_process_noise_centered(self, family):
        n = 40000
        op = ar1_operator(0.5, n)
        kw = {"sigma": 1.2} if family == "gaussian" else {"sigma": 1.2, "mu": 2.0, "nu": 0.8}
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=np.zeros((n, 0)),
            op=op,
            noise_w=NoiseSpec(family, **kw),
            noise_y=NoiseSpec("gaussian", sigma=0.5),
        )
        _, state = simulate(model, rng=np.random.default_rng(3))
        eps_w = model.op.K @ state.W
        se = eps_w.std() / np.sqrt(n)
        assert abs(eps_w.mean()) < 3 * se

    def test_gaussian_mixing_fixed_at_h(self):
        model = nig_ar1_model(T=30)
        _, state = simulate(model, rng=np.random.default_rng(5))
        assert np.array_equal(state.V_Y, np.ones(30))
        assert np.all(state.V_W > 0)

    def test_covariates_enter_mean(self):
        n = 2000
        op = ar1_operator(0.0, n)
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        model = assemble_model(
            A=sparse.identity(n, format="csr"),
            X=X,
            op=op,
            noise_w=NoiseSpec("gaussian", sigma=0.1),
            noise_y=NoiseSpec("gaussian", sigma=0.1),
            beta=np.array([4.0, -2.0]),
        )
        Y, _ = simulate(model, rng=np.random.default_rng(8))
        coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
        assert np.allclose(coef, [4.0, -2.0], atol=0.05)


class TestPriors:
    def test_normal_prior_gradient(self):
        from nglatent.model import NormalPrior

        prior = NormalPrior(0.0, 10.0)
        assert prior.logpdf_grad(0.0)[1] == 0.0
        assert prior.logpdf_grad(2.0)[1] == pytest.approx(-0.2)

    def test_default_priors_fill_all(self):
        names = ("beta[0]", "sigma_eps", "mu", "sigma", "nu", "phi")
        ps = default_priors(names, np.array([0.5, 1.0, 2.0]))
        assert set(ps.entries) == set(names)
        assert ps.entries["nu"].rate == pytest.approx(np.log(2.0) / 1.0)
