import warnings

import numpy as np
import pytest
import yaml
from scipy import sparse

from nglatent.cli import (
    EXIT_CONFIG,
    EXIT_NONCONVERGED,
    EXIT_NUMERICAL,
    RunConfig,
    build_operator,
    main,
    read_table,
    run_diagnose,
    run_fit,
    run_predict,
    run_score,
    run_simulate,
    write_table,
)
from nglatent.errors import ConfigError


def base_config(tmp_path, operator=None, n=40, sgld=0, max_iters=50):
    return {
        "seed": 11,
        "model": {
            "operator": operator or {"kind": "ar1", "phi": 0.4, "T": n},
            "noise_w": {"family": "gaussian", "sigma": 1.2},
            "noise_y": {"family": "gaussian", "sigma": 0.6},
            "covariates": [],
        },
        "data": {"path": str(tmp_path / "data.csv"), "response": "y", "index": "index"},
        "inference": {
            "chains": 2,
            "max_iters": max_iters,
            "min_iters": max_iters,
            "k": 1,
            "step0": 0.05,
            "sgld_samples": sgld,
        },
        "output": {"dir": str(tmp_path / "out")},
    }


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfig:
    def test_round_trip_is_identity_on_canonical_form(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path))
        again = RunConfig.from_dict(yaml.safe_load(cfg.to_yaml()))
        assert again == cfg

    def test_missing_seed(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict(raw)

    def test_unknown_inference_key_named(self, tmp_path):
        raw = base_config(tmp_path)
        raw["inference"]["stepsize"] = 1.0
        with pytest.raises(ConfigError, match="stepsize"):
            RunConfig.from_dict(raw)

    def test_operator_tree(self):
        op = build_operator(
            {
                "kind": "tensor",
                "outer": {"kind": "ar1", "phi": 0.5, "T": 3},
                "inner": {"kind": "matern", "kappa": 1.0, "mesh": {"start": 0, "end": 2, "n": 3}},
            }
        )
        assert op.kind == "tensor" and op.dim == 9

    def test_unknown_operator_kind(self):
        with pytest.raises(ConfigError, match="spline"):
            build_operator({"kind": "spline"})


class TestSimulate:
    def test_benchmark_config_shape_and_reproducibility(self, tmp_path):
        cfg = RunConfig.from_dict(
            {
                "seed": 42,
                "model": {
                    "operator": {"kind": "ar1", "phi": 0.8, "T": 500},
                    "noise_w": {"family": "nig", "mu": 3.0, "sigma": 2.0, "nu": 0.4},
                    "noise_y": {"family": "gaussian", "sigma": 1.0},
                },
                "output": {"dir": str(tmp_path / "a")},
            }
        )
        paths = run_simulate(cfg)
        header, rows = read_table(paths["data"])
        assert header == ["index", "y"]
        assert len(rows) == 500
        paths2 = run_simulate(cfg, out_dir=tmp_path / "b")
        assert paths["data"].read_bytes() == paths2["data"].read_bytes()
        assert paths["truth"].read_bytes() == paths2["truth"].read_bytes()

    def test_zero_observation_config_fails(self, tmp_path):
        raw = base_config(tmp_path)
        raw["model"]["operator"]["T"] = 0
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_covariates_simulated(self, tmp_path):
        raw = base_config(tmp_path)
        raw["model"]["covariates"] = ["intercept", "x1"]
        raw["simulate"] = {"beta": [2.0, -1.0]}
        cfg = RunConfig.from_dict(raw)
        paths = run_simulate(cfg)
        header, rows = read_table(paths["data"])
        assert header == ["index", "x1", "y"]


class TestFit:
    def test_end_to_end_files(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, sgld=40))
        run_simulate(cfg, out_dir=tmp_path)
        fit, paths = run_fit(cfg)
        header, rows = read_table(paths["estimates"])
        assert header == ["parameter", "estimate", "q2.5", "q97.5"]
        assert [r[0] for r in rows] == ["sigma_eps", "sigma", "phi"]
        t_header, t_rows = read_table(paths["trace"])
        assert t_header[:3] == ["chain", "iteration", "step"]
        assert t_header[3:6] == ["sigma_eps", "sigma", "phi"]
        assert len(t_rows) == 2 * len(fit.traces)
        p_header, p_rows = read_table(paths["posterior"])
        assert p_header == ["sigma_eps", "sigma", "phi"]
        assert len(p_rows) == 40
        diag = yaml.safe_load(paths["diagnostics"].read_text())
        assert set(diag["rhat"]) == {"sigma_eps", "sigma", "phi"}

    def test_missing_response_column_named(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path))
        run_simulate(cfg, out_dir=tmp_path)
        cfg.data["response"] = "wrong_name"
        path = write_config(tmp_path, cfg.to_dict())
        assert main(["fit", "--config", str(path)]) in (EXIT_CONFIG,)

    def test_flat_priors_plan_once(self, tmp_path, monkeypatch):
        import nglatent.cli as cli
        import nglatent.model as model_module
        from nglatent.model import flat_priors

        plans = []

        class CountedPlan(model_module.StructurePlan):
            def __init__(self, *args):
                plans.append(args)
                super().__init__(*args)

        monkeypatch.setattr(model_module, "StructurePlan", CountedPlan)
        raw = base_config(tmp_path, n=30, max_iters=20, sgld=10)
        raw["inference"]["priors"] = "flat"
        cfg = RunConfig.from_dict(raw)
        run_simulate(cfg, out_dir=tmp_path)
        plans.clear()
        _, paths = run_fit(cfg)
        assert len(plans) == 1

        def assembled_with_flat_priors(config, op, A, X, beta=None):
            # the model assembled from scratch with flat priors, as a
            # reference for the estimates
            model = cli.assemble_model(
                A=A, X=X, op=op, beta=beta,
                noise_w=cli.build_noise(config.model["noise_w"], "model.noise_w"),
                noise_y=cli.build_noise(config.model["noise_y"], "model.noise_y"),
            )
            return cli.assemble_model(
                A=A, X=X, op=op, beta=beta, noise_w=model.noise_w, noise_y=model.noise_y,
                priors=flat_priors(model.param_names),
            )

        monkeypatch.setattr(cli, "build_model_from_config", assembled_with_flat_priors)
        raw["output"]["dir"] = str(tmp_path / "reference")
        _, reference = run_fit(RunConfig.from_dict(raw))
        for key in ("estimates", "posterior"):
            assert paths[key].read_bytes() == reference[key].read_bytes()

    def test_missing_values_dropped(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n=10))
        run_simulate(cfg, out_dir=tmp_path)
        header, rows = read_table(cfg.data["path"])
        rows[3][1] = "NA"
        rows[7][1] = "NA"
        write_table(cfg.data["path"], header, rows)
        from nglatent.cli import _load_fit_inputs

        Y, A, X = _load_fit_inputs(cfg, n_latent=10)
        assert Y.size == 8
        assert A.shape == (8, 10)

    def test_single_chain_rhat_unavailable(self, tmp_path):
        raw = base_config(tmp_path, n=20, max_iters=30)
        raw["inference"]["chains"] = 1
        cfg = RunConfig.from_dict(raw)
        run_simulate(cfg, out_dir=tmp_path)
        fit, paths = run_fit(cfg)
        diag = yaml.safe_load(paths["diagnostics"].read_text())
        assert diag["rhat"] == "unavailable (needs >= 2 chains)"
        assert "drift" in diag and diag["S_T"] is not None

    def test_determinism_byte_identical(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n=25, max_iters=30, sgld=10))
        run_simulate(cfg, out_dir=tmp_path)
        _, p1 = run_fit(cfg, out_dir=tmp_path / "r1")
        _, p2 = run_fit(cfg, out_dir=tmp_path / "r2")
        for key in ("estimates", "trace", "posterior"):
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_nonconvergence_exit_code(self, tmp_path):
        raw = base_config(tmp_path, n=30, max_iters=20)
        raw["inference"]["min_iters"] = 20
        cfg = RunConfig.from_dict(raw)
        run_simulate(cfg, out_dir=tmp_path)
        path = write_config(tmp_path, cfg.to_dict())
        code = main(["fit", "--config", str(path)])
        if code == EXIT_NONCONVERGED:
            assert (tmp_path / "out" / "trace.csv").exists()
        else:
            assert code == 0


    def test_unknown_estimator_exit_code(self, tmp_path):
        raw = base_config(tmp_path, n=20, max_iters=10)
        raw["inference"]["estimator"] = "RB"
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_one_iteration_fit_exit_code(self, tmp_path):
        # one gradient row per chain leaves the gradient check unavailable
        raw = base_config(tmp_path, n=20, max_iters=1)
        raw["inference"].update(min_iters=0, checkpoint_every=1)
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", str(path)]) == EXIT_NONCONVERGED
        diag = yaml.safe_load((tmp_path / "out" / "diagnostics.yaml").read_text())
        assert diag["converged"] is False and diag["iterations"] == 1

    @pytest.mark.parametrize(
        "key, value",
        [("chains", 0), ("checkpoint_every", 0), ("sgld_thin", 0), ("max_iters", -1),
         ("window", 2), ("sgld_samples", -1), ("chains", "two"), ("step0", -0.1),
         ("decay_start", -5), ("decay_start", 0), ("sgld_step0", -2e-4), ("sgld_tau", 0.0),
         ("data.y", "1.5x"), ("data.index", "third")],
    )
    def test_invalid_option_exit_code(self, tmp_path, key, value):
        # an inference option, or with "data." a cell of the data file
        raw = base_config(tmp_path, n=20, max_iters=10, sgld=5)
        section, _, name = key.rpartition(".")
        if not section:
            raw["inference"][key] = value
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        if section == "data":
            header, rows = read_table(tmp_path / "data.csv")
            rows[3][header.index(name)] = value
            write_table(tmp_path / "data.csv", header, rows)
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "estimates.csv").exists()


class TestWriteTable:
    def test_float_array_bytes_equal_the_csv_writer(self, tmp_path):
        # a float array takes the joined-line path; the bytes equal those of
        # csv.writer over repr-formatted values, row by row
        import csv

        rows = np.array(
            [[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1e308], [0.1, -2.5, 1.0 / 3.0]]
        )
        header = ["a,b", 'say "x"', "plain"]
        got = write_table(tmp_path / "fast.csv", header, rows)
        want = tmp_path / "csv.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes() == write_table(tmp_path / "rows.csv", header, rows.tolist()).read_bytes()


class TestPredict:
    def test_quantile_columns_and_determinism(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n=30))
        cfg.predict["samples"] = 50
        run_simulate(cfg, out_dir=tmp_path)
        # write an estimates file directly (true parameters)
        write_table(
            tmp_path / "out" / "estimates.csv",
            ["parameter", "estimate", "q2.5", "q97.5"],
            [("sigma_eps", 0.6, "", ""), ("sigma", 1.2, "", ""), ("phi", 0.4, "", "")],
        )
        pred, paths = run_predict(cfg)
        header, rows = read_table(paths["predictions"])
        assert header == ["target", "mean", "sd", "q0.025", "q0.5", "q0.975"]
        assert len(rows) == 30
        pred2, paths2 = run_predict(cfg, out_dir=tmp_path / "p2")
        assert paths["predictions"].read_bytes() == paths2["predictions"].read_bytes()
        # the summary as formed before it was computed once for all targets:
        # the mean and sd of every target, each taken over the whole sample
        quant = pred.quantiles([0.025, 0.5, 0.975])
        rows = [
            [pred.targets[j], pred.mean()[j], pred.sd()[j]] + list(quant[:, j])
            for j in range(pred.targets.size)
        ]
        old = write_table(tmp_path / "old.csv", header, rows)
        assert paths["predictions"].read_bytes() == old.read_bytes()

    def test_small_noise_tracks_observations(self, tmp_path):
        raw = base_config(tmp_path, n=25)
        raw["model"]["noise_y"]["sigma"] = 1e-3
        cfg = RunConfig.from_dict(raw)
        cfg.predict["samples"] = 200
        run_simulate(cfg, out_dir=tmp_path)
        write_table(
            tmp_path / "out" / "estimates.csv",
            ["parameter", "estimate", "q2.5", "q97.5"],
            [("sigma_eps", 1e-3, "", ""), ("sigma", 1.2, "", ""), ("phi", 0.4, "", "")],
        )
        pred, _ = run_predict(cfg)
        header, rows = read_table(cfg.data["path"])
        y = np.array([float(r[1]) for r in rows])
        assert np.abs(pred.mean() - y).max() < 0.01

    def test_gaussian_interval_coverage(self, tmp_path):
        # held-out toy: predict the latent predictor at unobserved nodes
        # with the true parameters; 95% intervals should cover ~95%
        n = 1000
        raw = base_config(tmp_path, n=n)
        raw["seed"] = 5
        cfg = RunConfig.from_dict(raw)
        cfg.predict["samples"] = 400
        paths = run_simulate(cfg, out_dir=tmp_path)
        # observed = even indices; targets = odd indices
        header, rows = read_table(cfg.data["path"])
        data_rows = [r for r in rows if int(r[0]) % 2 == 0]
        write_table(cfg.data["path"], header, data_rows)
        targets = tmp_path / "targets.csv"
        write_table(targets, ["index"], [[i] for i in range(1, n, 2)])
        cfg.predict["targets"] = str(targets)
        write_table(
            tmp_path / "out" / "estimates.csv",
            ["parameter", "estimate", "q2.5", "q97.5"],
            [("sigma_eps", 0.6, "", ""), ("sigma", 1.2, "", ""), ("phi", 0.4, "", "")],
        )
        pred, _ = run_predict(cfg)
        t_header, t_rows = read_table(paths["truth"])
        w_true = np.array(
            [float(r[2]) for r in t_rows if r[0] == "W"]
        )[1::2]
        lo, hi = pred.quantiles([0.025, 0.975])
        coverage = np.mean((w_true >= lo) & (w_true <= hi))
        assert 0.90 <= coverage <= 0.99


class TestScore:
    def test_degenerate_and_constant_cases(self, tmp_path):
        samples = np.full((50, 3), 2.0)
        write_table(tmp_path / "s.csv", ["0", "1", "2"], [list(r) for r in samples])
        write_table(tmp_path / "t.csv", ["y"], [[2.0], [2.0], [2.0]])
        cfg = RunConfig.from_dict(
            {
                "seed": 0,
                "model": {
                    "operator": {"kind": "ar1", "phi": 0.1, "T": 2},
                    "noise_w": {"family": "gaussian", "sigma": 1.0},
                    "noise_y": {"family": "gaussian", "sigma": 1.0},
                },
                "score": {"samples": str(tmp_path / "s.csv"), "truth": str(tmp_path / "t.csv"), "response": "y"},
                "output": {"dir": str(tmp_path / "out")},
            }
        )
        rep, path = run_score(cfg)
        assert rep.mae == 0.0 and rep.mse == 0.0 and rep.crps == 0.0
        assert np.isnan(rep.scrps)
        header, rows = read_table(path)
        assert header == ["mae", "mse", "crps", "scrps"]

    def test_gaussian_scores(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((20000, 2))
        write_table(tmp_path / "s.csv", ["0", "1"], [list(r) for r in samples])
        write_table(tmp_path / "t.csv", ["y"], [[0.0], [0.0]])
        cfg = RunConfig.from_dict(
            {
                "seed": 0,
                "model": {
                    "operator": {"kind": "ar1", "phi": 0.1, "T": 2},
                    "noise_w": {"family": "gaussian", "sigma": 1.0},
                    "noise_y": {"family": "gaussian", "sigma": 1.0},
                },
                "score": {"samples": str(tmp_path / "s.csv"), "truth": str(tmp_path / "t.csv"), "response": "y"},
                "output": {"dir": str(tmp_path / "out")},
            }
        )
        rep, _ = run_score(cfg)
        assert abs(rep.crps - 0.23369) < 0.01

    @pytest.mark.parametrize(
        "samples, truth",
        [
            ([[1.0, 2.0], [1.5, 2.5]], [[1.0]]),
            ([[1.0, "2.0e"], [1.5, 2.5]], [[1.0], [2.0]]),
            ([[1.0, 2.0], [1.5]], [[1.0], [2.0]]),
            ([], [[1.0], [2.0]]),
        ],
        ids=["misaligned", "non-numeric", "ragged", "header-only"],
    )
    def test_misaligned_files(self, tmp_path, samples, truth):
        write_table(tmp_path / "s.csv", ["0", "1"], samples)
        write_table(tmp_path / "t.csv", ["y"], truth)
        raw = base_config(tmp_path)
        raw["score"] = {"samples": str(tmp_path / "s.csv"), "truth": str(tmp_path / "t.csv")}
        path = write_config(tmp_path, raw)
        assert main(["score", "--config", str(path)]) == EXIT_CONFIG


class TestDiagnose:
    def test_recompute_from_trace(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, n=20, max_iters=50))
        run_simulate(cfg, out_dir=tmp_path)
        run_fit(cfg)
        summary = run_diagnose(cfg)
        assert summary["chains"] == 2
        assert set(summary["rhat"]) == {"sigma_eps", "sigma", "phi"}
        assert np.isfinite(summary["S_T_checkpoints"])


    def test_drift_slopes_match_the_fit(self, tmp_path):
        # both report the slope per iteration, not per checkpoint
        raw = base_config(tmp_path, n=40, max_iters=60)
        raw["inference"]["checkpoint_every"] = 10
        cfg = RunConfig.from_dict(raw)
        run_simulate(cfg, out_dir=tmp_path)
        _, paths = run_fit(cfg)
        fit_drift = yaml.safe_load(paths["diagnostics"].read_text())["drift"]
        drift = run_diagnose(cfg)["drift"]
        assert drift.keys() == fit_drift.keys() == {"sigma_eps", "sigma", "phi"}
        for name, entry in fit_drift.items():
            assert abs(drift[name]["slope"] - entry["slope"]) <= 1e-12
            assert drift[name]["passed"] == entry["passed"]

    @pytest.mark.parametrize("max_iters, checkpoints", [(10, 1), (5, 0)])
    def test_short_trace(self, tmp_path, max_iters, checkpoints):
        # two chains, but fewer than two checkpoints: R-hat names the
        # missing checkpoints, in the fit and in diagnose, and diagnose's
        # S_T_checkpoints is null
        cfg = RunConfig.from_dict(base_config(tmp_path, n=30, max_iters=max_iters))
        run_simulate(cfg, out_dir=tmp_path)
        _, paths = run_fit(cfg)
        diag = yaml.safe_load(paths["diagnostics"].read_text())
        assert diag["rhat"] == "unavailable (needs >= 2 checkpoints in the window)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_diagnose(cfg)
        assert summary["checkpoints"] == checkpoints
        assert summary["S_T_checkpoints"] is None
        if checkpoints:
            assert summary["chains"] == 2
            assert summary["rhat"] == "unavailable (needs >= 2 checkpoints in the window)"
        else:  # an empty trace holds no chain
            assert summary["rhat"] == (
                "unavailable (needs >= 2 chains and >= 2 checkpoints in the window)"
            )
        path = write_config(tmp_path, cfg.to_dict())
        assert main(["diagnose", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "row",
        [[0, 1, 0.05, "abc", 0.1], ["first", 1, 0.05, 0.7, 0.1], [0, "1.5", 0.05, 0.7, 0.1]],
        ids=["parameter", "chain", "iteration"],
    )
    def test_malformed_trace_exit_code(self, tmp_path, row):
        # a cell that is not a number of its column's kind is an input error
        header = ["chain", "iteration", "step", "sigma_eps", "grad_sigma_eps"]
        write_table(tmp_path / "out" / "trace.csv", header, [[1, 1, 0.05, 0.7, 0.1], row])
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["diagnose", "--config", str(path)]) == EXIT_CONFIG


class TestMainEntry:
    def test_full_loop_via_main(self, tmp_path):
        raw = base_config(tmp_path, n=30, max_iters=40, sgld=20)
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        code = main(["fit", "--config", str(path), "--threads", "2"])
        assert code in (0, EXIT_NONCONVERGED)
        assert (tmp_path / "out" / "estimates.csv").exists()
        assert main(["predict", "--config", str(path)]) == 0
        cfg_raw = yaml.safe_load(path.read_text())
        cfg_raw["score"] = {
            "samples": str(tmp_path / "out" / "predictive_samples.csv"),
            "truth": str(tmp_path / "data.csv"),
            "response": "y",
        }
        path2 = write_config(tmp_path, cfg_raw, "config2.yaml")
        assert main(["score", "--config", str(path2)]) == 0
        assert main(["diagnose", "--config", str(path)]) == 0

    def test_one_operator_build_per_command(self, tmp_path, monkeypatch):
        import nglatent.cli as cli

        build, calls = cli.build_operator, []

        def counted(cfg, ctx="model.operator"):
            calls.append(ctx)
            return build(cfg, ctx)

        monkeypatch.setattr(cli, "build_operator", counted)
        raw = base_config(tmp_path, n=20, max_iters=10)
        write_table(tmp_path / "targets.csv", ["index"], [[0], [5]])
        raw["predict"] = {"targets": str(tmp_path / "targets.csv"), "samples": 20, "burnin": 5}
        path = write_config(tmp_path, raw)
        for command in ("simulate", "fit", "predict"):
            calls.clear()
            code = main([command, "--config", str(path), "--out", str(tmp_path)])
            assert code in (0, EXIT_NONCONVERGED)
            assert calls == ["model.operator"], command

    def test_seed_override_changes_output(self, tmp_path):
        raw = base_config(tmp_path, n=20)
        path = write_config(tmp_path, raw)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(path), "--seed", "99", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize(
        "key, value",
        [(None, None), ("seed", "eleven"), ("inference", [1, 2]),
         ("model.noise_w.sigma", "wide")],
        ids=["model-only", "seed", "inference-list", "noise-sigma"],
    )
    def test_bad_config_exit_code(self, tmp_path, key, value):
        path = tmp_path / "config.yaml"
        if key is None:
            path.write_text("model: {}\n")
        else:
            raw = base_config(tmp_path)
            *parents, name = key.split(".")
            node = raw
            for parent in parents:
                node = node[parent]
            node[name] = value
            write_config(tmp_path, raw)
        for command in ("simulate", "fit"):
            assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
