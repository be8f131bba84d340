import json
import math
from dataclasses import replace

import numpy as np
import pytest

from optivote import cli
from optivote.config import (
    ChannelConfig, Config, config_hash, load_config, parse_config, resolved_json,
)
from optivote.errors import ConfigError

from conftest import UNIT_CFSPL


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def fast_config(tmp_path, **extra):
    data = {
        "channel": {"c_fspl": UNIT_CFSPL},
        "learner": {"dataset": {"n": 200, "n_test": 100, "d": 8,
                                "num_classes": 4}},
        "run": {"M": 6, "m": 3, "rounds": 3, "d_b": 8},
        "output": {"dir": str(tmp_path / "out")},
    }
    data.update(extra)
    return write_config(tmp_path, data)


class TestConfigSchema:
    def test_empty_dict_gets_all_defaults(self):
        cfg = load_config({})
        assert cfg.run.M == 20
        assert cfg.run.m == 4
        assert cfg.power.p_avg == 1.0
        assert cfg.channel.a0 == 0.9
        assert cfg.learner.dataset.type == "synthetic"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="run.etaa"):
            load_config({"run": {"etaa": 0.1}})

    def test_power_ordering_error_names_field(self):
        with pytest.raises(ConfigError, match="power"):
            load_config({"power": {"p_min": 3.0}})

    def test_m_bounds_error(self):
        with pytest.raises(ConfigError, match="run"):
            load_config({"run": {"M": 2, "m": 5}})

    def test_mnist_requires_paths(self):
        with pytest.raises(ConfigError, match="train_images"):
            load_config({"learner": {"dataset": {"type": "mnist"}}})

    def test_negative_seed_rejected_at_load(self):
        with pytest.raises(ConfigError, match="run.seed"):
            load_config({"run": {"seed": -1}})

    def test_theorem1_requires_smoothness_estimate(self):
        with pytest.raises(ConfigError, match="L1_estimate"):
            load_config({"run": {"lr": "theorem1"}})

    def test_resolved_json_round_trip(self):
        cfg = load_config({"run": {"seed": 3, "eta": 0.01}})
        again = load_config(json.loads(resolved_json(cfg)))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_changes_with_config(self):
        a = config_hash(load_config({}))
        b = config_hash(load_config({"run": {"seed": 1}}))
        assert a != b and len(a) == 16

    def test_dotted_overrides(self):
        cfg = load_config({}, overrides={"run.seed": 7, "channel.a0": 0.5})
        assert cfg.run.seed == 7
        assert cfg.channel.a0 == 0.5

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"run": {"seed": 1}}, overrides={"run.seed.x": 2})

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_parse_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    def test_channel_range_checked_at_load(self):
        with pytest.raises(ConfigError, match="channel.c_fspl: Input should be greater than 0"):
            load_config({"channel": {"c_fspl": -1}})

    def test_range_error_names_config_keys(self):
        with pytest.raises(ConfigError,
                           match="channel.d_min_km / channel.d_max_km"):
            load_config({"channel": {"d_min_km": 3000}})
        with pytest.raises(ConfigError,
                           match="power.rho: Input should be greater than or equal to 0"):
            load_config({"power": {"rho": -1}})

    def test_local_steps_must_be_positive(self):
        with pytest.raises(ConfigError, match="learner.local_steps"):
            load_config({"learner": {"local_steps": 0}})

    def test_frame_capacity_key_rejected(self):
        with pytest.raises(ConfigError, match="run.frame_capacity"):
            load_config({"run": {"frame_capacity": 8}})

    def test_channel_unit_conversion(self):
        params = load_config({}).channel
        assert params.d_min == 500e3
        assert params.d_max == 2000e3
        assert params.fspl_constant == pytest.approx((1550e-9 / (4 * math.pi))**2)


class TestCliSimulate:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path]) == 0
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["run"]["rounds"] == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 3
        assert "final accuracy" in capsys.readouterr().out

    def test_dotted_override_applies(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--run.rounds", "1"]) == 0
        metrics = (tmp_path / "out" / "metrics.csv").read_text()
        assert len(metrics.strip().split("\n")) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path = fast_config(tmp_path)
        monkeypatch.setenv("OPTIVOTE_SEED", "42")
        assert cli.main(["simulate", "--config", cfg_path]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 42

    def test_bad_env_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        cfg_path = fast_config(tmp_path)
        monkeypatch.setenv("OPTIVOTE_SEED", "abc")
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert "OPTIVOTE_SEED" in capsys.readouterr().err

    def test_negative_seed_override_exits_one(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path, "--run.seed", "-1"]) == 1
        assert "run.seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_env_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        cfg_path = fast_config(tmp_path)
        monkeypatch.setenv("OPTIVOTE_SEED", "-1")
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert "run.seed" in capsys.readouterr().err

    def test_bad_channel_rejected_before_writing(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path, channel={"c_fspl": -1})
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert "channel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejected_run_writes_nothing(self, tmp_path, capsys):
        # the config loads, but build_data finds an empty shard
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--run.M", "3000"]) == 1
        assert "run.M" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replay_is_byte_identical(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        cli.main(["simulate", "--config", cfg_path])
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        cli.main(["simulate", "--config", cfg_path])
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first

    def test_dump_flags_emit_csvs(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--output.dump_power", "true",
                         "--output.dump_slots", "true"]) == 0
        power = (tmp_path / "out" / "power.csv").read_text().strip().split("\n")
        assert power[0] == "round,node_id,p,a"
        assert len(power) == 1 + 3 * 6  # rounds * M
        slots = (tmp_path / "out" / "slots.csv").read_text().strip().split("\n")
        assert slots[0] == "round,coord,e_plus,e_minus,delta"

    def test_rerun_replaces_files(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--output.dump_power", "true"]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--run.rounds", "1",
                         "--output.dump_power", "true"]) == 0
        out = tmp_path / "out"
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 1
        assert len((out / "power.csv").read_text().splitlines()) == 1 + 6
        assert json.loads((out / "summary.json").read_text())["rounds"] == 1
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["run"]["rounds"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]

    @pytest.mark.parametrize("present, missing", [
        (0, "train_images"), (3, "test_labels")])
    def test_missing_idx_file_exits_one_before_data_build(self, tmp_path, capsys,
                                                          monkeypatch, present, missing):
        def no_load(*args):
            raise AssertionError("read IDX data before checking every path")

        monkeypatch.setattr(cli.orchestrator.learner, "load_mnist_idx", no_load)
        keys = ["train_images", "train_labels", "test_images", "test_labels"]
        dataset = {"type": "mnist", **{k: str(tmp_path / k) for k in keys}}
        for key in keys[:present]:
            (tmp_path / key).write_bytes(b"")
        cfg_path = fast_config(tmp_path, learner={"dataset": dataset})
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"learner.dataset.{missing}: mnist needs an IDX file" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("run.eta", "NaN", "run.eta: Input should be a finite number"),
        ("channel.sigma_n2", "Infinity", "channel.sigma_n2: Input should be a finite number"),
        ("power.rho", "Infinity", "power.rho: Input should be a finite number"),
        ("run.L1_estimate", "-1", "run.L1_estimate: Input should be greater than 0"),
        ("learner.model.hidden", "0",
         "learner.model.hidden: Input should be greater than or equal to 1"),
        ("run.eta", "0", "run.eta: Input should be greater than 0"),
        ("learner.partition.labels_per_node", "0",
         "learner.partition.labels_per_node: Input should be greater than or equal to 1"),
        ("learner.dataset.n_test", "0",
         "learner.dataset.n_test: Input should be greater than or equal to 1"),
    ])
    def test_bad_value_exits_one_before_data_build(self, tmp_path, capsys, monkeypatch,
                                                    key, value, message):
        def no_data(cfg):
            raise AssertionError("built the data before rejecting the config")

        monkeypatch.setattr(cli.orchestrator, "build_data", no_data)
        cfg_path = fast_config(tmp_path)
        extra = {"run.L1_estimate": ["--run.lr", '"theorem1"'],
                 "learner.model.hidden": ["--learner.model.arch", '"mlp"']}.get(key, [])
        assert cli.main(["simulate", "--config", cfg_path, *extra,
                         f"--{key}", value]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("channel.d_min_km", "0", "channel.d_min_km: Input should be greater than 0"),
        ("channel.d_max_km", "100", "channel.d_min_km / channel.d_max_km: require"),
        ("channel.lambda_opt_nm", "0", "channel.lambda_opt_nm: Input should be greater than 0"),
        ("channel.a0", "0", "channel.a0: Input should be greater than 0"),
        ("channel.a0", "1.5", "channel.a0: Input should be less than or equal to 1"),
        ("channel.xi_p", "0", "channel.xi_p: Input should be greater than 0"),
        ("channel.sigma_n2", "-0.1",
         "channel.sigma_n2: Input should be greater than or equal to 0"),
        ("channel.c_fspl", "-1", "channel.c_fspl: Input should be greater than 0"),
        ("channel.d_max_km", "1e200", "channel.d_min_km / channel.d_max_km / channel.a0"),
        ("channel.xi_p", "1e-200", "channel.d_min_km / channel.d_max_km / channel.a0"),
        ("power.p_min", "0", "power.p_min: Input should be greater than 0"),
        ("power.p_avg", "5", "power.p_min / power.p_avg / power.p_max: require"),
        ("power.rho", "-0.1", "power.rho: Input should be greater than or equal to 0"),
    ])
    def test_range_rejected_before_data_build(self, tmp_path, capsys, monkeypatch,
                                              key, value, message):
        def no_data(cfg):
            raise AssertionError("built the data before rejecting the config")

        monkeypatch.setattr(cli.orchestrator, "build_data", no_data)
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path, f"--{key}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_rerun_without_dumps_removes_old_dumps(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path, "--run.rounds", "2",
                         "--output.dump_power", "true",
                         "--output.dump_slots", "true"]) == 0
        assert cli.main(["simulate", "--config", cfg_path]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.csv", "resolved_config.json", "summary.json"]
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_dir_through_a_file_exits_one_at_load(self, tmp_path, capsys,
                                                         monkeypatch, below):
        def no_build(cfg):
            raise AssertionError("built the data before rejecting output.dir")

        monkeypatch.setattr(cli.orchestrator, "build_data", no_build)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--output.dir", str(blocker / below)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: output.dir: {str(blocker)!r} exists and is not a directory\n"
        assert blocker.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_override_exits_one(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--run.bogus", "1"]) == 1
        assert "run.bogus" in capsys.readouterr().err

    def test_bare_unknown_flag_exits_one(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path, "--bogus", "1"]) == 1


class TestCliTheory:
    def test_error_bound(self, capsys):
        assert cli.main(["theory", "--op", "error_bound",
                         "--M", "10", "--xi", "1.0", "--q", "0.2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"error_bound": 0.25}

    def test_convergence_bound(self, capsys):
        assert cli.main(["theory", "--op", "convergence_bound",
                         "--M", "20", "--xi", "1.0", "--L1", "10",
                         "--gap", "5", "--sigma-l1", "2",
                         "--N", "400", "--gamma", "4"]) == 0
        value = json.loads(capsys.readouterr().out)["convergence_bound"]
        hand = (0.55 * math.sqrt(10.0) * 7.0
                + (2.0 * math.sqrt(2.0) / 3.0) * 4.0) / 20.0
        assert value == pytest.approx(hand, abs=1e-12)

    def test_lambda_eff_matches_oracle(self, capsys):
        args = ["--d-min-km", "500", "--d-max-km", "2000",
                "--a0", "0.9", "--xi-p", "1.5", "--c-fspl", str(UNIT_CFSPL)]
        assert cli.main(["theory", "--op", "lambda_eff", *args]) == 0
        closed = json.loads(capsys.readouterr().out)["lambda_eff"]
        assert cli.main(["theory", "--op", "lambda_oracle", *args]) == 0
        oracle = json.loads(capsys.readouterr().out)["lambda_oracle"]
        assert closed == pytest.approx(oracle, rel=1e-9)

    def test_bad_channel_flag_exits_one(self, capsys):
        assert cli.main(["theory", "--op", "lambda_eff", "--a0", "1.5"]) == 1
        assert "channel" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--d-max-km", "1e200"], ["--xi-p", "1e-200"]])
    def test_unusable_channel_exits_one(self, capsys, flags):
        assert cli.main(["theory", "--op", "lambda_eff", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: channel.d_min_km / channel.d_max_km")
        assert "is not a positive finite number" in err and err.count("\n") == 1

    def test_domain_error_exits_one(self, capsys):
        assert cli.main(["theory", "--op", "error_bound", "--q", "0.9"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliSweep:
    def test_sweep_csv(self, capsys):
        assert cli.main(["sweep", "--op", "error_bound",
                         "--param", "M=5,10", "--param", "q=0.1,0.2",
                         "--xi", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "M,q,error_bound"
        assert len(lines) == 5  # header + 2x2 grid

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--op", "error_bound",
                         "--param", "xi=0.5,1,2", "--output", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 4

    def test_bad_param_spec(self, capsys):
        assert cli.main(["sweep", "--op", "error_bound", "--param", "M"]) == 1

    def test_csv_bytes(self, capsys):
        assert cli.main(["sweep", "--op", "error_bound", "--param", "xi=0.5,1,2"]) == 0
        assert capsys.readouterr().out == (
            "xi,error_bound\n0.5,0.2857142857142857\n1,0.25\n2,0.22727272727272727\n")

    def test_axis_values_print_as_typed(self, capsys):
        assert cli.main(["sweep", "--op", "theta", "--param", "lam=1e-3,2.50",
                         "--param", "p_avg=01"]) == 0
        assert capsys.readouterr().out == (
            "lam,p_avg,theta\n1e-3,01,0.001\n2.50,01,2.5\n")

    @pytest.mark.parametrize("spec, message", [
        ("foo=1,2", "--param foo: not a theory flag"),
        ("M=2.5", "--param M: invalid literal for int()"),
        ("M=10,abc", "--param M: invalid literal for int()"),
        ("xi=1,abc", "--param xi: could not convert string to float"),
    ])
    def test_bad_axis_exits_one_naming_it(self, capsys, spec, message):
        assert cli.main(["sweep", "--op", "error_bound", "--param", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_theory_is_the_one_point_sweep(self, capsys):
        flags = ["--M", "7", "--q", "0.1", "--xi", "2.5"]
        assert cli.main(["theory", "--op", "error_bound", *flags]) == 0
        value = json.loads(capsys.readouterr().out)["error_bound"]
        assert cli.main(["sweep", "--op", "error_bound", *flags,
                         "--param", "M=7"]) == 0
        assert capsys.readouterr().out == f"M,error_bound\n7,{value}\n"

    def test_flags_match_the_table(self):
        parser = cli.build_parser()
        for command in ("theory", "sweep"):
            args = parser.parse_args([command, "--op", "theta"])
            for name, (kind, default) in cli.THEORY_FLAGS.items():
                assert getattr(args, name) == default
            assert args.typed == []
            typed = parser.parse_args([command, "--op", "theta", "--d-b", "4",
                                       "--sigma-n2", "0.5"])
            assert (typed.d_b, typed.sigma_n2) == (4, 0.5)
            assert typed.typed == ["d_b", "sigma_n2"]
        assert len(cli.THEORY_FLAGS) == 24

    def test_every_flag_is_read_by_some_op(self):
        reads = {name for flags, _ in cli.THEORY_OPS.values() for name in flags}
        assert reads == set(cli.THEORY_FLAGS)

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--op", "theta", "--param", "M=4,10,50"], "M"),
        (["theory", "--op", "error_bound", "--lam", "99", "--d-min-km", "7"], "lam"),
        (["theory", "--op", "error_bound", "--M", "5", "--d-min-km", "7"], "d-min-km"),
        (["theory", "--op", "lambda_eff", "--sigma-n2", "0.5"], "sigma-n2"),
        (["sweep", "--op", "q_bound", "--xi", "1", "--param", "d_b=1,4"], "xi"),
    ])
    def test_unread_flag_or_axis_exits_one(self, capsys, argv, flag):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --op {argv[2]} does not read --{flag}\n"

    def test_repeated_axis_exits_one(self, capsys):
        assert cli.main(["sweep", "--op", "error_bound", "--param", "M=4,10",
                         "--param", "M=50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --param M: the axis is repeated\n"

    def test_channel_flag_defaults_are_the_configs(self):
        for name, field in ChannelConfig.model_fields.items():
            assert cli.THEORY_FLAGS[name] == (float, field.default)
        args = cli.build_parser().parse_args(["theory", "--op", "lambda_eff"])
        assert {k: getattr(args, k) for k in ChannelConfig.model_fields} == \
            ChannelConfig().model_dump()

    def test_tuple_op_gets_one_column_per_element(self, capsys):
        assert cli.main(["sweep", "--op", "energy_means", "--param", "m_plus=1,2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m_plus,energy_means_0,energy_means_1"
        assert lines[1:] == ["1,1.1,0.1", "2,2.1,0.1"]
        # Each op sweeps a flag it reads.
        axes = {"theta": "lam=1,2", "energy_means": "m_minus=0,1",
                "error_bound": "M=4,5", "q_bound": "d_b=1,4",
                "error_bound_full": "M=4,5", "corollary1_check": "M=4,5",
                "convergence_bound": "M=4,5", "lambda_eff": "a0=0.5,0.9",
                "lambda_oracle": "a0=0.5,0.9"}
        assert sorted(axes) == sorted(cli.THEORY_OPS)
        for op, axis in axes.items():
            assert cli.main(["sweep", "--op", op, "--param", axis]) == 0
            header, *rows = capsys.readouterr().out.splitlines()
            assert rows and all(row.count(",") == header.count(",") for row in rows)


class TestCliVerify:
    def test_small_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        code = cli.main(["verify", "--samples", "20000", "--output", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert all(r["passed"] for r in reports)

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        assert cli.main(["verify", "--seed", "-1", "--output", str(out)]) == 1
        assert "error: --seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_one_before_drawing(self, tmp_path, capsys,
                                                         monkeypatch, threads):
        def no_suite(*args, **kwargs):
            raise AssertionError("ran the suite before validating --threads")

        monkeypatch.setattr(cli.montecarlo, "run_default_suite", no_suite)
        out = tmp_path / "reports.json"
        assert cli.main(["--threads", threads, "verify", "--output", str(out)]) == 1
        assert "error: --threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_reach_the_kernel(self, tmp_path, monkeypatch):
        seen = []

        def record(samples, seed, threads):
            seen.append(threads)
            return []

        monkeypatch.setattr(cli.montecarlo, "run_default_suite", record)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5, 7},
                            raising=False)
        out = str(tmp_path / "reports.json")
        assert cli.main(["--threads", "3", "verify", "--output", out]) == 0
        assert cli.main(["verify", "--output", out]) == 0
        assert seen == [3, 4]  # the default: the CPUs this process may use

    def test_threads_default_without_affinity_is_cpu_count(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
        assert cli.build_parser().parse_args(["verify"]).threads == 6
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.build_parser().parse_args(["verify"]).threads == 1

    def test_too_few_samples_exits_one(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        assert cli.main(["verify", "--samples", "9999", "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestCliNumericError:
    def test_failed_dumped_run_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # Round 0 finishes and writes its dump rows; round 1 fails.
        step, steps = cli.orchestrator.learner.apply_update, []

        def blow_up_second_step(model, direction, eta):
            steps.append(eta)
            model = step(model, direction, eta)
            return model if len(steps) < 2 else replace(model, w=model.w * np.inf)

        monkeypatch.setattr(cli.orchestrator.learner, "apply_update", blow_up_second_step)
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path, "--output.dump_power", "true",
                         "--output.dump_slots", "true"]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric error: round 1: the model after the step")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_overflowing_step_exits_three_naming_round(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path, "--run.eta", "1e308",
                         "--run.rounds", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: round ")


class TestCliPartitionInspect:
    def test_noniid_histograms(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "channel": {"c_fspl": UNIT_CFSPL},
            "learner": {"dataset": {"n": 240, "n_test": 100, "d": 8,
                                    "num_classes": 4},
                        "partition": {"mode": "noniid"}},
            "run": {"M": 6, "m": 3, "rounds": 0, "d_b": 8},
        })
        assert cli.main(["partition-inspect", "--config", cfg_path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert len(info) == 6
        for node in info:
            assert len(node["labels"]) <= 2
            assert node["samples"] == sum(node["labels"].values())

    def test_empty_shard_names_keys(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["partition-inspect", "--config", cfg_path,
                         "--run.M", "300"]) == 1
        assert "run.M" in capsys.readouterr().err
