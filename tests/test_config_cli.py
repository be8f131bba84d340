import hashlib
import inspect
import json
import math
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from optivote import cli, learner, theory
from optivote.config import (
    ChannelConfig, Config, config_hash, load_config, parse_config, resolved_json,
)
from optivote.errors import ConfigError
from optivote.montecarlo import unit_channel

from conftest import UNIT_CFSPL, write_idx

ROOT = Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("key", ["train_images", "train_labels",
                                     "test_images", "test_labels"])
    def test_synthetic_rejects_idx_path(self, key):
        with pytest.raises(ConfigError) as err:
            load_config({"learner": {"dataset": {"type": "synthetic", key: "/nonexistent"}}})
        assert str(err.value).startswith(f"learner.dataset.type / learner.dataset.{key}: ")

    def test_constant_lr_rejects_smoothness_estimate(self):
        with pytest.raises(ConfigError) as err:
            load_config({"run": {"lr": "constant", "L1_estimate": 2.0}})
        assert str(err.value).startswith("run.lr / run.L1_estimate: ")
        assert load_config({"run": {"lr": "theorem1", "L1_estimate": 2.0}}).run.L1_estimate == 2.0

    def test_resolved_json_round_trip(self):
        cfg = load_config({"run": {"seed": 3, "eta": 0.01}})
        again = load_config(json.loads(resolved_json(cfg)))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("name, digest, resolved", [
        ("default", "6b2cdb24ec706ef8",
         "3cf7535ed0c32da6ee85efb1b93d2cc26592fea3f0db9b9feb3def002b89058a"),
        ("mnist_full", "86aa6bf7a24bf2b5",
         "6482fddad39542d5f56f725b89260cf0194c0354799651538b5278f74f98fdc7"),
    ])
    def test_bundled_configs_keep_hash_and_resolved_bytes(self, name, digest, resolved):
        # The values the pydantic schema gave; mnist_full's IDX paths need only exist.
        path = ROOT / "configs" / f"{name}.json"
        for key, value in json.loads(path.read_text())["learner"]["dataset"].items():
            if key.endswith(("_images", "_labels")):
                Path(value).parent.mkdir(parents=True, exist_ok=True)
                Path(value).touch()
        cfg = parse_config(path)
        assert config_hash(cfg) == digest
        assert hashlib.sha256(resolved_json(cfg).encode()).hexdigest() == resolved

    @pytest.mark.parametrize("path", ["configs/default.json", "configs/mnist_full.json",
                                      "perfbench/mnist_shape.json"])
    def test_bundled_and_benchmark_configs_load(self, path):
        # mnist_full's relative IDX paths need only exist, here in the test's directory.
        for key, value in json.loads((ROOT / path).read_text())["learner"]["dataset"].items():
            if key.endswith(("_images", "_labels")):
                Path(value).parent.mkdir(parents=True, exist_ok=True)
                Path(value).touch()
        cfg = parse_config(ROOT / path)
        assert load_config(json.loads(resolved_json(cfg))) == cfg

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

    def test_wavelength_and_c_fspl_are_exclusive(self):
        both = "channel.lambda_opt_nm / channel.c_fspl: set one of the two"
        with pytest.raises(ConfigError, match=both):
            load_config({"channel": {"lambda_opt_nm": 800.0, "c_fspl": 1.75e12}})
        with pytest.raises(ConfigError, match=both):
            load_config({"channel": {"c_fspl": 1.75e12}},
                        overrides={"channel.lambda_opt_nm": 800.0})
        # The default wavelength applies only without c_fspl, and either
        # resolved form loads back to the same config.
        for channel, wavelength in (({}, 1550.0), ({"c_fspl": 1.75e12}, None)):
            cfg = load_config({"channel": channel})
            assert cfg.channel.lambda_opt_nm == wavelength
            assert load_config(json.loads(resolved_json(cfg))) == cfg

    def test_sections_are_frozen_and_copies_validated(self):
        # Every section, and every copy of one, holds only values
        # load_config accepts.
        with pytest.raises(ConfigError, match="channel.c_fspl: Input should be greater than 0"):
            ChannelConfig(c_fspl=-1.0)
        with pytest.raises(ConfigError):
            replace(unit_channel(1.0), lambda_opt_nm=800.0, a0=5.0)
        with pytest.raises(FrozenInstanceError):
            load_config({}).run.seed = -1
        cfg = load_config({})
        assert replace(cfg.power, rho=0.0).rho == 0.0
        assert replace(cfg) == cfg

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

    def test_env_seed_with_typed_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        cfg_path = fast_config(tmp_path)
        monkeypatch.setenv("OPTIVOTE_SEED", "5")
        assert cli.main(["simulate", "--config", cfg_path, "--run.seed", "7"]) == 1
        assert capsys.readouterr() == (
            "", "error: OPTIVOTE_SEED would override --run.seed; give one of the two\n")
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

    def test_threads_keep_metrics_bytes(self, tmp_path):
        dataset = {"n": 48_000, "n_test": 2_000, "d": 64, "num_classes": 4}
        assert 50_000 * 64 > 3 * learner._CHUNK_NORMALS  # several fill chunks: a parallel build
        cfg_path = fast_config(tmp_path, learner={"dataset": dataset})
        written = []
        for threads in ("1", "3"):
            assert cli.main(["--threads", threads, "simulate", "--config", cfg_path]) == 0
            written.append((tmp_path / "out" / "metrics.csv").read_bytes())
        assert written[0] == written[1]

    def test_dump_flags_emit_csvs(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg_path,
                         "--output.dump_power", "true",
                         "--output.dump_slots", "true"]) == 0
        power = (tmp_path / "out" / "power.csv").read_text().strip().split("\n")
        assert power[0] == "round,node_id,p,a"
        assert len(power) == 1 + 3 * 6  # rounds * M
        slots = (tmp_path / "out" / "slots.csv").read_text().strip().split("\n")
        assert slots[0] == "round,coord,e_plus,e_minus"

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

    def test_test_images_of_another_size_exit_one_before_writing(self, tmp_path, capsys):
        dataset = {"type": "mnist"}
        for split, side in (("train", 4), ("test", 3)):
            dataset[f"{split}_images"], dataset[f"{split}_labels"] = write_idx(
                tmp_path / split, 12, side)
        cfg_path = fast_config(tmp_path, learner={"dataset": dataset})
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == ("error: learner.dataset.test_images: 9 pixels an "
                                           "image, where the training images have 16\n")
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
        ("learner.dataset.n", "0", "learner.dataset.n: Input should be greater than or equal to 1"),
        ("learner.dataset.d", "0", "learner.dataset.d: Input should be greater than or equal to 1"),
        ("learner.dataset.num_classes", "0",
         "learner.dataset.num_classes: Input should be greater than or equal to 1"),
        ("learner.partition.mode", '"bogus"',
         "learner.partition.mode: Input should be 'iid' or 'noniid'"),
        ("learner.model.arch", '"cnn"', "learner.model.arch: Input should be 'logistic' or 'mlp'"),
        ("run.m", "0", "run.m / run.M: require 1 <= m <= M"),
        ("run.m", "7", "run.m / run.M: require 1 <= m <= M"),  # run.M is 6
        ("run.M", "2", "run.m / run.M: require 1 <= m <= M"),  # run.m is 3
        ("run.d_b", "0", "run.d_b: Input should be greater than or equal to 1"),
        # 1e308 * d_b overflows, so the step 1 / sqrt(L1_estimate * d_b) is 0.
        ("run.L1_estimate", "1e308", "run.lr / run.L1_estimate / run.d_b: the theorem1 step"),
        # A key its branch never reads keeps its default.
        *[(f"learner.dataset.{name}", value,
           f"learner.dataset.type / learner.dataset.{name}: unused by mnist")
          for name, value in (("num_classes", "4"), ("n", "100"), ("n_test", "100"),
                              ("d", "8"), ("separation", "2.0"))],
        ("learner.model.hidden", "16",
         "learner.model.arch / learner.model.hidden: unused by logistic"),
        ("learner.partition.labels_per_node", "3",
         "learner.partition.mode / learner.partition.labels_per_node: unused by iid"),
        ("run.eta", "0.1", "run.lr / run.eta: unused by theorem1"),
    ])
    def test_bad_value_exits_one_before_data_build(self, tmp_path, capsys, monkeypatch,
                                                    key, value, message):
        def no_data(cfg):
            raise AssertionError("built the data before rejecting the config")

        monkeypatch.setattr(cli.orchestrator, "build_data", no_data)
        cfg_path = fast_config(tmp_path)
        # An "unused by <branch>" row runs on that branch; any other on one that reads its key.
        branch = message.partition("unused by ")[2]
        if branch == "mnist":
            dataset = {"type": "mnist"}
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                (tmp_path / name).write_bytes(b"")
                dataset[name] = str(tmp_path / name)
            cfg_path = fast_config(tmp_path, learner={"dataset": dataset})
        extra = {"run.L1_estimate": ["--run.lr", '"theorem1"'],
                 "learner.model.hidden": ["--learner.model.arch", '"mlp"'],
                 "theorem1": ["--run.lr", '"theorem1"', "--run.L1_estimate", "2"],
                 }.get(branch or key, [])
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


# SHA-256 prefixes of (metrics.csv, power.csv, slots.csv) that
# configs/default.json writes with both dumps on, under each scheme.
DESK_DIGESTS = {
    "optivote": ("90d05671", "61568535", "b74b3d92"),
    "optivote_fixed_power": ("0129c164", "d0d6fedf", "a09db675"),
    "ideal_mv": ("20f97291", "9864911e", "b7c2d70b"),
    "fedavg_air": ("d5b93fac", "9864911e", "b7c2d70b"),
}


@pytest.mark.parametrize("scheme", DESK_DIGESTS)
def test_desk_bytes_are_pinned(tmp_path, monkeypatch, scheme):
    """The desk config's three CSVs keep their bytes under every scheme.

    These bytes depend on the numpy and OpenBLAS build as well as on the code:
    a BLAS kernel may round a product differently (see learner._MIN_BLOCK_MACS).
    They were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64),
    so a different build that fails here needs its digests checked by hand.
    """
    monkeypatch.delenv("OPTIVOTE_SEED", raising=False)
    out = tmp_path / scheme
    assert cli.main(["--threads", "2", "simulate", "--config", str(ROOT / "configs/default.json"),
                     "--run.scheme", scheme, "--output.dir", str(out),
                     "--output.dump_power", "true", "--output.dump_slots", "true"]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()[:8]
                    for name in ("metrics.csv", "power.csv", "slots.csv"))
    assert digests == DESK_DIGESTS[scheme]


class TestCliUsage:
    @pytest.mark.parametrize("argv", [
        ["verify", "--samples", "abc"],
        ["theory", "--op", "error_bound", "--M", "abc"],
        ["bogus"],
    ])
    def test_usage_error_exits_one_with_the_usage_line(self, capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: optivote")
        assert "error: argument " in captured.err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: optivote verify")


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

    @pytest.mark.parametrize("argv, flag", [
        (["theory", "--op", "error_bound", "--xi", "nan"], "argument --xi"),
        (["theory", "--op", "error_bound", "--xi", "1e400"], "argument --xi"),
        (["theory", "--op", "q_bound", "--g", "inf"], "argument --g"),
        (["theory", "--op", "theta", "--p-avg", "inf"], "argument --p-avg"),
        (["theory", "--op", "lambda_eff", "--a0=-inf"], "argument --a0"),
        (["sweep", "--op", "error_bound", "--param", "xi=nan,1"], "--param xi"),
        (["sweep", "--op", "theta", "--param", "lam=1,-Infinity"], "--param lam"),
    ])
    def test_non_finite_flag_exits_one_naming_it(self, capsys, argv, flag):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be a finite number, got " in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["theory", "--op", "error_bound", "--M", "9" * 400], "argument --M"),
        (["theory", "--op", "energy_means", "--m-plus", "9" * 400], "argument --m-plus"),
        (["sweep", "--op", "error_bound", "--param", "M=10," + "9" * 400], "--param M"),
    ])
    def test_integer_past_the_float_range_exits_one_naming_it(self, capsys, argv, flag):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"{flag}: must be at most 1.79769e+308 in magnitude\n" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["theory", "--op", "theta", "--lam", "1e308", "--p-avg", "10"], "theta overflowed"),
        (["theory", "--op", "convergence_bound", "--gap", "1e308", "--L1", "1e300"],
         "convergence_bound overflowed"),
        (["theory", "--op", "q_bound", "--g", "1e200"], "q_bound overflowed"),
        (["sweep", "--op", "theta", "--param", "lam=1,1e308", "--p-avg", "10"],
         "theta overflowed at lam=1e308"),
    ])
    def test_overflowing_result_exits_three_naming_the_op(self, capsys, argv, message):
        # Finite flags whose result is not finite print no JSON Infinity and no partial CSV.
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", f"numeric error: --op {message}\n")

    def test_overflowing_sweep_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--op", "theta", "--param", "lam=1,1e308", "--p-avg", "10",
                         "--output", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gap", "--sigma-l1"])
    def test_negative_convergence_input_exits_one(self, capsys, flag):
        assert cli.main(["theory", "--op", "convergence_bound", flag, "-5"]) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr() == ("", f"error: {name} must be non-negative\n")

    @pytest.mark.parametrize("argv, message", [
        (["theory", "--op", "energy_means", "--theta", "-3"], "theta must be positive"),
        (["theory", "--op", "energy_means", "--theta", "0"], "theta must be positive"),
        (["theory", "--op", "energy_means", "--sigma-n2", "-1"],
         "sigma_n2 must be non-negative"),
        (["theory", "--op", "corollary1_check", "--p-err", "-5"], "p_err must be in [0, 1]"),
        (["theory", "--op", "corollary1_check", "--p-err", "2"], "p_err must be in [0, 1]"),
        (["theory", "--op", "corollary1_check", "--M", "0", "--m-plus", "0"],
         "M must be >= 1"),
        (["theory", "--op", "error_bound_full", "--g", "-1"],
         "g must be non-negative"),
        (["sweep", "--op", "energy_means", "--param", "sigma_n2=-1,0.1"],
         "sigma_n2 must be non-negative"),
        (["theory", "--op", "error_bound", "--xi", "-1"], "xi must be positive"),
        (["theory", "--op", "q_bound", "--g", "-1"], "g must be non-negative"),
        (["theory", "--op", "q_bound", "--alpha", "0"], "alpha must be positive"),
    ])
    def test_out_of_domain_flag_exits_one_naming_it(self, capsys, argv, message):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_domain_error_exits_one(self, capsys):
        assert cli.main(["theory", "--op", "error_bound", "--q", "0.9"]) == 1
        assert capsys.readouterr() == ("", "error: q must be in [0, 1/2]\n")

    def test_wavelength_with_c_fspl_exits_one(self, tmp_path, capsys):
        both = "error: channel.lambda_opt_nm / channel.c_fspl: set one of the two\n"
        for argv in (["theory", "--op", "lambda_eff", "--c-fspl", "1.75e12",
                      "--lambda-opt-nm", "800"],
                     ["sweep", "--op", "lambda_eff", "--c-fspl", "1.75e12",
                      "--param", "lambda_opt_nm=800,900"],
                     ["simulate", "--config", fast_config(tmp_path),
                      "--channel.lambda_opt_nm", "800"]):
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", both)
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("output, message", [
        ("missing/sweep.csv", "'{tmp}/missing' is not a directory"),
        (".", "'{tmp}' is a directory")])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, output, message):
        assert cli.main(["sweep", "--op", "error_bound", "--param", "xi=0.5,1",
                         "--output", str(tmp_path / output)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --output: {message.format(tmp=tmp_path)}\n"
        assert captured.out == ""

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
        assert cli.main(["sweep", "--op", "error_bound", *flags[2:],
                         "--param", "M=7"]) == 0
        assert capsys.readouterr().out == f"M,error_bound\n7,{value}\n"

    def test_flags_match_the_table(self):
        parser = cli.build_parser()
        for command in ("theory", "sweep"):
            # An untyped flag is not on the namespace, so the op reads the
            # table's default; a typed one parses with the table's type.
            args = parser.parse_args([command, "--op", "theta"])
            assert not set(vars(args)) & set(cli.THEORY_FLAGS)
            for name, (kind, default) in cli.THEORY_FLAGS.items():
                # every float flag must be finite, every int one within the float range
                assert kind in (cli._integer, cli._finite)
                if default is not None:
                    flag = "--" + name.replace("_", "-")
                    typed = parser.parse_args([command, "--op", "theta", flag, str(default)])
                    assert type(getattr(typed, name)) is (int if kind is cli._integer else float)
                    assert getattr(typed, name) == default
            typed = parser.parse_args([command, "--op", "theta", "--d-b", "4",
                                       "--sigma-n2", "0.5"])
            assert (typed.d_b, typed.sigma_n2) == (4, 0.5)
            assert [name for name in vars(typed) if name in cli.THEORY_FLAGS] == [
                "d_b", "sigma_n2"]
        assert len(cli.THEORY_FLAGS) == 24
        # Each closed form's parameter is its flag, typed as the parameter is annotated.
        closed_forms = [getattr(theory, op) for op, (_, module) in cli.THEORY_OPS.items()
                        if module is theory]
        assert len(closed_forms) == 7
        for fn in closed_forms:
            for name, param in inspect.signature(fn).parameters.items():
                assert name in cli.THEORY_FLAGS, (fn.__name__, name)
                kind = {int: cli._integer, float: cli._finite}[param.annotation]
                assert cli.THEORY_FLAGS[name][0] is kind, (fn.__name__, name)

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

    def test_axis_over_a_typed_flag_exits_one(self, capsys):
        assert cli.main(["sweep", "--op", "error_bound", "--M", "3",
                         "--param", "M=7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --param M would override --M; give one of the two\n"

    def test_channel_flag_defaults_are_the_configs(self):
        for field in fields(ChannelConfig):
            assert cli.THEORY_FLAGS[field.name] == (cli._finite, field.default)
        defaults = {f.name: cli.THEORY_FLAGS[f.name][1] for f in fields(ChannelConfig)}
        assert load_config({"channel": defaults}).channel == ChannelConfig()

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

    @pytest.mark.parametrize("output", ["missing/reports.json", "."])
    def test_unwritable_output_exits_one_before_drawing(self, tmp_path, capsys,
                                                        monkeypatch, output):
        def no_suite(*args, **kwargs):
            raise AssertionError("ran the suite before checking --output")

        monkeypatch.setattr(cli.montecarlo, "run_default_suite", no_suite)
        assert cli.main(["verify", "--output", str(tmp_path / output)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --output: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

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

    @pytest.mark.parametrize("config, digest", [
        ("perfbench/mnist_shape.json",
         "bdfc356b06eb6b4b5afadb984f4c315ee07c4e7d7cc6c59ba384f3521a0a43e9"),
        ("configs/default.json",
         "0899e043a340ff70f31f307d806882182e167c198411fa3ffd31b5193a5333c3"),
    ])
    def test_histograms_draw_no_feature(self, capsys, monkeypatch, config, digest):
        # The digest is of the stdout the command printed when it built the
        # whole dataset; the labels alone give the same bytes.
        def no_features(*args, **kwargs):
            raise AssertionError("drew the synthetic features")

        monkeypatch.setattr(cli.orchestrator.learner, "make_synthetic", no_features)
        assert cli.main(["partition-inspect", "--config", str(ROOT / config)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_empty_shard_names_keys(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        assert cli.main(["partition-inspect", "--config", cfg_path,
                         "--run.M", "300"]) == 1
        assert "run.M" in capsys.readouterr().err

    def test_idx_count_mismatch_exits_one(self, tmp_path, capsys):
        images, labels = write_idx(tmp_path / "train", 12, 4, n_labels=11)
        dataset = {"type": "mnist", "train_images": images, "train_labels": labels,
                   "test_images": images, "test_labels": labels}
        cfg_path = fast_config(tmp_path, learner={"dataset": dataset})
        assert cli.main(["partition-inspect", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == "error: image count 12 != label count 11\n"
