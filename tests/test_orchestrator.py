import json
import math
import tracemalloc
import warnings
from contextlib import ExitStack
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from optivote import cli, learner, orchestrator as orch
from optivote.config import SCHEMES, load_config
from optivote.errors import ConfigError, NumericError
from optivote.rng import TAG_DATA, derive

from conftest import UNIT_CFSPL, write_idx


def small_config(**run_overrides) -> dict:
    run = dict(M=8, m=3, rounds=10, d_b=16, eta=0.05, seed=0)
    run.update(run_overrides)
    return {
        "channel": {"c_fspl": UNIT_CFSPL, "sigma_n2": 0.1},
        "learner": {"dataset": {"n": 400, "n_test": 200, "d": 10,
                                "num_classes": 4, "separation": 4.0}},
        "run": run,
    }


def read_dump(name: str) -> np.ndarray:
    """The rows of a dumped CSV in the default output.dir, as floats."""
    return np.loadtxt(f"out/{name}", delimiter=",", skiprows=1, ndmin=2)


def run_metrics_csv(cfg) -> str:
    """Run ``cfg`` and return the metrics.csv it wrote."""
    orch.run(cfg)
    return (Path(cfg.output.dir) / "metrics.csv").read_text()


class TestSelectActive:
    def test_selects_all_when_m_equals_M(self):
        chosen = orch.select_active(5, 5, derive(0, 9))
        assert chosen.tolist() == [0, 1, 2, 3, 4]

    def test_sorted_distinct_and_deterministic(self):
        a = orch.select_active(20, 7, derive(3, 9))
        b = orch.select_active(20, 7, derive(3, 9))
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 7
        assert np.all(np.diff(a) > 0)

    def test_uniform_frequency(self):
        rng = derive(0, 10)
        counts = np.zeros(10)
        trials = 20_000
        for _ in range(trials):
            counts[orch.select_active(10, 3, rng)] += 1
        p = 0.3
        se = np.sqrt(p * (1 - p) * trials)
        assert np.all(np.abs(counts - p * trials) <= 4 * se)


class TestAggregateFedavgAir:
    def test_noiseless_weighted_mean(self):
        grads = np.array([[1.0, 2.0], [3.0, -4.0]])
        powers = np.array([1.0, 2.0])
        intens = np.array([0.5, 1.0])
        agg = orch.aggregate_fedavg_air(grads, powers, intens, 0.0, derive(0, 9))
        # (0.5 * g0 + 2.0 * g1) / 2
        assert agg == pytest.approx([(0.5 * 1 + 2 * 3) / 2, (0.5 * 2 - 2 * 4) / 2])

    def test_fading_bias_flips_unweighted_mean(self):
        # Unweighted mean of (+1, -1) is 0, but a stronger channel on the
        # second node biases the aggregate negative: no CSI compensation.
        grads = np.array([[1.0], [-1.0]])
        agg = orch.aggregate_fedavg_air(
            grads, np.ones(2), np.array([1.0, 3.0]), 0.0, derive(0, 9))
        assert agg[0] == pytest.approx(-1.0)


class TestBuildData:
    def test_shards_cover_nodes(self):
        train, test, shards = orch.build_data(load_config(small_config()))
        assert (train.n, test.n) == (400, 200)
        assert len(shards) == 8 and all(len(s) == 50 for s in shards)

    def test_empty_shard_names_keys(self):
        with pytest.raises(ConfigError, match="run.M / learner.partition"):
            orch.build_data(load_config(small_config(M=3000)))

    @staticmethod
    def mnist_config(tmp_path, n: int, side: int) -> dict:
        train, test = write_idx(tmp_path / "train", n, side), write_idx(tmp_path / "test", 10, side)
        dataset = {"type": "mnist", "train_images": train[0], "train_labels": train[1],
                   "test_images": test[0], "test_labels": test[1]}
        return {**small_config(), "learner": {"dataset": dataset}}

    @pytest.mark.parametrize("mode, mnist", [("iid", False), ("noniid", False), ("noniid", True)],
                             ids=["iid", "noniid", "mnist-noniid"])
    def test_train_shards_are_build_datas(self, tmp_path, mode, mnist):
        raw = self.mnist_config(tmp_path, 200, 5) if mnist else small_config()
        raw["learner"] = {**raw["learner"], "partition": {"mode": mode}}
        cfg = load_config(raw)
        train, _, shards = orch.build_data(cfg)
        labels, again = orch.train_shards(cfg)
        np.testing.assert_array_equal(labels, train.labels)
        assert len(again) == len(shards)
        for a, b in zip(again, shards):
            np.testing.assert_array_equal(a, b)

    def test_train_shards_read_no_idx_pixel(self, tmp_path):
        # A 5,000-image 28 x 28 pair: 3.9 MB of pixels, 31 MB as float64.
        cfg = load_config(self.mnist_config(tmp_path, 5000, 28))
        tracemalloc.start()
        try:
            labels, _ = orch.train_shards(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.tolist() == [i % 10 for i in range(5000)]
        assert peak < 2**20


class TestRun:
    def test_scheme_table_matches_config(self):
        assert tuple(orch._SCHEMES) == SCHEMES

    def test_ideal_mv_draws_no_channel_and_keeps_powers(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("ideal_mv must not draw a channel")

        monkeypatch.setattr(orch.ch, "sample_channel", no_draw)
        summary = orch.run(load_config(small_config(scheme="ideal_mv")))
        assert {(r.mean_power, r.mean_consistency) for r in summary.metrics} == {(1.0, 0.5)}

    def test_zero_rounds(self):
        cfg = load_config(small_config(rounds=0))
        summary = orch.run(cfg)
        assert summary.metrics == []
        assert summary.final_accuracy == 0.0
        assert summary.model.w is not None

    def test_replay_is_byte_identical(self):
        cfg = load_config(small_config())
        a = run_metrics_csv(cfg)
        b = run_metrics_csv(cfg)
        assert a == b

    def test_seed_changes_trajectory(self):
        a = run_metrics_csv(load_config(small_config(seed=0)))
        b = run_metrics_csv(load_config(small_config(seed=1)))
        assert a != b

    def test_l1_estimate_sets_the_theorem1_step(self, monkeypatch):
        steps, step = [], orch.learner.apply_update

        def record(model, direction, eta):
            steps.append(eta)
            return step(model, direction, eta)

        monkeypatch.setattr(orch.learner, "apply_update", record)
        orch.run(load_config(small_config(rounds=1, eta=0.05)))
        orch.run(load_config(small_config(rounds=1, eta=0.05, L1_estimate=10.0)))
        assert steps == [0.05, orch.theory.theorem1_eta(10.0, 16)]

    def test_fixed_power_equals_rho_zero(self):
        base = small_config(scheme="optivote")
        base["power"] = {"rho": 0.0}
        ref = run_metrics_csv(load_config(base))
        fixed = small_config(scheme="optivote_fixed_power")
        got = run_metrics_csv(load_config(fixed))
        assert got == ref

    def test_fixed_power_scores_but_never_steps(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("optivote_fixed_power stepped its powers")

        monkeypatch.setattr(orch.power, "update_powers", no_step)
        state = orch.run(load_config(small_config(scheme="optivote_fixed_power")))
        assert {r.mean_power for r in state.metrics} == {1.0}
        assert len({r.mean_consistency for r in state.metrics}) > 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rounds_driven_one_by_one_equal_the_run(self, scheme):
        # A round reads and writes nothing but its arguments and the state.
        cfg = load_config(small_config(scheme=scheme, rounds=6))
        whole = orch.run(cfg)
        state = orch.run(replace(cfg, run=replace(cfg.run, rounds=0)))  # a fresh state
        data = orch.build_data(cfg)
        rows = [orch._round(cfg, data, cfg.run.eta, state, n)[0] for n in range(6)]
        assert rows == whole.metrics
        np.testing.assert_array_equal(state.model.w, whole.model.w)
        np.testing.assert_array_equal(state.p, whole.p)
        np.testing.assert_array_equal(state.a, whole.a)

    def test_mv_error_free_on_homogeneous_noiseless_channel(self):
        # Degenerate geometry and (near) no pointing jitter make every
        # intensity equal; with zero receiver noise and an odd active
        # cohort the energy vote must match the ideal majority exactly.
        cfg_dict = small_config(m=3)
        cfg_dict["channel"] = {
            "d_min_km": 1000.0,
            "d_max_km": 1000.0 * (1.0 + 1e-12),
            "xi_p": 1e9,
            "sigma_n2": 0.0,
            "c_fspl": UNIT_CFSPL,
        }
        summary = orch.run(load_config(cfg_dict))
        assert all(r.mv_error_rate == 0.0 for r in summary.metrics)

    def test_ideal_mv_steps_are_exact(self):
        # Every coordinate of the model moves by exactly +-eta per round.
        cfg_dict = small_config(scheme="ideal_mv", rounds=5, eta=0.05)
        cfg = load_config(cfg_dict)
        w0 = learner.Model.init(
            cfg.learner.model.arch,
            cfg.learner.dataset.d,
            cfg.learner.dataset.num_classes,
            hidden=cfg.learner.model.hidden,
            seed=int(derive(cfg.run.seed, TAG_DATA, 2).integers(2**31)),
        ).w
        summary = orch.run(cfg)
        steps = (summary.model.w - w0) / cfg.run.eta
        assert np.allclose(np.round(steps), steps, atol=1e-9)
        assert np.all(np.abs(steps) <= 5)
        assert np.all(np.abs(np.round(steps)) % 1 == 0)

    def test_power_stays_within_bounds(self):
        cfg_dict = small_config(rounds=30)
        cfg_dict["output"] = {"dump_power": True}
        cfg = load_config(cfg_dict)
        orch.run(cfg)
        rows = read_dump("power.csv")
        assert len(rows) == 30 * cfg.run.M
        assert rows[:, 2].min() >= cfg.power.p_min - 1e-12
        assert rows[:, 2].max() <= cfg.power.p_max + 1e-12
        assert np.all((0.0 <= rows[:, 3]) & (rows[:, 3] <= 1.0))

    def test_adaptive_power_actually_moves(self):
        cfg_dict = small_config(rounds=30)
        cfg_dict["output"] = {"dump_power": True}
        orch.run(load_config(cfg_dict))
        assert len(set(read_dump("power.csv")[:, 2])) > 1

    def test_slot_dump_rows(self):
        cfg_dict = small_config(rounds=2)
        cfg_dict["output"] = {"dump_slots": True}
        cfg = load_config(cfg_dict)
        orch.run(cfg)
        q = learner.Model.init("logistic", 10, 4).q
        rows = read_dump("slots.csv")
        assert rows.shape == (2 * q, 4)  # round, coord, e_plus, e_minus
        assert rows[:, 1].tolist() == [*range(q)] * 2

    def test_dumped_run_memory_does_not_grow_with_rounds(self):
        # Dump rows go to disk as each round finishes: the traced peak of a
        # run with both dumps on (q = 500 slot rows a round) stays flat from
        # 10 to 80 rounds, where holding the rows in memory adds about 6 MB.
        def peak(rounds):
            cfg = small_config(rounds=rounds)
            cfg["learner"]["dataset"]["d"] = 49  # q = (49 + 1) * 10 = 500
            cfg["learner"]["dataset"]["num_classes"] = 10
            cfg["output"] = {"dump_power": True, "dump_slots": True}
            tracemalloc.start()
            try:
                orch.run(load_config(cfg))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(80) - peak(10) < 2**19

    def test_learning_happens(self):
        summary = orch.run(load_config(small_config(rounds=60)))
        assert summary.final_accuracy > 0.6

    def test_fedavg_air_runs(self):
        # Its vote is sign(agg), scored against the ideal vote like any other.
        summary = orch.run(load_config(small_config(scheme="fedavg_air", rounds=5)))
        assert len(summary.metrics) == 5
        assert any(r.mv_error_rate > 0.0 for r in summary.metrics)


class TestRoundGuards:
    def test_non_finite_model_raises_before_evaluate(self, monkeypatch):
        def blow_up(model, direction, eta):
            return replace(model, w=np.full_like(model.w, np.inf))

        def no_evaluate(*args):
            raise AssertionError("evaluated a non-finite model")

        monkeypatch.setattr(orch.learner, "apply_update", blow_up)
        monkeypatch.setattr(orch.learner, "evaluate", no_evaluate)
        with pytest.raises(NumericError, match="^round 0: the model after the step"):
            orch.run(load_config(small_config()))

    def test_overflowing_step_names_round_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^round \d+: "):
                orch.run(load_config(small_config(eta=1e308, rounds=4)))

    def test_non_finite_fedavg_aggregate_names_round(self, monkeypatch):
        # fedavg_air's vote tolerates a NaN aggregate, so the round guard
        # after the step is what stops the run.
        def nan_aggregate(gradients, *args):
            return np.full(gradients.shape[1], np.nan)

        monkeypatch.setattr(orch, "aggregate_fedavg_air", nan_aggregate)
        with pytest.raises(NumericError, match="^round 0: the model after the step"):
            orch.run(load_config(small_config(scheme="fedavg_air")))

    def test_non_finite_gradient_names_round(self, monkeypatch):
        def inf_gradient(model, *args, **kwargs):
            return np.full(model.q, -np.inf)

        monkeypatch.setattr(orch.learner, "local_gradient", inf_gradient)
        with pytest.raises(NumericError, match="^round 0: a local gradient"):
            orch.run(load_config(small_config()))


class TestLowSnrWarning:
    @staticmethod
    def run(c_fspl, scheme):
        cfg = small_config(rounds=2, scheme=scheme)
        if c_fspl is None:  # the default: the physical 1550 nm constant
            del cfg["channel"]["c_fspl"]
        else:
            cfg["channel"]["c_fspl"] = c_fspl
        orch.run(load_config(cfg))

    @pytest.mark.parametrize("scheme", ["optivote", "fedavg_air"])
    def test_warns_once_on_stderr(self, capsys, scheme):
        self.run(None, scheme)  # the physical 1550 nm path loss
        err = capsys.readouterr().err
        assert err.count("warning: effective SNR") == 1
        assert "channel.c_fspl" in err

    @pytest.mark.parametrize("c_fspl, scheme", [(UNIT_CFSPL, "optivote"),
                                                (None, "ideal_mv")])
    def test_silent_when_snr_is_fine_or_unused(self, capsys, c_fspl, scheme):
        self.run(c_fspl, scheme)
        assert capsys.readouterr().err == ""

    def test_silent_when_the_data_build_rejects_the_run(self, tmp_path, capsys):
        # No c_fspl: the physical path loss, far below the SNR floor.  50 nodes
        # share 10 samples, so every shard is empty and the run never starts.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learner": {"dataset": {"n": 10, "n_test": 5, "d": 3}},
                                   "run": {"M": 50, "m": 2, "rounds": 2}}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.M / learner.partition: 50 of run.M = 50 shards")
        assert err.count("\n") == 1


class TestMetricsCsv:
    def test_header_and_shape(self):
        summary = orch.run(load_config(small_config(rounds=3)))
        text = Path("out/metrics.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == orch.METRICS_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_roundtrip_precision(self):
        summary = orch.run(load_config(small_config(rounds=3)))
        text = Path("out/metrics.csv").read_text()
        row = text.strip().split("\n")[1].split(",")
        assert float(row[1]) == summary.metrics[0].train_loss
        assert float(row[2]) == summary.metrics[0].test_accuracy


class TestCsvWriter:
    HEADER = "round,node,x,y"

    def written(self, tmp_path, *blocks) -> str:
        path = tmp_path / "block.csv"
        with ExitStack() as files:
            write = orch._csv(files, path, self.HEADER)
            for block in blocks:
                write(block)
        return path.read_text()

    def test_block_equals_per_row_format(self, tmp_path):
        x = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.5])
        y = np.array([math.nan, math.inf, -math.inf, 0.1])
        # The per-row writer, fed numpy scalars as run feeds its columns.
        row = ",".join(["%.17g"] * 4) + "\n"
        per_row = "".join(row % values for values in zip(repeat(7), range(4), x, y))
        assert per_row == ("7,0,-0,nan\n7,1,4.9406564584124654e-324,inf\n"
                           "7,2,1.7976931348623157e+308,-inf\n7,3,-1.5,0.10000000000000001\n")
        for block in (zip(repeat(7), range(4), x, y),
                      list(zip(repeat(7), range(4), x.tolist(), y.tolist()))):
            assert self.written(tmp_path, block) == self.HEADER + "\n" + per_row

    def test_empty_block_writes_nothing(self, tmp_path):
        assert self.written(tmp_path, [], zip(range(0), [])) == self.HEADER + "\n"

    def test_off_reads_no_rows(self, tmp_path):
        def rows():
            raise AssertionError("read the rows of a dump that is off")
            yield

        with ExitStack() as files:
            orch._csv(files, tmp_path / "off.csv", self.HEADER, on=False)(rows())
        assert not (tmp_path / "off.csv").exists()
