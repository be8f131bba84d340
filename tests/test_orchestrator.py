import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from optivote import learner, orchestrator as orch
from optivote.config import SCHEMES, load_config
from optivote.errors import ConfigError, NumericError, UsageError
from optivote.rng import TAG_DATA, derive

from conftest import UNIT_CFSPL


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

    def test_rejects_bad_m(self):
        with pytest.raises(UsageError):
            orch.select_active(4, 5, derive(0, 9))
        with pytest.raises(UsageError):
            orch.select_active(4, 0, derive(0, 9))


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

    def test_rejects_bad_shape(self):
        with pytest.raises(UsageError):
            orch.aggregate_fedavg_air(np.ones(3), np.ones(3), np.ones(3),
                                      0.0, derive(0, 9))


class TestBuildData:
    def test_shards_cover_nodes(self):
        train, test, shards = orch.build_data(load_config(small_config()))
        assert (train.n, test.n) == (400, 200)
        assert len(shards) == 8 and all(len(s) == 50 for s in shards)

    def test_empty_shard_names_keys(self):
        with pytest.raises(ConfigError, match="run.M / learner.partition"):
            orch.build_data(load_config(small_config(M=3000)))


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
        assert summary.final_w is not None

    def test_replay_is_byte_identical(self):
        cfg = load_config(small_config())
        a = run_metrics_csv(cfg)
        b = run_metrics_csv(cfg)
        assert a == b

    def test_seed_changes_trajectory(self):
        a = run_metrics_csv(load_config(small_config(seed=0)))
        b = run_metrics_csv(load_config(small_config(seed=1)))
        assert a != b

    def test_fixed_power_equals_rho_zero(self):
        base = small_config(scheme="optivote")
        base["power"] = {"rho": 0.0}
        ref = run_metrics_csv(load_config(base))
        fixed = small_config(scheme="optivote_fixed_power")
        got = run_metrics_csv(load_config(fixed))
        assert got == ref

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
        steps = (summary.final_w - w0) / cfg.run.eta
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
        assert len(rows) == 2 * q
        assert rows[:, 4] == pytest.approx(rows[:, 2] - rows[:, 3])

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
