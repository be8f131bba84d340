import numpy as np
import pytest

from optivote import orchestrator as orch, power
from optivote.config import PowerConfig, load_config
from optivote.errors import ConfigError

from conftest import UNIT_CFSPL


def make_params(**kw):
    defaults = dict(p_avg=1.0, p_min=0.1, p_max=2.0, rho=0.05)
    defaults.update(kw)
    return PowerConfig(**defaults)


class TestParams:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError):
            make_params(p_min=3.0)

    def test_rejects_negative_rho(self):
        with pytest.raises(ConfigError):
            make_params(rho=-0.1)


class TestConsistencyScore:
    def test_full_agreement(self):
        v = np.array([1, -1, 1])
        assert power.consistency_score(v, v) == 1.0

    def test_full_disagreement(self):
        v = np.array([1, -1, 1])
        assert power.consistency_score(v, -v) == 0.0

    def test_half_match(self):
        local = np.array([1, -1, 1, 1])
        mv = np.array([1, 1, 1, -1])
        assert power.consistency_score(local, mv) == 0.5

    def test_scores_every_row_of_a_matrix(self):
        rng = np.random.default_rng(6)
        signs = np.where(rng.random((7, 33)) < 0.6, 1, -1).astype(np.int8)
        mv = np.where(rng.random(33) < 0.5, 1, -1).astype(np.int8)
        got = power.consistency_score(signs, mv)
        assert got.shape == (7,)
        assert got.tolist() == [power.consistency_score(row, mv) for row in signs]


class TestUpdatePowers:
    def test_equal_scores_leave_powers_unchanged(self):
        params = make_params(rho=0.3)
        p, a = np.array([0.5, 1.0, 1.7]), np.full(3, 0.4)
        new = power.update_powers(p, a, params, active=np.arange(3))
        assert (new == p).all()

    def test_worked_recursion_step(self):
        # node score 0.8 against a population mean of 0.5, rho = 0.1
        params = make_params(rho=0.1)
        new = power.update_powers(np.array([1.0, 1.0]), np.array([0.8, 0.2]), params,
                                  active=np.arange(2))
        assert new[0] == pytest.approx(1.03)
        assert new[1] == pytest.approx(0.97)

    def test_projection_clamps_to_p_max(self):
        params = make_params(rho=10.0)
        new = power.update_powers(np.array([1.95, 1.0]), np.array([1.0, 0.0]), params,
                                  active=np.arange(2))
        assert new[0] == params.p_max
        assert new[1] == params.p_min

    def test_budget_neutral_before_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.random(7)
            delta = 0.05 * (a - a.mean())
            assert abs(delta.sum()) < 1e-9

    def test_bounds_invariant(self):
        params = make_params(rho=0.5)
        rng = np.random.default_rng(1)
        p, a = np.full(10, 1.0), rng.random(10)
        for k in range(100):
            a = rng.random(10)
            p = power.update_powers(p, a, params, active=np.arange(10))
            assert (p >= params.p_min).all()
            assert (p <= params.p_max).all()

    def test_rho_zero_is_identity(self):
        params = make_params(rho=0.0)
        p = np.array([0.3, 1.9])
        assert (power.update_powers(p, np.array([0.9, 0.1]), params,
                                    active=np.arange(2)) == p).all()

    def test_active_scope_mean(self):
        params = make_params(rho=0.1, abar_scope="active")
        new = power.update_powers(np.full(4, 1.0), np.array([1.0, 0.0, 0.5, 0.5]), params,
                                  active=np.array([0, 1]))
        # mean over active = 0.5, so node 2 and 3 stay put
        assert new[0] == pytest.approx(1.05)
        assert new[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("abar_scope", ["all", "active"])
    def test_returns_a_new_array_and_writes_no_argument(self, abar_scope):
        params = make_params(rho=10.0, abar_scope=abar_scope)
        rng = np.random.default_rng(2)
        p, a, active = rng.uniform(0.1, 2.0, 9), rng.random(9), np.array([1, 4, 6])
        p0, a0, active0 = p.copy(), a.copy(), active.copy()
        new = power.update_powers(p, a, params, active)
        assert not np.shares_memory(new, p) and not np.shares_memory(new, a)
        for got, was in ((p, p0), (a, a0), (active, active0)):
            assert got.tobytes() == was.tobytes()
        assert (new != p).any()


class TestInitialState:
    def test_starts_at_p_avg(self):
        state = orch.run(load_config({
            "channel": {"c_fspl": UNIT_CFSPL},
            "learner": {"dataset": {"n": 40, "n_test": 10, "d": 3, "num_classes": 2}},
            "power": {"p_avg": 1.3, "p_max": 2.0},
            "run": {"M": 5, "m": 2, "rounds": 0},
        }))
        assert state.p.shape == state.a.shape == (5,)
        assert (state.p == 1.3).all()
        assert (state.a == 0.5).all()
