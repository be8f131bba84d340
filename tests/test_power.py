import numpy as np
import pytest

from optivote import power
from optivote.errors import UsageError


def make_params(**kw):
    defaults = dict(p_avg=1.0, p_min=0.1, p_max=2.0, rho=0.05)
    defaults.update(kw)
    return power.PowerParams(**defaults)


class TestParams:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(UsageError):
            make_params(p_min=3.0)

    def test_rejects_negative_rho(self):
        with pytest.raises(UsageError):
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

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            power.consistency_score(np.array([1, 1]), np.array([1]))

    def test_scores_every_row_of_a_matrix(self):
        rng = np.random.default_rng(6)
        signs = np.where(rng.random((7, 33)) < 0.6, 1, -1).astype(np.int8)
        mv = np.where(rng.random(33) < 0.5, 1, -1).astype(np.int8)
        got = power.consistency_score(signs, mv)
        assert got.shape == (7,)
        assert got.tolist() == [power.consistency_score(row, mv) for row in signs]

    def test_matrix_width_mismatch(self):
        with pytest.raises(UsageError):
            power.consistency_score(np.ones((3, 4)), np.ones(5))


class TestUpdatePowers:
    def test_equal_scores_leave_powers_unchanged(self):
        params = make_params(rho=0.3)
        state = power.PowerState(p=np.array([0.5, 1.0, 1.7]), a=np.full(3, 0.4))
        new = power.update_powers(state, params)
        assert (new.p == state.p).all()

    def test_worked_recursion_step(self):
        # node score 0.8 against a population mean of 0.5, rho = 0.1
        params = make_params(rho=0.1)
        state = power.PowerState(p=np.array([1.0, 1.0]), a=np.array([0.8, 0.2]))
        new = power.update_powers(state, params)
        assert new.p[0] == pytest.approx(1.03)
        assert new.p[1] == pytest.approx(0.97)

    def test_projection_clamps_to_p_max(self):
        params = make_params(rho=10.0)
        state = power.PowerState(p=np.array([1.95, 1.0]), a=np.array([1.0, 0.0]))
        new = power.update_powers(state, params)
        assert new.p[0] == params.p_max
        assert new.p[1] == params.p_min

    def test_budget_neutral_before_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.random(7)
            delta = 0.05 * (a - a.mean())
            assert abs(delta.sum()) < 1e-9

    def test_bounds_invariant(self):
        params = make_params(rho=0.5)
        rng = np.random.default_rng(1)
        state = power.PowerState(p=np.full(10, 1.0), a=rng.random(10))
        for k in range(100):
            state = power.PowerState(p=state.p, a=rng.random(10))
            state = power.update_powers(state, params)
            assert (state.p >= params.p_min).all()
            assert (state.p <= params.p_max).all()

    def test_rho_zero_is_identity(self):
        params = make_params(rho=0.0)
        state = power.PowerState(p=np.array([0.3, 1.9]), a=np.array([0.9, 0.1]))
        assert (power.update_powers(state, params).p == state.p).all()

    def test_active_scope_mean(self):
        params = make_params(rho=0.1, abar_scope="active")
        state = power.PowerState(p=np.full(4, 1.0), a=np.array([1.0, 0.0, 0.5, 0.5]))
        new = power.update_powers(state, params, active=np.array([0, 1]))
        # mean over active = 0.5, so node 2 and 3 stay put
        assert new.p[0] == pytest.approx(1.05)
        assert new.p[2] == pytest.approx(1.0)

    def test_active_scope_requires_active_set(self):
        params = make_params(abar_scope="active")
        state = power.PowerState.initial(3, params)
        with pytest.raises(UsageError):
            power.update_powers(state, params)


class TestInitialState:
    def test_starts_at_p_avg(self):
        params = make_params(p_avg=1.3, p_max=2.0)
        state = power.PowerState.initial(5, params)
        assert (state.p == 1.3).all()
        assert (state.a == 0.5).all()
