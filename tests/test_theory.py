import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from optivote import theory
from optivote.errors import UsageError


class TestTheta:
    def test_identity(self):
        assert theory.theta(1.0, 1.0) == 1.0

    def test_worked_value(self):
        assert theory.theta(2.0, 0.25) == pytest.approx(0.5)

    def test_linear_in_each_factor(self):
        base = theory.theta(1.3, 0.7)
        assert theory.theta(2.6, 0.7) == pytest.approx(2 * base)
        assert theory.theta(1.3, 1.4) == pytest.approx(2 * base)

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            theory.theta(0.0, 1.0)


class TestEnergyMeans:
    def test_empty_vote_is_noise_floor(self):
        mu_p, _ = theory.energy_means(0, 5, theta=2.0, sigma_n2=0.5)
        assert mu_p == 0.5

    def test_worked_value(self):
        mu_p, _ = theory.energy_means(3, 1, theta=2.0, sigma_n2=0.5)
        assert mu_p == pytest.approx(6.5)

    def test_difference_and_conservation(self):
        mu_p, mu_m = theory.energy_means(7, 3, theta=1.3, sigma_n2=0.2)
        assert mu_p - mu_m == pytest.approx(4 * 1.3)
        assert mu_p + mu_m == pytest.approx(10 * 1.3 + 2 * 0.2)


class TestErrorBound:
    def test_worked_value(self):
        assert theory.error_bound(10, 1.0, 0.2) == pytest.approx(0.25)

    def test_noise_free_limit_recovers_q(self):
        assert theory.error_bound(10, 1e12, 0.2) == pytest.approx(0.2, rel=1e-9)

    def test_half_is_fixed_point(self):
        for M in (1, 4, 100):
            for xi in (0.1, 1.0, 50.0):
                assert theory.error_bound(M, xi, 0.5) == pytest.approx(0.5)

    def test_strictly_between_q_and_half(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            M = int(rng.integers(1, 200))
            xi = float(rng.uniform(0.01, 100))
            q = float(rng.uniform(0.001, 0.499))
            b = theory.error_bound(M, xi, q)
            assert q < b < 0.5

    def test_monotone_in_xi_and_m(self):
        xis = [0.1, 0.5, 1, 5, 50]
        vals = [theory.error_bound(10, xi, 0.2) for xi in xis]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ms = [1, 2, 5, 20, 100]
        vals = [theory.error_bound(M, 1.0, 0.2) for M in ms]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestQBound:
    def test_branch_boundary_continuity(self):
        ratio = 2.0 / math.sqrt(3.0)
        upper = theory.q_bound(ratio * (1 + 1e-12), 1.0, 1)
        lower = theory.q_bound(ratio * (1 - 1e-12), 1.0, 1)
        assert abs(upper - 1.0 / 6.0) < 1e-11
        assert abs(lower - 1.0 / 6.0) < 1e-11

    def test_large_margin_vanishes(self):
        assert theory.q_bound(1e6, 1.0, 1) < 1e-11

    def test_zero_gradient_gives_half(self):
        assert theory.q_bound(0.0, 1.0, 16) == 0.5

    def test_never_exceeds_half(self):
        for ratio in np.linspace(0.0, 5.0, 101):
            assert theory.q_bound(ratio, 1.0, 1) <= 0.5

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=1, max_value=4096))
    def test_batch_scaling_equivalence(self, alpha, d_b):
        # only the ratio |g| sqrt(d_b) / alpha matters
        a = theory.q_bound(1.0, alpha, d_b)
        b = theory.q_bound(math.sqrt(d_b) / alpha, 1.0, 1)
        assert a == pytest.approx(b, rel=1e-9)


class TestErrorBoundFull:
    def test_noise_free_limit(self):
        expected = math.sqrt(2) / (3.0 * 2.0)  # alpha=1, |g|=1, d_b=4
        got = theory.error_bound_full(10, 1e12, 1.0, 1.0, 4)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_worked_value(self):
        expected = (10 * math.sqrt(2) / 6.0 + 1.0) / 12.0  # ~0.27975
        assert theory.error_bound_full(10, 1.0, 1.0, 1.0, 4) == pytest.approx(expected)

    def test_monotone_in_batch_size(self):
        vals = [theory.error_bound_full(10, 1.0, 0.5, 1.0, db) for db in (1, 4, 16, 64)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamped_to_unit_interval(self):
        assert theory.error_bound_full(10, 1.0, 1e-9, 1.0, 1) == 1.0
        assert theory.error_bound_full(10, 1.0, 0.0, 1.0, 1) == 1.0


class TestCorollary1:
    def test_majority_and_low_error(self):
        assert theory.corollary1_check(6, 10, 0.3) is True

    def test_no_strict_majority(self):
        assert theory.corollary1_check(5, 10, 0.3) is False

    def test_error_at_half(self):
        assert theory.corollary1_check(6, 10, 0.5) is False


def default_inputs(**kw):
    base = dict(M=20, xi=1.0, L1=10.0, gap=5.0, sigma_l1=2.0, N=400, gamma=4)
    base.update(kw)
    return base


def appendix_grouping(M, xi, L1, gap, sigma_l1, N, gamma):
    """The proof's final rearrangement, with the gamma terms split apart."""
    c = 1.0 + 2.0 / (xi * M)
    term_a = c * math.sqrt(gamma) / (2.0 * math.sqrt(N)) * math.sqrt(L1)
    term_b = c * math.sqrt(L1) / math.sqrt(N * gamma) * gap
    term_c = 2.0 * math.sqrt(2.0) * math.sqrt(gamma) * sigma_l1 / (3.0 * math.sqrt(N))
    return term_a + term_b + term_c


class TestConvergenceBound:
    # frozen hand evaluation:
    # delta = (1 + 2/20) / 2 = 0.55
    # (0.55 * sqrt(10) * 7 + (2 sqrt(2)/3) * 2 * 2) / 20
    HAND = (0.55 * math.sqrt(10.0) * 7.0
            + (2.0 * math.sqrt(2.0) / 3.0) * 2.0 * 2.0) / 20.0

    def test_hand_computed_instance(self):
        assert theory.convergence_bound(**default_inputs()) == pytest.approx(
            self.HAND, abs=1e-9)

    def test_scaling_with_rounds(self):
        b400 = theory.convergence_bound(**default_inputs(N=400))
        b800 = theory.convergence_bound(**default_inputs(N=800))
        assert b800 == pytest.approx(b400 / math.sqrt(2), rel=1e-12)

    def test_delta_limit_large_snr(self):
        inputs = default_inputs(xi=1e9, M=10**6)
        loose = theory.convergence_bound(**inputs)
        # with delta -> 1/sqrt(gamma)
        expected = (math.sqrt(10.0) * 7.0 / 2.0
                    + (2 * math.sqrt(2) / 3) * 2 * 2) / 20.0
        assert loose == pytest.approx(expected, rel=1e-6)

    def test_monotone_in_xi_and_sigma(self):
        vals = [theory.convergence_bound(**default_inputs(xi=x))
                for x in (0.1, 0.5, 1, 5, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vals = [theory.convergence_bound(**default_inputs(sigma_l1=s))
                for s in (0.5, 1, 2, 4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("key", ["gap", "sigma_l1"])
    def test_rejects_negative_gap_or_noise_scale(self, key):
        with pytest.raises(UsageError, match="non-negative"):
            theory.convergence_bound(**default_inputs(**{key: -1e-12}))
        assert theory.convergence_bound(**default_inputs(**{key: 0.0})) > 0

    def test_rejects_indivisible_rounds(self):
        with pytest.raises(UsageError):
            theory.convergence_bound(**default_inputs(N=401))

    def test_appendix_form_agrees(self):
        # the regrouped proof-side expression is algebraically identical
        for xi in (0.3, 1.0, 7.0):
            inputs = default_inputs(xi=xi)
            assert appendix_grouping(**inputs) == pytest.approx(
                theory.convergence_bound(**inputs), rel=1e-12)


class TestTheorem1Eta:
    def test_schedule(self):
        assert theory.theorem1_eta(10.0, 100) == pytest.approx(1.0 / math.sqrt(1000.0))


# Each closed form the theory and sweep commands reach, at a point inside its domain.
CLOSED_FORMS = {
    theory.theta: dict(p_avg=1.0, lam=1.0),
    theory.energy_means: dict(m_plus=3, m_minus=1, theta=2.0, sigma_n2=0.5),
    theory.error_bound: dict(M=10, xi=1.0, q=0.2),
    theory.q_bound: dict(g=1.0, alpha=1.0, d_b=4),
    theory.error_bound_full: dict(M=10, xi=1.0, g=1.0, alpha=1.0, d_b=4),
    theory.corollary1_check: dict(m_plus=6, M=10, p_err=0.3),
    theory.convergence_bound: default_inputs(),
}


class TestDomain:
    def test_every_argument_has_a_domain(self):
        # theorem1_eta takes run's validated values; every other closed form
        # is listed above, so a new one fails here until it has a domain.
        public = {fn for name, fn in vars(theory).items()
                  if inspect.isfunction(fn) and not name.startswith("_")}
        assert public - {theory.theorem1_eta} == set(CLOSED_FORMS)
        params = {name for fn in CLOSED_FORMS
                  for name in inspect.signature(fn).parameters}
        assert params == set(theory._DOMAIN)
        for fn, point in CLOSED_FORMS.items():
            assert list(point) == list(inspect.signature(fn).parameters)
            fn(**point)

    @pytest.mark.parametrize("fn, name", [
        (fn, name) for fn, point in CLOSED_FORMS.items() for name in point],
        ids=lambda v: getattr(v, "__name__", v))
    def test_nan_argument_is_rejected_by_name(self, fn, name):
        # NaN fails every domain test, so each argument must be checked.
        point = {**CLOSED_FORMS[fn], name: math.nan}
        with pytest.raises(UsageError, match=f"^{name} must be "):
            fn(**point)

    def test_cross_argument_rules(self):
        with pytest.raises(UsageError, match="^m_plus must be <= M$"):
            theory.corollary1_check(11, 10, 0.3)
        assert theory.corollary1_check(10, 10, 0.0) is True
