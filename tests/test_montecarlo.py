import json
import math
import sys
import threading
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.stats import norm

from optivote import channel as ch
from optivote import montecarlo as mc
from optivote import phy, theory
from optivote.errors import UsageError
from optivote.rng import TAG_MC, derive


def single_draw_flips(M, q_i, params, samples, rng):
    """Oracle: one channel per cohort draw, receiver noise from rng.normal."""
    correct = rng.random((samples, M)) >= q_i
    amp = ch.sample_intensities(params, rng, samples * M).reshape(samples, M)
    e_plus = (amp * correct).sum(axis=1)
    e_minus = (amp * ~correct).sum(axis=1)
    if params.sigma_n2 > 0:
        std = np.sqrt(params.sigma_n2)
        e_plus = e_plus + params.sigma_n2 + rng.normal(0.0, std, size=samples)
        e_minus = e_minus + params.sigma_n2 + rng.normal(0.0, std, size=samples)
    flips = (e_plus - e_minus) < 0.0
    return flips, correct.sum(axis=1)


def single_draw_sums(M, q_i, params, samples, rng):
    """Oracle: single_draw_flips's noise-free slot energies and vote counts."""
    correct = rng.random((samples, M)) >= q_i
    amp = ch.sample_intensities(params, rng, samples * M).reshape(samples, M)
    return (amp * correct).sum(axis=1), (amp * ~correct).sum(axis=1), correct.sum(axis=1)


def single_draw_error_bound(M, q_i, params, samples, seed):
    """Oracle: the error-bound report with the cohort drawn for this channel alone."""
    xi = theory.theta(1.0, ch.lambda_eff(params)) / params.sigma_n2
    bound = theory.error_bound(M, xi, q_i)
    rng = derive(seed, TAG_MC, 2, M, int(q_i * 1e6))
    flips, _ = single_draw_flips(M, q_i, params, samples, rng)
    rate = float(flips.mean())
    se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / samples)
    return mc.McReport(
        name=f"error_bound[M={M},xi={xi:.3g},q={q_i}]",
        samples=samples,
        empirical=rate,
        theoretical=bound,
        standard_error=se,
        passed=rate <= bound + 3.0 * se,
        tolerance_rule="empirical <= bound + 3 SE (one-sided, bound is conservative)",
    )


def single_draw_corollary1(M, q_i, params, samples, seed):
    """Oracle: the corollary-1 report from the single-channel flip simulation."""
    flips, n_plus = single_draw_flips(M, q_i, params, samples,
                                      derive(seed, TAG_MC, 4, M))
    majority = n_plus > M / 2
    rate = float(flips[majority].mean())
    n_cond = int(majority.sum())
    return mc.McReport(
        name=f"corollary1[M={M},q={q_i}]",
        samples=n_cond,
        empirical=rate,
        theoretical=0.5,
        standard_error=math.sqrt(max(rate * (1.0 - rate), 1e-12) / n_cond),
        passed=rate < 0.5,
        tolerance_rule="conditional flip rate < 1/2 given realized strict majority",
    )


class TestUnitChannel:
    def test_geometric_efficiency_is_one(self):
        params = mc.unit_channel(xi_snr=1.0)
        assert ch.geometric_efficiency(params) == pytest.approx(1.0, rel=1e-12)

    def test_snr_calibration(self):
        for xi in (0.5, 1.0, 20.0):
            params = mc.unit_channel(xi_snr=xi)
            lam = ch.lambda_eff(params)
            assert theory.theta(1.0, lam) / params.sigma_n2 == pytest.approx(
                xi, rel=1e-12)

    def test_theta_matches_sampled_mean_intensity(self):
        params = mc.unit_channel(xi_snr=1.0)
        rng = derive(0, TAG_MC, 99)
        intens = ch.sample_intensities(params, rng, 400_000)
        lam = ch.lambda_eff(params)
        assert float(intens.mean()) == pytest.approx(theory.theta(1.0, lam), rel=0.01)


class TestVerifyEnergyMeans:
    def test_pure_noise_slot_mean_is_floor(self):
        params = mc.unit_channel(xi_snr=1.0)
        reports = mc.verify_energy_means(params, m_plus=0, m_minus=3,
                                         samples=100_000, seed=1)
        plus = next(r for r in reports if "plus" in r.name.split("[")[0])
        assert plus.theoretical == pytest.approx(params.sigma_n2)
        assert plus.passed

    def test_balanced_split_passes(self):
        params = mc.unit_channel(xi_snr=1.0)
        reports = mc.verify_energy_means(params, m_plus=5, m_minus=5,
                                         samples=100_000, seed=0)
        assert len(reports) == 2
        assert all(r.passed for r in reports)
        lam = ch.lambda_eff(params)
        expected = 5 * theory.theta(1.0, lam) + params.sigma_n2
        for r in reports:
            assert r.theoretical == pytest.approx(expected)


class TestVerifyErrorBound:
    def test_typical_case_passes(self):
        params = mc.unit_channel(xi_snr=1.0)
        report = mc.verify_error_bound(11, 0.2, params, samples=100_000, seed=0)
        assert report.passed
        assert report.empirical <= report.theoretical + 3 * report.standard_error

    def test_smallest_voter_count(self):
        # M=2 is the smallest cohort for which the closed form is a valid
        # upper bound under additive slot noise; check it at high SNR where
        # the bound is tightest.
        params = mc.unit_channel(xi_snr=20.0)
        report = mc.verify_error_bound(2, 0.2, params, samples=100_000, seed=0)
        assert report.passed

    def test_reproducible(self):
        params = mc.unit_channel(xi_snr=1.0)
        a = mc.verify_error_bound(11, 0.2, params, samples=20_000, seed=7)
        b = mc.verify_error_bound(11, 0.2, params, samples=20_000, seed=7)
        assert a == b


class TestVerifyErrorBounds:
    def test_group_matches_single_channel_calls(self):
        channels = [mc.unit_channel(xi_snr=xi) for xi in (0.5, 5.0)]
        group = mc.verify_error_bounds(10, 0.2, mc.unit_channel(1.0),
                                       [p.sigma_n2 for p in channels],
                                       samples=10_000, seed=2)
        assert group == [mc.verify_error_bound(10, 0.2, p, samples=10_000, seed=2)
                         for p in channels]

    def test_noiseless_corollary_matches_oracle(self):
        noiseless = replace(mc.unit_channel(xi_snr=1.0), sigma_n2=0.0)
        got = mc.verify_corollary1(11, 0.1, noiseless, samples=20_000, seed=4)
        assert asdict(got) == asdict(single_draw_corollary1(11, 0.1, noiseless, 20_000, 4))


class TestCohortKernel:
    @pytest.mark.parametrize("block_elements", [None, 4096])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("samples", [10_007, 12_345])
    @pytest.mark.parametrize("M", [4, 11, 101])
    def test_matches_sequential_draw(self, monkeypatch, M, samples, threads,
                                     block_elements):
        if block_elements is not None:
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_elements)
        params = mc.unit_channel(xi_snr=1.0)
        rng = derive(3, TAG_MC, 2, M)
        ref_rng = derive(3, TAG_MC, 2, M)
        got = mc._cohort_sums(M, 0.2, params, samples, rng, threads)
        want = single_draw_sums(M, 0.2, params, samples, ref_rng)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("M", [4, 11])
    def test_rows_are_phy_superpositions(self, M):
        # Each row's (e+, e-) is noise-free phy.superpose_frame on that
        # row's +-1 votes at unit power; the sums differ only in order.
        params = mc.unit_channel(xi_snr=1.0)
        e_plus, e_minus, _ = mc._cohort_sums(M, 0.2, params, 300, derive(6, TAG_MC), 1)
        rng = derive(6, TAG_MC)
        correct = rng.random((300, M)) >= 0.2
        amp = ch.sample_intensities(params, rng, 300 * M).reshape(300, M)
        for row in range(300):
            votes = np.where(correct[row], 1, -1)[:, None]
            want = phy.superpose_frame(votes, np.ones(M), amp[row], 0.0, derive(0))
            np.testing.assert_allclose(e_plus[row], want[0][0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(e_minus[row], want[1][0], rtol=1e-12, atol=0)

    def test_many_blocks_under_fast_thread_switching(self, monkeypatch):
        # Three workers on a two-core machine, 1,001 blocks, and a switch
        # interval short enough to interleave them inside every block: a
        # row written twice or skipped breaks equality with one sequential draw.
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 110)
        params = mc.unit_channel(xi_snr=1.0)
        got = []
        runner = threading.Thread(target=lambda: got.extend(
            mc._cohort_sums(11, 0.3, params, 10_010, derive(1, TAG_MC), 3)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        want = single_draw_sums(11, 0.3, params, 10_010, derive(1, TAG_MC))
        assert len(got) == 3
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("offset", [0, 1, 4_095, 123_457])
    def test_generator_at_offset_is_a_slice_of_one_draw(self, offset):
        rng = derive(5, TAG_MC, 2)
        state = rng.bit_generator.state
        whole = rng.random(offset + 777)
        bits = np.random.PCG64(0)
        for _ in range(2):  # the bit generator is reused, as a block reuses it
            assert np.array_equal(mc._generator_at(bits, state, offset).random(777),
                                  whole[offset:])

    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch):
        started = []

        class Recorder(mc.ThreadPoolExecutor):
            def __init__(self, workers):
                started.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", Recorder)
        params = mc.unit_channel(xi_snr=1.0)
        # 10,007 x 4 is one block: no pool at all.
        mc._cohort_sums(4, 0.2, params, 10_007, derive(0, TAG_MC), threads=3)
        assert started == []
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 4 * 6_000)
        mc._cohort_sums(4, 0.2, params, 10_007, derive(0, TAG_MC), threads=3)
        assert started == [2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_corollary_peak_memory_is_a_few_blocks(self, threads):
        # The parent's whole-cohort pass peaked at 164 MiB here: 10.1 M
        # float64 intensities (77 MiB) plus their products.
        params = mc.unit_channel(xi_snr=1.0)
        tracemalloc.start()
        try:
            mc.verify_corollary1(101, 0.4, params, samples=100_000, seed=0,
                                 threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * mc._BLOCK_ELEMENTS * 8


class TestVerifyQBound:
    def test_zero_gradient(self):
        report = mc.verify_q_bound(0.0, 1.0, 1, samples=100_000, seed=0)
        assert report.theoretical == 0.5
        assert report.passed
        assert report.empirical == pytest.approx(0.5, abs=0.01)

    def test_far_tail_dominates_gaussian(self):
        # q_bound at ratio 3 is 2/81; the true Gaussian rate is Phi(-3).
        report = mc.verify_q_bound(3.0, 1.0, 1, samples=200_000, seed=0)
        assert report.theoretical == pytest.approx(2.0 / 81.0)
        assert report.empirical == pytest.approx(norm.cdf(-3.0), abs=5e-4)
        assert report.passed

    def test_grid_never_violated(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = float(rng.uniform(0.0, 4.0))
            alpha = float(rng.uniform(0.2, 3.0))
            d_b = int(rng.integers(1, 256))
            report = mc.verify_q_bound(g, alpha, d_b, samples=50_000, seed=11)
            assert report.passed, report


class TestVerifyCorollary1:
    def test_noise_free_majority_never_flips(self):
        noiseless = replace(mc.unit_channel(xi_snr=1.0), sigma_n2=0.0)
        # Even without receiver noise the energy vote can flip when the
        # minority happens to draw much stronger fading than the majority,
        # so the conditional rate is small but not exactly zero.
        report = mc.verify_corollary1(11, 0.1, noiseless, samples=50_000, seed=0)
        assert report.empirical < 0.05
        assert report.passed

    def test_noisy_majority_below_half(self):
        params = mc.unit_channel(xi_snr=0.5)
        report = mc.verify_corollary1(11, 0.1, params, samples=100_000, seed=0)
        assert report.passed
        assert report.empirical < 0.5


class TestDefaultSuite:
    def test_full_suite_green(self):
        reports = mc.run_default_suite(samples=50_000, seed=0)
        assert len(reports) == (
            2  # energy means
            + len(mc.DEFAULT_XI_GRID) * len(mc.DEFAULT_M_GRID) * len(mc.DEFAULT_Q_GRID)
            + 6  # q-bound ratios
            + 2  # corollary checks
        )
        failures = [r for r in reports if not r.passed]
        assert not failures, failures

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_single_draw_oracle(self, seed):
        reports = mc.run_default_suite(samples=20_000, seed=seed)
        bounds = [asdict(r) for r in reports if r.name.startswith("error_bound")]
        assert bounds == [
            asdict(single_draw_error_bound(M, q, mc.unit_channel(xi_snr=xi), 20_000, seed))
            for xi in mc.DEFAULT_XI_GRID
            for M in mc.DEFAULT_M_GRID
            for q in mc.DEFAULT_Q_GRID
        ]
        params = mc.unit_channel(xi_snr=1.0)
        assert [asdict(r) for r in reports[-2:]] == [
            asdict(single_draw_corollary1(M, q, params, 20_000, seed))
            for M, q in ((11, 0.1), (101, 0.4))
        ]

    def test_report_bytes_do_not_depend_on_threads(self):
        dumps = {
            json.dumps([asdict(r) for r in
                        mc.run_default_suite(samples=20_000, seed=0, threads=t)])
            for t in (1, 2, 3)
        }
        assert len(dumps) == 1

    def test_rejects_too_few_samples_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew intensities before validating samples")

        monkeypatch.setattr(ch, "sample_intensities", no_draws)
        with pytest.raises(UsageError, match="1e4"):
            mc.run_default_suite(samples=9_999)

    def test_report_serialization(self):
        # Every field is a plain Python value, so a report is plain JSON: no
        # numpy scalar may leak in through a vectorized computation.
        for report in mc.run_default_suite(samples=10_000, seed=0):
            d = asdict(report)
            assert set(d) == {"name", "samples", "empirical", "theoretical",
                              "standard_error", "passed", "tolerance_rule"}
            for key, value in d.items():
                assert type(value) in (str, int, float, bool), (report.name, key, value)
