import inspect
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.stats import norm

from optivote import channel as ch
from optivote import montecarlo as mc
from optivote import phy, rng, theory
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
    """Oracle: single_draw_flips's noise-free slot energies and vote counts.

    Returns (e+, e-, n+) with each row of the whole draw summed as the
    kernel sums it, one einsum row dot over 0/1 votes, and (e+, e-) as
    single_draw_flips's pairwise row sums."""
    correct = rng.random((samples, M)) >= q_i
    amp = ch.sample_intensities(params, rng, samples * M).reshape(samples, M)
    votes = correct.astype(float)
    exact = (np.einsum("ij,ij->i", amp, votes), np.einsum("ij,ij->i", amp, 1.0 - votes),
             correct.sum(axis=1))
    return exact, ((amp * correct).sum(axis=1), (amp * ~correct).sum(axis=1))


def assert_matches_single_draw(got, want):
    exact, pairwise = want
    for g, w in zip(got, exact):
        assert np.array_equal(g, w)
    for g, w in zip(got, pairwise):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


def cohort_sums(M, q_i, params, samples, rng, threads):
    """The kernel's row blocks for the one cell (M, q_i), joined into whole arrays."""
    blocks = list(mc._cohort_sums([(M, q_i)], params, samples, rng, threads))
    return tuple(np.concatenate([b[k][0] for b in blocks]) for k in (2, 3, 4))


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


def shared_cohort_oracle(samples, seed):
    """Oracle: the suite's flip-bound reports, SNR-major, then its two
    Corollary-1 reports, from one sequential draw of a 101-node cohort on
    the suite's key, sliced to each cell's first M nodes."""
    params = mc.unit_channel(xi_snr=1.0)
    rng = derive(seed, TAG_MC, 5)
    u = rng.random((samples, 101))
    amp = ch.sample_intensities(params, rng, samples * 101).reshape(samples, 101)
    z_plus, z_minus = rng.standard_normal(samples), rng.standard_normal(samples)

    def flips(M, q_i, sigma_n2):
        correct = u[:, :M] >= q_i
        noise = sigma_n2 + np.sqrt(sigma_n2) * z_plus, sigma_n2 + np.sqrt(sigma_n2) * z_minus
        e_plus = (amp[:, :M] * correct).sum(axis=1) + noise[0]
        e_minus = (amp[:, :M] * ~correct).sum(axis=1) + noise[1]
        return e_plus - e_minus < 0.0, correct.sum(axis=1) > M / 2

    reports = []
    for xi in mc.DEFAULT_XI_GRID:
        for M in mc.DEFAULT_M_GRID:
            for q_i in mc.DEFAULT_Q_GRID:
                sigma_n2 = mc.unit_channel(xi_snr=xi).sigma_n2
                rate = float(flips(M, q_i, sigma_n2)[0].mean())
                se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / samples)
                bound = theory.error_bound(M, theory.theta(1.0, ch.lambda_eff(params)) / sigma_n2, q_i)
                reports.append(mc.McReport(
                    name=f"error_bound[M={M},xi={xi:.3g},q={q_i}]",
                    samples=samples,
                    empirical=rate,
                    theoretical=bound,
                    standard_error=se,
                    passed=rate <= bound + 3.0 * se,
                    tolerance_rule="empirical <= bound + 3 SE (one-sided, bound is conservative)",
                ))
    for M, q_i in ((11, 0.1), (101, 0.4)):
        flipped, majority = flips(M, q_i, params.sigma_n2)
        rate = float(flipped[majority].mean())
        n_cond = int(majority.sum())
        reports.append(mc.McReport(
            name=f"corollary1[M={M},q={q_i}]",
            samples=n_cond,
            empirical=rate,
            theoretical=0.5,
            standard_error=math.sqrt(max(rate * (1.0 - rate), 1e-12) / n_cond),
            passed=rate < 0.5,
            tolerance_rule="conditional flip rate < 1/2 given realized strict majority",
        ))
    return reports


def whole_draw_energy_means(params, m_plus, m_minus, samples, seed):
    """Oracle: verify_energy_means drawing each slot's intensities in one call."""
    th = theory.theta(1.0, ch.lambda_eff(params))
    mus = theory.energy_means(m_plus, m_minus, th, params.sigma_n2)
    rng = derive(seed, TAG_MC, 1)
    reports = []
    for slot, count, mu in zip(("plus", "minus"), (m_plus, m_minus), mus):
        signal = np.zeros(samples)
        if count > 0:
            intens = ch.sample_intensities(params, rng, samples * count)
            signal = intens.reshape(samples, count).sum(axis=1)
        e = signal + params.sigma_n2 + np.sqrt(params.sigma_n2) * rng.standard_normal(samples)
        emp, se = float(e.mean()), float(e.std(ddof=1) / np.sqrt(samples))
        reports.append(mc.McReport(
            name=f"energy_mean_{slot}[m+={m_plus},m-={m_minus}]",
            samples=samples,
            empirical=emp,
            theoretical=mu,
            standard_error=se,
            passed=abs(emp - mu) <= 3.0 * se,
            tolerance_rule="|empirical - theoretical| <= 3 SE (two-sided)",
        ))
    return reports


def shared_cohort_peak(samples, threads):
    """Traced peak bytes of the suite's shared-cohort counts at seed 0."""
    params = mc.unit_channel(xi_snr=1.0)
    cells = [(M, q) for M in mc.DEFAULT_M_GRID for q in mc.DEFAULT_Q_GRID]
    noise = [mc.unit_channel(xi_snr=xi).sigma_n2 for xi in mc.DEFAULT_XI_GRID]
    tracemalloc.start()
    try:
        mc._cohort_counts(cells + list(mc.COROLLARY_CELLS), params, noise,
                          samples, derive(0, TAG_MC, 5), threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


    @pytest.mark.parametrize("block_elements", [None, 4096])
    @pytest.mark.parametrize("m_plus,m_minus,samples", [(5, 5, 30_011), (0, 3, 10_000),
                                                        (7, 3, 20_000)])
    def test_row_blocks_match_whole_draw_oracle(self, monkeypatch, m_plus, m_minus,
                                                samples, block_elements):
        if block_elements is not None:
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_elements)
        params = mc.unit_channel(xi_snr=1.0)
        got = mc.verify_energy_means(params, m_plus, m_minus, samples, seed=2)
        want = whole_draw_energy_means(params, m_plus, m_minus, samples, seed=2)
        assert [asdict(r) for r in got] == [asdict(r) for r in want]

    def test_peak_memory_is_a_few_sample_arrays(self):
        # The whole-array draw peaked at 129.7 MiB here: 5 M float64
        # intensities (38 MiB) and their temporaries.  Each per-sample array
        # is 7.6 MiB; phy.received holds four of them at once.
        params = mc.unit_channel(xi_snr=1.0)
        tracemalloc.start()
        try:
            mc.verify_energy_means(params, m_plus=5, m_minus=5, samples=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


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


    @pytest.mark.parametrize("seed", [0, 3])
    def test_standalone_checks_match_single_draw_oracles(self, seed):
        # The one-cell checks keep their own keys and their bits: each
        # draws a cohort of its own M alone.
        for xi in (0.5, 20.0):
            params = mc.unit_channel(xi_snr=xi)
            for M, q in ((4, 0.05), (50, 0.4)):
                got = mc.verify_error_bound(M, q, params, samples=20_000, seed=seed, threads=2)
                assert asdict(got) == asdict(single_draw_error_bound(M, q, params, 20_000, seed))
        params = mc.unit_channel(xi_snr=1.0)
        for M, q in mc.COROLLARY_CELLS:
            got = mc.verify_corollary1(M, q, params, samples=20_000, seed=seed, threads=2)
            assert asdict(got) == asdict(single_draw_corollary1(M, q, params, 20_000, seed))

    def test_group_matches_single_channel_calls(self):
        # Criterion 03's shortcut: one cohort on verify_error_bound's key,
        # scored at several noise variances, reports what one
        # verify_error_bound call per channel reports.
        channels = [mc.unit_channel(xi_snr=xi) for xi in (0.5, 5.0)]
        noise = [p.sigma_n2 for p in channels]
        flips = mc._cohort_counts([(10, 0.2)], mc.unit_channel(1.0), noise, 10_000,
                                  derive(2, TAG_MC, 2, 10, int(0.2 * 1e6)), threads=1)[0]
        group = mc._bound_reports(10, 0.2, mc.unit_channel(1.0), noise, 10_000, flips[0])
        assert group == [mc.verify_error_bound(10, 0.2, p, samples=10_000, seed=2)
                         for p in channels]


class TestNoiselessChannel:
    def test_noiseless_flip_bound_is_q(self):
        noiseless = replace(mc.unit_channel(xi_snr=1.0), sigma_n2=0.0)
        got = mc.verify_error_bound(11, 0.2, noiseless, samples=10_000, seed=4)
        assert got.name == "error_bound[M=11,xi=inf,q=0.2]"
        assert got.theoretical == 0.2 == theory.error_bound(11, math.inf, 0.2)
        flips, _ = single_draw_flips(11, 0.2, noiseless, 10_000,
                                     derive(4, TAG_MC, 2, 11, int(0.2 * 1e6)))
        assert got.empirical == flips.mean() < got.theoretical
        assert got.passed

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
        got = cohort_sums(M, 0.2, params, samples, rng, threads)
        assert_matches_single_draw(got, single_draw_sums(M, 0.2, params, samples, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_cells_of_several_q_match_sequential_draw(self, monkeypatch):
        # Two q groups reach the widest column, so only the last may write
        # its votes over the uniforms.
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 4096)
        cells = [(11, 0.3), (4, 0.3), (11, 0.2), (7, 0.05), (7, 0.2)]
        params = mc.unit_channel(xi_snr=1.0)
        got = list(mc._cohort_sums(cells, params, 5_000, derive(8, TAG_MC), 2))
        rng = derive(8, TAG_MC)
        u = rng.random((5_000, 11))
        amp = ch.sample_intensities(params, rng, 5_000 * 11).reshape(5_000, 11)
        for c, (M, q_i) in enumerate(cells):
            votes = (u[:, :M] >= q_i).astype(float)
            want = (np.einsum("ij,ij->i", amp[:, :M], votes),
                    np.einsum("ij,ij->i", amp[:, :M], 1.0 - votes), votes.sum(axis=1))
            for k, w in zip((2, 3, 4), want):
                assert np.array_equal(np.concatenate([b[k][c] for b in got]), w)

    @pytest.mark.parametrize("M", [4, 11])
    def test_rows_are_phy_superpositions(self, M):
        # Each row's (e+, e-) is noise-free phy.superpose_frame on that
        # row's +-1 votes at unit power; the sums differ only in order.
        params = mc.unit_channel(xi_snr=1.0)
        e_plus, e_minus, _ = cohort_sums(M, 0.2, params, 300, derive(6, TAG_MC), 1)
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
            cohort_sums(11, 0.3, params, 10_010, derive(1, TAG_MC), 3)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(got) == 3
        assert_matches_single_draw(got, single_draw_sums(11, 0.3, params, 10_010,
                                                         derive(1, TAG_MC)))

    def test_public_channel_and_phy_code_runs_on_the_calling_thread(self, monkeypatch):
        # A benchmark tracer keeps one span stack and wraps every public
        # function of phy and channel, so the workers call private helpers only.
        callers = set()

        def recorded(fn):
            return lambda *args, **kwargs: callers.add(threading.get_ident()) or fn(*args, **kwargs)

        for module in (phy, ch):
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and not name.startswith("_") \
                        and fn.__module__ == module.__name__:
                    monkeypatch.setattr(module, name, recorded(fn))
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 4096)
        mc.run_default_suite(samples=10_000, seed=0, threads=3)
        assert callers == {threading.get_ident()}

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

        class Recorder(rng.ThreadPoolExecutor):
            def __init__(self, workers):
                started.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(rng, "ThreadPoolExecutor", Recorder)
        params = mc.unit_channel(xi_snr=1.0)
        # 10,007 x 4 is one block: no pool at all.
        cohort_sums(4, 0.2, params, 10_007, derive(0, TAG_MC), threads=3)
        assert started == []
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 4 * 6_000)
        cohort_sums(4, 0.2, params, 10_007, derive(0, TAG_MC), threads=3)
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
        shared = [asdict(r) for r in reports
                  if r.name.startswith(("error_bound", "corollary1"))]
        assert shared == [asdict(r) for r in shared_cohort_oracle(20_000, seed)]

    def test_shared_cohort_peak_memory_is_a_few_blocks(self):
        # The eleven cells share one 101-node cohort: one block of votes and
        # intensities at a time, the two slot normals, and integer counts.
        assert shared_cohort_peak(100_000, threads=1) < 8 * mc._BLOCK_ELEMENTS * 8

    def test_shared_cohort_peak_memory_on_two_threads(self):
        # Each worker holds its block's intensities and uniforms, a spare
        # half-block of votes and the draw's temporaries; the calling
        # thread holds the two slot normals.
        samples = 100_000
        assert (shared_cohort_peak(samples, threads=2)
                < 2 * 5 * mc._BLOCK_ELEMENTS * 8 + 2 * 8 * samples)

    def test_shared_cohort_peak_memory_behind_a_slow_consumer(self, monkeypatch):
        # The same bound with the calling thread 10 ms slower per vote
        # detection than the two workers: finished blocks wait in a window
        # of at most 2 x workers, not in one future per block (which read
        # about 2.5 x the bound).
        detect = phy.detect_mv
        monkeypatch.setattr(phy, "detect_mv", lambda *args: time.sleep(0.01) or detect(*args))
        samples = 100_000
        assert (shared_cohort_peak(samples, threads=2)
                < 2 * 5 * mc._BLOCK_ELEMENTS * 8 + 2 * 8 * samples)

    def test_report_bytes_do_not_depend_on_threads(self):
        dumps = {
            json.dumps([asdict(r) for r in
                        mc.run_default_suite(samples=20_000, seed=0, threads=t)])
            for t in (1, 2, 3)
        }
        assert len(dumps) == 1

    def test_report_bytes_under_fast_thread_switching(self):
        # Four workers on two cores, interleaved inside every block: a block
        # overwritten or yielded out of order would move a report.
        def dump(threads):
            return json.dumps([asdict(r) for r in
                               mc.run_default_suite(samples=20_000, seed=3, threads=threads)])

        switched = []
        runner = threading.Thread(target=lambda: switched.append(dump(4)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert switched == [dump(1)]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_report_bytes_do_not_depend_on_block_size(self, monkeypatch, threads):
        def dump():
            return json.dumps([asdict(r) for r in
                               mc.run_default_suite(samples=20_000, seed=0, threads=threads)])

        default = dump()
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 4096)
        assert dump() == default

    def test_rejects_too_few_samples_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before validating samples")

        # Every draw of the suite goes through these two.
        monkeypatch.setattr(mc, "_intensities_at", no_draws)
        monkeypatch.setattr(mc, "_cohort_counts", no_draws)
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
