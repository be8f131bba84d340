"""Monte Carlo verification harness tying the simulator to the theory.

Each check draws its samples from seed-derived streams, compares an
empirical statistic against its closed form, and records the pass rule in
the report so a failure is self-explaining.  Bound checks are one-sided:
the closed forms are conservative upper bounds, so the simulator must
never exceed them (plus 3 standard errors of slack).

Slot noise and votes come from ``phy``, the simulator's own receiver.  The
flip-bound grid of ``run_default_suite`` draws each (M, q) cohort once and
scores it under the noise variance of every SNR point, so the four reports
of one cohort share their votes and intensities: they are correlated.

A cohort is simulated in row blocks of about ``_BLOCK_ELEMENTS`` votes
over ``threads`` worker threads (``_cohort_sums``).  Each block reads its
slice of the cohort's uniform draws from a generator advanced to that
slice, so every report, and every generator state after it, is the same
bits for any thread count.  Only per-sample (samples,) arrays and a few
block-sized temporaries per worker are alive at once; no (samples, M)
array is built.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import phy, theory
from .config import ChannelConfig
from .errors import UsageError
from .rng import TAG_MC, derive


@dataclass(frozen=True)
class McReport:
    name: str
    samples: int
    empirical: float
    theoretical: float
    standard_error: float
    passed: bool
    tolerance_rule: str


def _binomial_se(rate: float, samples: int) -> float:
    return float(np.sqrt(max(rate * (1.0 - rate), 1e-12) / samples))


def unit_channel(xi_snr: float) -> ChannelConfig:
    """The default channel with geometric efficiency normalized to 1 and
    sigma_n2 set so the effective SNR theta / sigma_n2 equals xi_snr: every
    check sends at unit power, p_avg = 1."""
    shell = ChannelConfig()
    c_fspl = (shell.d_max**3 - shell.d_min**3) / (3.0 * (shell.d_max - shell.d_min))
    lam = ch.lambda_eff(ChannelConfig(c_fspl=c_fspl))
    return ChannelConfig(c_fspl=c_fspl, sigma_n2=lam / xi_snr)


def verify_energy_means(
    params: ChannelConfig,
    m_plus: int,
    m_minus: int,
    samples: int,
    seed: int = 0,
) -> list[McReport]:
    """Empirical slot-energy means for a fixed vote split vs. closed form."""
    th = theory.theta(1.0, ch.lambda_eff(params))
    mu_plus, mu_minus = theory.energy_means(m_plus, m_minus, th, params.sigma_n2)
    rng = derive(seed, TAG_MC, 1)

    reports = []
    for slot, count, mu in (("plus", m_plus, mu_plus), ("minus", m_minus, mu_minus)):
        if count > 0:
            intens = ch.sample_intensities(params, rng, samples * count)
            signal = intens.reshape(samples, count).sum(axis=1)
        else:
            signal = np.zeros(samples)
        e = phy.received(signal, params.sigma_n2, rng.standard_normal(samples))
        emp = float(e.mean())
        se = float(e.std(ddof=1) / np.sqrt(samples))
        reports.append(
            McReport(
                name=f"energy_mean_{slot}[m+={m_plus},m-={m_minus}]",
                samples=samples,
                empirical=emp,
                theoretical=mu,
                standard_error=se,
                passed=abs(emp - mu) <= 3.0 * se,
                tolerance_rule="|empirical - theoretical| <= 3 SE (two-sided)",
            )
        )
    return reports


# Elements (rows * M) per block of the cohort kernel: each of a block's
# few float64 temporaries is 1 MiB, whatever the cohort size.
_BLOCK_ELEMENTS = 2**17


def _generator_at(bit_generator: np.random.PCG64, state: dict,
                  offset: int) -> np.random.Generator:
    """``bit_generator`` set to ``state`` and advanced by ``offset`` outputs:
    as ``Generator.random`` takes one output per float64, its ``random(n)``
    is elements offset .. offset+n-1 of one ``random`` draw from ``state``."""
    bit_generator.state = state
    return np.random.Generator(bit_generator.advance(offset))


def _cohort_sums(
    M: int,
    q_i: float,
    params: ChannelConfig,
    samples: int,
    rng: np.random.Generator,
    threads: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free slot energies (e+, e-) and correct-vote counts per sample.

    The one superposition outside ``phy``: every sample has its own fading,
    so a block sums each row's M products along its node axis.
    ``rng`` draws ``samples * M`` uniforms for the votes (row-major), then
    as many distances, then as many pointing gains; each row block reads
    its slice of the three draws and sums its M products in the same order
    as a whole-cohort pass, so results and the final ``rng`` state do not
    depend on ``threads`` or the block size.
    """
    state = rng.bit_generator.state
    size = samples * M
    e_plus = np.empty(samples)
    e_minus = np.empty(samples)
    n_plus = np.empty(samples, dtype=np.int64)

    def block(lo: int, hi: int) -> None:
        rows, start = hi - lo, lo * M
        # A fixed seed skips gathering OS entropy; _generator_at sets the state.
        bits = np.random.PCG64(0)
        correct = _generator_at(bits, state, start).random((rows, M)) >= q_i
        amp = ch._intensity(
            params,
            _generator_at(bits, state, size + start).random(rows * M),
            _generator_at(bits, state, 2 * size + start).random(rows * M),
        ).reshape(rows, M)
        e_plus[lo:hi] = (amp * correct).sum(axis=1)
        amp *= ~correct
        e_minus[lo:hi] = amp.sum(axis=1)
        n_plus[lo:hi] = correct.sum(axis=1)

    step = max(1, _BLOCK_ELEMENTS // M)
    blocks = [(lo, min(lo + step, samples)) for lo in range(0, samples, step)]
    workers = min(threads, len(blocks))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        list((pool.map if pool else map)(lambda b: block(*b), blocks))
    rng.bit_generator.advance(3 * size)
    return e_plus, e_minus, n_plus


def _simulate_flips(
    M: int,
    q_i: float,
    params: ChannelConfig,
    noise_variances: list[float],
    samples: int,
    rng: np.random.Generator,
    threads: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Vectorized vote/transmit/detect rounds with true sign +1.

    One cohort draw on ``params`` (votes and intensities) is scored under
    each receiver-noise variance: every variance scales the same pair of
    standard normals, drawn right after the cohort, through
    ``phy.received``, so each gets the bits it would get drawing from that
    state alone.  A zero variance scales them by zero, which adds nothing.

    Returns (flip indicator per sample, for each variance; correct-vote
    count per sample).
    """
    e_plus, e_minus, n_plus = _cohort_sums(M, q_i, params, samples, rng, threads)
    z_plus = rng.standard_normal(samples)
    z_minus = rng.standard_normal(samples)
    flips = [phy.detect_mv(phy.received(e_plus, s2, z_plus),
                           phy.received(e_minus, s2, z_minus)) == -1
             for s2 in noise_variances]
    return flips, n_plus


def verify_error_bounds(
    M: int,
    q_i: float,
    params: ChannelConfig,
    noise_variances: list[float],
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> list[McReport]:
    """Empirical MV flip rate vs. the closed-form upper bound, per noise variance.

    The variances share one cohort draw (see ``_simulate_flips``), so their
    reports are correlated, not independent.
    """
    rng = derive(seed, TAG_MC, 2, M, int(q_i * 1e6))
    all_flips, _ = _simulate_flips(M, q_i, params, noise_variances, samples, rng, threads)
    reports = []
    for sigma_n2, flips in zip(noise_variances, all_flips):
        xi = theory.theta(1.0, ch.lambda_eff(params)) / sigma_n2
        bound = theory.error_bound(M, xi, q_i)
        rate = float(flips.mean())
        se = _binomial_se(rate, samples)
        reports.append(McReport(
            name=f"error_bound[M={M},xi={xi:.3g},q={q_i}]",
            samples=samples,
            empirical=rate,
            theoretical=bound,
            standard_error=se,
            passed=rate <= bound + 3.0 * se,
            tolerance_rule="empirical <= bound + 3 SE (one-sided, bound is conservative)",
        ))
    return reports


# Kept for perfbench: BENCHMARK.json lists its per-layer metrics.
def verify_error_bound(
    M: int,
    q_i: float,
    params: ChannelConfig,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> McReport:
    """Empirical MV flip rate vs. the closed-form upper bound."""
    return verify_error_bounds(M, q_i, params, [params.sigma_n2], samples, seed, threads)[0]


def verify_q_bound(
    g_abs: float, alpha: float, d_b: int, samples: int, seed: int = 0
) -> McReport:
    """Empirical Gaussian sign-flip rate vs. the Gauss-inequality bound."""
    bound = theory.q_bound(g_abs, alpha, d_b)
    rng = derive(seed, TAG_MC, 3, d_b)
    noisy = g_abs + rng.normal(0.0, alpha / np.sqrt(d_b), size=samples)
    rate = float((noisy < 0.0).mean())
    se = _binomial_se(rate, samples)
    return McReport(
        name=f"q_bound[g={g_abs},alpha={alpha},d_b={d_b}]",
        samples=samples,
        empirical=rate,
        theoretical=bound,
        standard_error=se,
        passed=rate <= bound + 3.0 * se,
        tolerance_rule="empirical <= bound + 3 SE (one-sided)",
    )


def verify_corollary1(
    M: int,
    q_i: float,
    params: ChannelConfig,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> McReport:
    """Conditional flip rate given a realized strict +1 majority must be < 1/2."""
    rng = derive(seed, TAG_MC, 4, M)
    (flips,), n_plus = _simulate_flips(M, q_i, params, [params.sigma_n2], samples, rng, threads)
    majority = n_plus > M / 2
    n_cond = int(majority.sum())
    if n_cond == 0:
        raise UsageError("no samples realized a strict majority; increase samples")
    rate = float(flips[majority].mean())
    se = _binomial_se(rate, n_cond)
    return McReport(
        name=f"corollary1[M={M},q={q_i}]",
        samples=n_cond,
        empirical=rate,
        theoretical=0.5,
        standard_error=se,
        passed=rate < 0.5,
        tolerance_rule="conditional flip rate < 1/2 given realized strict majority",
    )


DEFAULT_XI_GRID = (0.5, 1.0, 5.0, 20.0)
DEFAULT_M_GRID = (4, 10, 50)
DEFAULT_Q_GRID = (0.05, 0.2, 0.4)


def run_default_suite(
    samples: int = 100_000, seed: int = 0, threads: int = 1
) -> list[McReport]:
    """Full verification sweep used by the `verify` CLI subcommand.

    The error-bound grid draws each (M, q) cohort once and scores it at
    every SNR point; the reports come out SNR-major, then M, then q.
    ``threads`` sets the workers of the cohort kernel; the reports do not
    depend on it.
    """
    if samples < 10_000:
        raise UsageError("need at least 1e4 samples")
    reports: list[McReport] = []

    params = unit_channel(xi_snr=1.0)
    reports += verify_energy_means(params, m_plus=5, m_minus=5,
                                   samples=samples, seed=seed)

    noise = [unit_channel(xi_snr=xi).sigma_n2 for xi in DEFAULT_XI_GRID]
    by_cohort = [verify_error_bounds(M, q, params, noise, samples, seed=seed, threads=threads)
                 for M in DEFAULT_M_GRID for q in DEFAULT_Q_GRID]
    for per_snr in zip(*by_cohort):
        reports += per_snr

    for ratio in (0.0, 0.5, 1.0, 2.0 / math.sqrt(3.0), 2.0, 3.0):
        reports.append(
            verify_q_bound(g_abs=ratio, alpha=1.0, d_b=1, samples=samples, seed=seed)
        )

    for M, q in ((11, 0.1), (101, 0.4)):
        reports.append(verify_corollary1(M, q, params, samples, seed=seed,
                                         threads=threads))
    return reports
