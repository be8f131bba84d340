"""Monte Carlo verification harness tying the simulator to the theory.

Each check draws its samples from seed-derived streams, compares an
empirical statistic against its closed form, and records the pass rule in
the report so a failure is self-explaining.  Bound checks are one-sided:
the closed forms are conservative upper bounds, so the simulator must
never exceed them (plus 3 standard errors of slack).

The flip-bound grid of ``run_default_suite`` draws each (M, q) cohort once
and scores it at every SNR point.  The stream key never held the SNR, so
the four SNR points of one cohort always shared their votes and
intensities: their reports are correlated, not independent.

A cohort is simulated in row blocks of about ``_BLOCK_ELEMENTS`` votes
over ``threads`` worker threads (``_cohort_sums``).  Each block reads its
slice of the cohort's uniform draws from a generator advanced to that
slice, so every report, and every generator state after it, is the same
bits for any thread count.  Only per-sample (samples,) arrays and a few
block-sized temporaries per worker are alive at once; no (samples, M)
array is built.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import channel as ch
from . import theory
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

    def to_dict(self) -> dict:
        d = asdict(self)
        # numpy scalars sneak in through vectorized comparisons; keep the
        # serialized report plain-JSON typed.
        d["empirical"] = float(d["empirical"])
        d["theoretical"] = float(d["theoretical"])
        d["standard_error"] = float(d["standard_error"])
        d["passed"] = bool(d["passed"])
        return d


def _binomial_se(rate: float, samples: int) -> float:
    return float(np.sqrt(max(rate * (1.0 - rate), 1e-12) / samples))


def unit_channel(xi_snr: float, a0: float = 0.9, xi_p: float = 1.5) -> ch.ChannelParams:
    """Channel with geometric efficiency normalized to 1 and sigma_n2 set
    so the effective SNR theta / sigma_n2 (at p_avg = 1) equals xi_snr."""
    d_min, d_max = 500e3, 2000e3
    c_fspl = (d_max**3 - d_min**3) / (3.0 * (d_max - d_min))
    lam = ch.lambda_eff(ch.ChannelParams(d_min, d_max, a0=a0, xi_p=xi_p, c_fspl=c_fspl))
    return ch.ChannelParams(
        d_min, d_max, a0=a0, xi_p=xi_p, sigma_n2=lam / xi_snr, c_fspl=c_fspl
    )


def verify_energy_means(
    params: ch.ChannelParams,
    m_plus: int,
    m_minus: int,
    samples: int,
    p_avg: float = 1.0,
    seed: int = 0,
) -> list[McReport]:
    """Empirical slot-energy means for a fixed vote split vs. closed form."""
    if samples < 10_000:
        raise UsageError("need at least 1e4 samples")
    lam = ch.lambda_eff(params)
    th = theory.theta(p_avg, lam)
    mu_plus, mu_minus = theory.energy_means(m_plus, m_minus, th, params.sigma_n2)
    rng = derive(seed, TAG_MC, 1)
    std_n = np.sqrt(params.sigma_n2)

    reports = []
    for slot, count, mu in (("plus", m_plus, mu_plus), ("minus", m_minus, mu_minus)):
        if count > 0:
            intens = ch.sample_intensities(params, rng, samples * count)
            signal = p_avg * intens.reshape(samples, count).sum(axis=1)
        else:
            signal = np.zeros(samples)
        e = signal + params.sigma_n2 + rng.normal(0.0, std_n, size=samples)
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


def _geometry(params: ch.ChannelParams) -> tuple:
    return (params.d_min, params.d_max, params.a0, params.xi_p, params.fspl_constant)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")


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
    params: ch.ChannelParams,
    samples: int,
    p_avg: float,
    rng: np.random.Generator,
    threads: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free slot energies (e+, e-) and correct-vote counts per sample.

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
        amp *= p_avg
        e_plus[lo:hi] = (amp * correct).sum(axis=1)
        amp *= ~correct
        e_minus[lo:hi] = amp.sum(axis=1)
        n_plus[lo:hi] = correct.sum(axis=1)

    step = max(1, _BLOCK_ELEMENTS // M)
    blocks = [(lo, min(lo + step, samples)) for lo in range(0, samples, step)]
    workers = min(threads, len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda b: block(*b), blocks))
    else:
        for lo, hi in blocks:
            block(lo, hi)
    rng.bit_generator.advance(3 * size)
    return e_plus, e_minus, n_plus


def _simulate_flips(
    M: int,
    q_i: float,
    channels: list[ch.ChannelParams],
    samples: int,
    p_avg: float,
    rng: np.random.Generator,
    threads: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Vectorized vote/transmit/detect rounds with true sign +1.

    One cohort draw (votes and intensities) is scored under the receiver
    noise of every channel, so the channels must share their geometry and
    differ in ``sigma_n2`` only.  Every channel scales the same pair of
    standard normals, drawn right after the cohort, by its own
    sqrt(sigma_n2); ``rng.normal(0, std)`` computes ``0 + std * z``, so
    each channel gets the bits it would get drawing from that state alone.
    A noiseless channel scales them by zero, which adds nothing.

    Returns (flip indicator per sample, for each channel; correct-vote
    count per sample).
    """
    if any(_geometry(p) != _geometry(channels[0]) for p in channels):
        raise UsageError("channels scored against one cohort may differ in sigma_n2 only")
    _check_threads(threads)
    e_plus, e_minus, n_plus = _cohort_sums(
        M, q_i, channels[0], samples, p_avg, rng, threads)
    z_plus = rng.standard_normal(samples)
    z_minus = rng.standard_normal(samples)
    flips = []
    for p in channels:
        std = np.sqrt(p.sigma_n2)
        delta = (e_plus + p.sigma_n2 + std * z_plus) - (e_minus + p.sigma_n2 + std * z_minus)
        flips.append(delta < 0.0)
    return flips, n_plus


def verify_error_bounds(
    M: int,
    q_i: float,
    channels: list[ch.ChannelParams],
    samples: int,
    p_avg: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> list[McReport]:
    """Empirical MV flip rate vs. the closed-form upper bound, per channel.

    The channels share one cohort draw (see ``_simulate_flips``), so their
    reports are correlated, not independent.
    """
    if not (0.0 < q_i < 0.5):
        raise UsageError("q_i must lie in (0, 1/2)")
    if samples < 10_000:
        raise UsageError("need at least 1e4 samples")
    rng = derive(seed, TAG_MC, 2, M, int(q_i * 1e6))
    all_flips, _ = _simulate_flips(M, q_i, channels, samples, p_avg, rng, threads)
    reports = []
    for params, flips in zip(channels, all_flips):
        xi = theory.theta(p_avg, ch.lambda_eff(params)) / params.sigma_n2
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
    params: ch.ChannelParams,
    samples: int,
    p_avg: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> McReport:
    """Empirical MV flip rate vs. the closed-form upper bound."""
    return verify_error_bounds(M, q_i, [params], samples, p_avg, seed, threads)[0]


def verify_q_bound(
    g_abs: float, alpha: float, d_b: int, samples: int, seed: int = 0
) -> McReport:
    """Empirical Gaussian sign-flip rate vs. the Gauss-inequality bound."""
    if alpha <= 0:
        raise UsageError("alpha must be positive")
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
    params: ch.ChannelParams,
    samples: int,
    p_avg: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> McReport:
    """Conditional flip rate given a realized strict +1 majority must be < 1/2."""
    if not (0.0 <= q_i < 0.5):
        raise UsageError("q_i must be below 1/2")
    rng = derive(seed, TAG_MC, 4, M)
    (flips,), n_plus = _simulate_flips(M, q_i, [params], samples, p_avg, rng, threads)
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
    _check_threads(threads)
    reports: list[McReport] = []

    params = unit_channel(xi_snr=1.0)
    reports += verify_energy_means(params, m_plus=5, m_minus=5,
                                   samples=samples, seed=seed)

    channels = [unit_channel(xi_snr=xi) for xi in DEFAULT_XI_GRID]
    by_cohort = [verify_error_bounds(M, q, channels, samples, seed=seed, threads=threads)
                 for M in DEFAULT_M_GRID for q in DEFAULT_Q_GRID]
    for per_snr in zip(*by_cohort):
        reports += per_snr

    for ratio in (0.0, 0.5, 1.0, 2.0 / np.sqrt(3.0), 2.0, 3.0):
        reports.append(
            verify_q_bound(g_abs=ratio, alpha=1.0, d_b=1, samples=samples, seed=seed)
        )

    for M, q in ((11, 0.1), (101, 0.4)):
        reports.append(verify_corollary1(M, q, params, samples, seed=seed,
                                         threads=threads))
    return reports
