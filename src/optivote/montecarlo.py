"""Monte Carlo verification harness tying the simulator to the theory.

Each check draws its samples from seed-derived streams, compares an
empirical statistic against its closed form, and records the pass rule in
the report so a failure is self-explaining.  Bound checks are one-sided:
the closed forms are conservative upper bounds, so the simulator must
never exceed them (plus 3 standard errors of slack).

Slot noise and votes come from ``phy``, the simulator's own receiver.
``run_default_suite`` reads every flip-bound (M, q) cell and both
Corollary-1 cells off the first M nodes of one shared cohort, and scores
each flip-bound cell under the noise variance of every SNR point: its 36
flip-bound and 2 Corollary-1 reports share votes and intensities, so they
are correlated across SNR, M and q.  Its six q-bound reports all run at
d_b = 1, so they share one stream of normals too.

A cohort is simulated in near-equal row blocks of at most
``_BLOCK_ELEMENTS`` votes over ``threads`` worker threads
(``_cohort_sums``); the slot-energy check sums its intensities in such
blocks on the calling thread.  Each block reads its slice of the draws
from a generator advanced to that slice, and each cell of a block is a
per-row dot product whose summation order is fixed per row, so every
report, and every generator state after it, is the same bits for any
thread count or block size.  The calling thread reduces each block to counts
in one receiver pass for every SNR point, so only the two slot normals, at most
2 x workers finished blocks and a few temporaries per worker are alive.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import phy, theory
from .config import ChannelConfig
from .errors import UsageError
from .rng import TAG_MC, _map_blocks, _row_blocks, derive


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
    """Empirical slot-energy means for a fixed vote split vs. closed form.

    Each slot sums its intensities in row blocks read at their offsets, with
    the bits of one ``sample_intensities`` call, then draws its normals, all
    on the calling thread."""
    th = theory.theta(1.0, ch.lambda_eff(params))
    mu_plus, mu_minus = theory.energy_means(m_plus, m_minus, th, params.sigma_n2)
    rng = derive(seed, TAG_MC, 1)

    reports = []
    for slot, count, mu in (("plus", m_plus, mu_plus), ("minus", m_minus, mu_minus)):
        signal = np.zeros(samples)
        if count > 0:
            state, size = rng.bit_generator.state, samples * count
            signal = np.concatenate([
                _intensities_at(params, state, lo * count, size, hi - lo, count).sum(axis=1)
                for lo, hi in _row_blocks(samples, max(1, _BLOCK_ELEMENTS // count))])
            rng.bit_generator.advance(2 * size)
        signal = phy.received(signal, params.sigma_n2, rng.standard_normal(samples))
        emp = float(signal.mean())
        se = float(signal.std(ddof=1) / np.sqrt(samples))
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


# Elements (rows * width) per row block of a draw, at most: each of a
# block's few float64 temporaries is at most 1 MiB, whatever the cohort size.
_BLOCK_ELEMENTS = 2**17


def _generator_at(bit_generator: np.random.PCG64, state: dict,
                  offset: int) -> np.random.Generator:
    """``bit_generator`` set to ``state`` and advanced by ``offset`` outputs:
    as ``Generator.random`` takes one output per float64, its ``random(n)``
    is elements offset .. offset+n-1 of one ``random`` draw from ``state``."""
    bit_generator.state = state
    return np.random.Generator(bit_generator.advance(offset))


def _intensities_at(params: ChannelConfig, state: dict, offset: int, size: int,
                    rows: int, width: int) -> np.ndarray:
    """(rows, width) intensities from elements offset.. (distances) and
    size + offset.. (pointing gains) of one ``random`` draw from ``state``."""
    bits, n = np.random.PCG64(0), rows * width  # a fixed seed skips OS entropy
    return ch._intensity(params, _generator_at(bits, state, offset).random(n),
                         _generator_at(bits, state, size + offset).random(n)
                         ).reshape(rows, width)


def _cohort_sums(
    cells: list[tuple[int, float]],
    params: ChannelConfig,
    samples: int,
    rng: np.random.Generator,
    threads: int,
):
    """Noise-free slot energies (e+, e-) and correct-vote counts of (M, q)
    cells on one cohort, as an iterator of (lo, hi, e+, e-, n+) per row
    block in row order, each (cells, rows) float64.

    ``rng`` draws ``samples * W`` uniforms for the votes of W = max M nodes
    (row-major), then as many distances, then as many pointing gains, and
    is advanced past them on the call.  Cell (M, q) reads node columns
    [:M]; a node votes for the true sign +1 when its uniform is >= q.  The
    one superposition outside ``phy``: every sample has its own fading, so
    each cell is a per-row dot product of the intensities with 0/1 votes
    (for e-, with 1 - votes).  Every term is an intensity or 0.0, and
    einsum sums each row on its own in a fixed order, so the sums do not
    depend on ``threads`` or the block size.  Worker threads build each
    block from its slice of the three draws, in the order of a
    whole-cohort pass.
    """
    width = max(M for M, _ in cells)
    state, size = rng.bit_generator.state, samples * width
    rng.bit_generator.advance(3 * size)
    # Cells by q, widest M last: the last group's votes overwrite the
    # uniforms, which nothing reads after them; the rest share a spare.
    by_q: dict[float, list[tuple[int, int]]] = {}
    for c, (M, q_i) in enumerate(cells):
        by_q.setdefault(q_i, []).append((c, M))
    groups = sorted((max(M for _, M in group), q_i, group) for q_i, group in by_q.items())
    spare = max((top for top, _, _ in groups[:-1]), default=0)

    def block(lo: int, hi: int):
        rows, start = hi - lo, lo * width
        amp = _intensities_at(params, state, size + start, size, rows, width)
        u = _generator_at(np.random.PCG64(0), state, start).random((rows, width))
        buffer = np.empty((rows, spare))
        e = np.empty((2, len(cells), rows))
        n_plus = np.empty((len(cells), rows))
        for top, q_i, group in groups:
            v = np.greater_equal(u[:, :top], q_i,
                                 out=(u if q_i == groups[-1][1] else buffer)[:, :top])
            for c, M in group:
                np.einsum("ij,ij->i", amp[:, :M], v[:, :M], out=e[0, c])
                np.einsum("ij->i", v[:, :M], out=n_plus[c])
            np.subtract(1.0, v, out=v)  # 1.0 on the wrong votes
            for c, M in group:
                np.einsum("ij,ij->i", amp[:, :M], v[:, :M], out=e[1, c])
        return lo, hi, e[0], e[1], n_plus

    return _map_blocks(block, _row_blocks(samples, max(1, _BLOCK_ELEMENTS // width)), threads)


def _cohort_counts(
    cells: list[tuple[int, float]],
    params: ChannelConfig,
    noise_variances: list[float],
    samples: int,
    rng: np.random.Generator,
    threads: int,
) -> tuple[list, list, list]:
    """Vote/transmit/detect rounds with true sign +1, reduced to counts.

    One cohort (``_cohort_sums``) is scored under every receiver-noise
    variance in one ``phy.received`` per slot and one ``phy.detect_mv`` per
    block: the variances, as a (variances, 1, 1) column, scale the pair of
    standard normals drawn right after the cohort, each element with the
    bits of its own scalar call, so a one-cell call gets the bits of drawing
    that state alone.  A zero variance adds nothing.  Returns flips (cells,
    variances), strict-majority rows (cells,) and their flips (cells,
    variances).
    """
    blocks = _cohort_sums(cells, params, samples, rng, threads)
    z_plus, z_minus = rng.standard_normal(samples), rng.standard_normal(samples)
    half = np.array([M for M, _ in cells])[:, None] / 2
    s2 = np.array(noise_variances)[:, None, None]
    flips = np.zeros((len(noise_variances), len(cells)), dtype=np.int64)
    majorities = np.zeros(len(cells), dtype=np.int64)
    flips_in_majority = np.zeros_like(flips)
    for lo, hi, e_plus, e_minus, n_plus in blocks:
        majority = n_plus > half
        majorities += majority.sum(axis=1)
        flipped = phy.detect_mv(phy.received(e_plus, s2, z_plus[lo:hi]),
                                phy.received(e_minus, s2, z_minus[lo:hi])) == -1
        flips += flipped.sum(axis=2)
        flips_in_majority += (flipped & majority).sum(axis=2)
    return flips.T.tolist(), majorities.tolist(), flips_in_majority.T.tolist()


def _bound_reports(M: int, q_i: float, params: ChannelConfig, noise_variances: list[float],
                   samples: int, flips: list[int]) -> list[McReport]:
    reports = []
    for sigma_n2, n_flips in zip(noise_variances, flips):
        xi = theory.theta(1.0, ch.lambda_eff(params)) / sigma_n2 if sigma_n2 else math.inf
        bound = theory.error_bound(M, xi, q_i)
        rate = n_flips / samples
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
    """Empirical MV flip rate vs. the closed-form upper bound (xi = inf
    on a noiseless channel, where the bound is q_i)."""
    noise = [params.sigma_n2]
    flips, _, _ = _cohort_counts([(M, q_i)], params, noise, samples,
                                 derive(seed, TAG_MC, 2, M, int(q_i * 1e6)), threads)
    return _bound_reports(M, q_i, params, noise, samples, flips[0])[0]


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


def _corollary_report(M: int, q_i: float, n_cond: int, n_flips: int) -> McReport:
    if n_cond == 0:
        raise UsageError("no samples realized a strict majority; increase samples")
    rate = n_flips / n_cond
    return McReport(
        name=f"corollary1[M={M},q={q_i}]",
        samples=n_cond,
        empirical=rate,
        theoretical=0.5,
        standard_error=_binomial_se(rate, n_cond),
        passed=rate < 0.5,
        tolerance_rule="conditional flip rate < 1/2 given realized strict majority",
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
    _, majorities, flips = _cohort_counts([(M, q_i)], params, [params.sigma_n2], samples,
                                          derive(seed, TAG_MC, 4, M), threads)
    return _corollary_report(M, q_i, majorities[0], flips[0][0])


DEFAULT_XI_GRID = (0.5, 1.0, 5.0, 20.0)
DEFAULT_M_GRID = (4, 10, 50)
DEFAULT_Q_GRID = (0.05, 0.2, 0.4)
COROLLARY_CELLS = ((11, 0.1), (101, 0.4))


def run_default_suite(
    samples: int = 100_000, seed: int = 0, threads: int = 1
) -> list[McReport]:
    """Full verification sweep used by the `verify` CLI subcommand.

    Every flip-bound (M, q) cell and both Corollary-1 cells read the first M
    nodes of one shared cohort, scored at every SNR point (Corollary 1 at
    the unit channel's own); the flip-bound reports come out SNR-major,
    then M, then q.  ``threads`` sets the workers of the cohort kernel; the
    reports do not depend on it.
    """
    if samples < 10_000:
        raise UsageError("need at least 1e4 samples")
    width = max(M for M, _ in COROLLARY_CELLS)  # the shared cohort's nodes
    if samples * width > np.iinfo(np.intp).max:
        raise UsageError(f"--samples must be at most {np.iinfo(np.intp).max // width}, "
                         f"so numpy can index a {width}-wide cohort")
    reports: list[McReport] = []

    params = unit_channel(xi_snr=1.0)
    reports += verify_energy_means(params, m_plus=5, m_minus=5, samples=samples, seed=seed)

    noise = [unit_channel(xi_snr=xi).sigma_n2 for xi in DEFAULT_XI_GRID]
    cells = [(M, q) for M in DEFAULT_M_GRID for q in DEFAULT_Q_GRID]
    flips, majorities, flips_in_majority = _cohort_counts(
        cells + list(COROLLARY_CELLS), params, noise, samples, derive(seed, TAG_MC, 5), threads)
    by_cell = [_bound_reports(M, q, params, noise, samples, f) for (M, q), f in zip(cells, flips)]
    for per_snr in zip(*by_cell):
        reports += per_snr

    reports += [verify_q_bound(g_abs=ratio, alpha=1.0, d_b=1, samples=samples, seed=seed)
                for ratio in (0.0, 0.5, 1.0, 2.0 / math.sqrt(3.0), 2.0, 3.0)]

    own = noise.index(params.sigma_n2)
    for c, (M, q) in enumerate(COROLLARY_CELLS, len(cells)):
        reports.append(_corollary_report(M, q, majorities[c], flips_in_majority[c][own]))
    return reports
