"""Closed-form evaluation of the moment, error-probability, and
convergence results for energy-detected majority voting.

All functions are pure and raise on arguments outside their documented
domain instead of returning sentinels.
"""

import math
from dataclasses import dataclass

from .errors import UsageError

_BRANCH_POINT = 2.0 / math.sqrt(3.0)


def theta(p_avg: float, lam: float, c_r: float = 1.0, e_s: float = 1.0) -> float:
    """Mean received signal energy per node: C_R * sqrt(E_s) * p_avg * lambda."""
    if p_avg <= 0 or lam <= 0:
        raise UsageError("p_avg and lambda must be positive")
    return c_r * math.sqrt(e_s) * p_avg * lam


def energy_means(
    m_plus: int, m_minus: int, theta_val: float, sigma_n2: float
) -> tuple[float, float]:
    """Expected slot energies (mu+, mu-) for a given vote split."""
    if m_plus < 0 or m_minus < 0:
        raise UsageError("vote counts must be non-negative")
    return (m_plus * theta_val + sigma_n2, m_minus * theta_val + sigma_n2)


def error_bound(M: int, xi_snr: float, q_i: float) -> float:
    """MV flip-probability bound: (M q + 1/xi) / (M + 2/xi)."""
    if M < 1:
        raise UsageError("M must be >= 1")
    if xi_snr <= 0:
        raise UsageError("xi_snr must be positive")
    if not (0.0 <= q_i <= 0.5):
        raise UsageError("q_i must lie in [0, 1/2]")
    return (M * q_i + 1.0 / xi_snr) / (M + 2.0 / xi_snr)


def q_bound(g_abs_i: float, alpha_i: float, d_b: int) -> float:
    """Per-node sign-flip bound from Gauss' inequality, piecewise in the
    normalized margin |g| sqrt(d_b) / alpha; never exceeds 1/2."""
    if alpha_i <= 0:
        raise UsageError("alpha_i must be positive")
    if d_b < 1:
        raise UsageError("d_b must be >= 1")
    if g_abs_i < 0:
        raise UsageError("g_abs_i must be non-negative")
    if g_abs_i == 0.0:
        return 0.5
    ratio = g_abs_i * math.sqrt(d_b) / alpha_i
    if ratio > _BRANCH_POINT:
        return (2.0 / 9.0) / ratio**2
    return 0.5 - ratio / (2.0 * math.sqrt(3.0))


def error_bound_full(
    M: int, xi_snr: float, g_abs_i: float, alpha_i: float, d_b: int
) -> float:
    """Flip bound with the data term replaced by sqrt(2) alpha / (3|g| sqrt(d_b)).

    Clamped to [0, 1]: the raw expression exceeds 1 for vanishing |g|.
    """
    if M < 1:
        raise UsageError("M must be >= 1")
    if xi_snr <= 0:
        raise UsageError("xi_snr must be positive")
    if alpha_i <= 0 or d_b < 1:
        raise UsageError("alpha_i must be positive and d_b >= 1")
    if g_abs_i <= 0:
        return 1.0
    data = math.sqrt(2.0) * alpha_i / (3.0 * g_abs_i * math.sqrt(d_b))
    raw = (M * data + 1.0 / xi_snr) / (M + 2.0 / xi_snr)
    return min(max(raw, 0.0), 1.0)


def corollary1_check(m_plus: int, M: int, p_err: float) -> bool:
    """Strict-majority predicate: m+ > M/2 and p_err < 1/2."""
    if not (0 <= m_plus <= M):
        raise UsageError("require 0 <= m_plus <= M")
    return m_plus > M / 2 and p_err < 0.5


@dataclass(frozen=True)
class TheoryInputs:
    """Everything the convergence bound needs."""

    M: int
    xi_snr: float
    L1: float  # ||L||_1 smoothness
    gap: float  # F(w0) - F*
    sigma_l1: float  # ||sigma||_1 gradient-noise scale
    N: int
    gamma: int

    def __post_init__(self):
        if self.M < 1 or self.gamma < 1 or self.N < 1:
            raise UsageError("M, N, gamma must be >= 1")
        if self.xi_snr <= 0 or self.L1 <= 0:
            raise UsageError("xi_snr and L1 must be positive")
        if self.N % self.gamma != 0:
            raise UsageError("N must be divisible by gamma (d_b = N / gamma)")


def convergence_bound(inputs: TheoryInputs) -> float:
    """Bound on the running mean of ||g||_1 over N rounds.

    (1/sqrt(N)) * [delta * sqrt(L1) * (gap + gamma/2)
                   + (2 sqrt(2) / 3) * sqrt(gamma) * sigma_l1],
    delta = (1 + 2/(xi M)) / sqrt(gamma).
    """
    delta = (1.0 + 2.0 / (inputs.xi_snr * inputs.M)) / math.sqrt(inputs.gamma)
    term1 = delta * math.sqrt(inputs.L1) * (inputs.gap + inputs.gamma / 2.0)
    term2 = (2.0 * math.sqrt(2.0) / 3.0) * math.sqrt(inputs.gamma) * inputs.sigma_l1
    return (term1 + term2) / math.sqrt(inputs.N)


def theorem1_eta(L1: float, d_b: int) -> float:
    """Learning-rate schedule eta = 1 / sqrt(L1 * d_b)."""
    if L1 <= 0 or d_b < 1:
        raise UsageError("L1 must be positive and d_b >= 1")
    return 1.0 / math.sqrt(L1 * d_b)
