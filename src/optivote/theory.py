"""Closed-form evaluation of the moment, error-probability, and
convergence results for energy-detected majority voting.

All functions are pure.  Those the theory and sweep commands reach name each
argument as its flag (``xi`` is ``--xi``), check it against its ``_DOMAIN``
entry and raise instead of returning sentinels; theorem1_eta takes run's
validated L1_estimate and d_b.
"""

import math

from .errors import UsageError

_BRANCH_POINT = 2.0 / math.sqrt(3.0)

# Each closed-form argument's domain, name -> (test, words); NaN fails every test.
_DOMAIN = {
    **dict.fromkeys(("M", "N", "gamma", "d_b"), (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("xi", "L1", "alpha", "p_avg", "lam", "theta"),
                    (lambda v: v > 0, "positive")),
    **dict.fromkeys(("sigma_n2", "gap", "sigma_l1", "g", "m_plus", "m_minus"),
                    (lambda v: v >= 0, "non-negative")),
    "q": (lambda v: 0 <= v <= 0.5, "in [0, 1/2]"),
    "p_err": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def _require(**args) -> None:
    """Raise UsageError naming the first argument outside its _DOMAIN entry."""
    for name, value in args.items():
        test, words = _DOMAIN[name]
        if not test(value):
            raise UsageError(f"{name} must be {words}")


def theta(p_avg: float, lam: float) -> float:
    """Mean received signal energy per node: p_avg * lambda (C_R = E_s = 1, as in ``phy``)."""
    _require(p_avg=p_avg, lam=lam)
    return p_avg * lam


def energy_means(m_plus: int, m_minus: int, theta: float,
                 sigma_n2: float) -> tuple[float, float]:
    """Expected slot energies (mu+, mu-) for a given vote split."""
    _require(m_plus=m_plus, m_minus=m_minus, theta=theta, sigma_n2=sigma_n2)
    return (m_plus * theta + sigma_n2, m_minus * theta + sigma_n2)


def error_bound(M: int, xi: float, q: float) -> float:
    """MV flip-probability bound: (M q + 1/xi) / (M + 2/xi)."""
    _require(M=M, xi=xi, q=q)
    return (M * q + 1.0 / xi) / (M + 2.0 / xi)


def q_bound(g: float, alpha: float, d_b: int) -> float:
    """Per-node sign-flip bound from Gauss' inequality, piecewise in the
    normalized margin |g| sqrt(d_b) / alpha; never exceeds 1/2."""
    _require(g=g, alpha=alpha, d_b=d_b)
    if g == 0.0:
        return 0.5
    ratio = g * math.sqrt(d_b) / alpha
    if ratio > _BRANCH_POINT:
        return (2.0 / 9.0) / ratio**2
    return 0.5 - ratio / (2.0 * math.sqrt(3.0))


def error_bound_full(M: int, xi: float, g: float, alpha: float, d_b: int) -> float:
    """Flip bound with the data term replaced by sqrt(2) alpha / (3|g| sqrt(d_b)).

    Clamped to [0, 1]: the raw expression exceeds 1 for vanishing |g|; |g| = 0 gives 1.
    """
    _require(M=M, xi=xi, g=g, alpha=alpha, d_b=d_b)
    if g == 0.0:
        return 1.0
    data = math.sqrt(2.0) * alpha / (3.0 * g * math.sqrt(d_b))
    raw = (M * data + 1.0 / xi) / (M + 2.0 / xi)
    return min(max(raw, 0.0), 1.0)


def corollary1_check(m_plus: int, M: int, p_err: float) -> bool:
    """Strict-majority predicate: m+ > M/2 and p_err < 1/2."""
    _require(m_plus=m_plus, M=M, p_err=p_err)
    if m_plus > M:
        raise UsageError("m_plus must be <= M")
    return m_plus > M / 2 and p_err < 0.5


def convergence_bound(M: int, xi: float, L1: float, gap: float,
                      sigma_l1: float, N: int, gamma: int) -> float:
    """Bound on the running mean of ||g||_1 over N rounds (L1 = ||L||_1 the
    smoothness, gap = F(w0) - F*, sigma_l1 = ||sigma||_1 the gradient-noise scale):

    (1/sqrt(N)) * [delta * sqrt(L1) * (gap + gamma/2)
                   + (2 sqrt(2) / 3) * sqrt(gamma) * sigma_l1],
    delta = (1 + 2/(xi M)) / sqrt(gamma).
    """
    _require(M=M, xi=xi, L1=L1, gap=gap, sigma_l1=sigma_l1, N=N, gamma=gamma)
    if N % gamma != 0:
        raise UsageError("N must be divisible by gamma (d_b = N / gamma)")
    delta = (1.0 + 2.0 / (xi * M)) / math.sqrt(gamma)
    term1 = delta * math.sqrt(L1) * (gap + gamma / 2.0)
    term2 = (2.0 * math.sqrt(2.0) / 3.0) * math.sqrt(gamma) * sigma_l1
    return (term1 + term2) / math.sqrt(N)


def theorem1_eta(L1: float, d_b: int) -> float:
    """Learning-rate schedule eta = 1 / sqrt(L1 * d_b)."""
    return 1.0 / math.sqrt(L1 * d_b)
