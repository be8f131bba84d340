"""Importance-aware, CSI-free transmit power control.

Each node scores how often its local gradient signs agreed with the
previously broadcast majority vote; powers then move by rho times the
score's deviation from the population mean and are projected back onto
[p_min, p_max].  The recursion never reads channel state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class PowerParams:
    p_avg: float = 1.0
    p_min: float = 0.1
    p_max: float = 2.0
    rho: float = 0.05
    abar_scope: str = "all"  # "all" | "active"

    def __post_init__(self):
        if not (0 < self.p_min <= self.p_avg <= self.p_max):
            raise UsageError("require 0 < p_min <= p_avg <= p_max")
        if self.rho < 0:
            raise UsageError("require rho >= 0")
        if self.abar_scope not in ("all", "active"):
            raise UsageError("abar_scope must be 'all' or 'active'")


@dataclass
class PowerState:
    """Per-node powers and last-known consistency scores."""

    p: np.ndarray
    a: np.ndarray

    @classmethod
    def initial(cls, num_nodes: int, params: PowerParams) -> "PowerState":
        # p starts at p_avg; scores start neutral at 0.5.
        return cls(
            p=np.full(num_nodes, params.p_avg, dtype=float),
            a=np.full(num_nodes, 0.5, dtype=float),
        )


def consistency_score(local_signs: np.ndarray, mv_prev: np.ndarray) -> np.ndarray:
    """Fraction of coordinates where a sign vector, or each row of a sign
    matrix, matches the prior MV."""
    local_signs = np.asarray(local_signs)
    mv_prev = np.asarray(mv_prev)
    if mv_prev.ndim != 1 or local_signs.shape[-1:] != mv_prev.shape or mv_prev.size == 0:
        raise UsageError("sign vectors must be nonempty and equal length")
    return np.mean(local_signs == mv_prev, axis=-1)


def update_powers(
    state: PowerState, params: PowerParams, active: np.ndarray | None = None
) -> PowerState:
    """One projected recursion step over all M nodes.

    ``state.a`` already holds the refreshed scores of this round's active
    nodes (non-selected nodes carry their last score forward).  With
    abar_scope="active", the mean runs over ``active`` indices only.
    """
    a = state.a
    if params.abar_scope == "active":
        if active is None or len(active) == 0:
            raise UsageError("abar_scope='active' requires a nonempty active set")
        a_bar = float(np.mean(a[np.asarray(active)]))
    else:
        a_bar = float(np.mean(a))
    p_new = np.clip(state.p + params.rho * (a - a_bar), params.p_min, params.p_max)
    return PowerState(p=p_new, a=a.copy())
