"""Importance-aware, CSI-free transmit power control.

Each node scores how often its local gradient signs agreed with the
previously broadcast majority vote; powers then move by rho times the
score's deviation from the population mean and are projected back onto
[p_min, p_max].  The recursion never reads channel state; its parameters
are a ``config.PowerConfig``, which holds their range checks.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import PowerConfig


@dataclass
class PowerState:
    """Per-node powers and last-known consistency scores."""

    p: np.ndarray
    a: np.ndarray

    @classmethod
    def initial(cls, num_nodes: int, params: "PowerConfig") -> "PowerState":
        # p starts at p_avg; scores start neutral at 0.5.
        return cls(
            p=np.full(num_nodes, params.p_avg, dtype=float),
            a=np.full(num_nodes, 0.5, dtype=float),
        )


def consistency_score(local_signs: np.ndarray, mv_prev: np.ndarray) -> np.ndarray:
    """Fraction of coordinates where a sign vector, or each row of a sign
    matrix, matches the prior MV."""
    return np.mean(local_signs == mv_prev, axis=-1)


def update_powers(
    state: PowerState, params: "PowerConfig", active: np.ndarray
) -> PowerState:
    """One projected recursion step over all M nodes.

    ``state.a`` already holds the refreshed scores of this round's active
    nodes (non-selected nodes carry their last score forward).  With
    abar_scope="active", the mean runs over ``active`` indices only.
    """
    a = state.a
    a_bar = float(np.mean(a[active] if params.abar_scope == "active" else a))
    p_new = np.clip(state.p + params.rho * (a - a_bar), params.p_min, params.p_max)
    return PowerState(p=p_new, a=a.copy())
