"""Importance-aware, CSI-free transmit power control.

Each node scores how often its local gradient signs agreed with the
previously broadcast majority vote; powers then move by rho times the
score's deviation from the population mean and are projected back onto
[p_min, p_max].  Both steps are functions of arrays; the run holds each
node's power p and last-known score a.  The recursion never reads channel
state; its parameters are a ``config.PowerConfig``, which checks them.
"""

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import PowerConfig


def consistency_score(local_signs: np.ndarray, mv_prev: np.ndarray) -> np.ndarray:
    """Fraction of coordinates where a sign vector, or each row of a sign
    matrix, matches the prior MV."""
    return np.mean(local_signs == mv_prev, axis=-1)


def update_powers(p: np.ndarray, a: np.ndarray, params: "PowerConfig",
                  active: np.ndarray) -> np.ndarray:
    """One projected recursion step over all M nodes: new powers, no argument written.

    ``a`` already holds the refreshed scores of this round's active nodes (the
    others carry their last score forward).  With abar_scope="active", the mean
    runs over ``active`` indices only.
    """
    a_bar = float(np.mean(a[active] if params.abar_scope == "active" else a))
    return np.clip(p + params.rho * (a - a_bar), params.p_min, params.p_max)
