"""PPM majority-vote PHY: slot-pair superposition and non-coherent detection.

Each gradient coordinate owns an adjacent slot pair (tau+, tau-).  A node
puts its (power- and channel-scaled) pulse in tau+ for a +1 sign and in
tau- for -1; the receiver compares the two accumulated slot energies and
takes the sign of the difference.  No per-node CSI reaches the detector:
only the two scalar slot sums do.

Symbol energy E_s and receiver gain C_R are fixed to 1.
"""

import numpy as np

from .errors import UsageError


def superpose_frame(
    signs: np.ndarray,
    powers: np.ndarray,
    intensities: np.ndarray,
    sigma_n2: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated slot energies of all q coordinates' slot pairs.

    ``signs`` is (m, q) over {-1,+1}; powers and intensities are (m,)
    block-fading values shared by all coordinates of a node.  Per
    coordinate, e+ sums P_m * I_m over nodes voting +1 and e- over nodes
    voting -1; each slot then picks up the mean noise energy sigma_n2 plus
    an independent N(0, sigma_n2) fluctuation.  The common floor cancels
    in the differential detector; slot energies may still go negative
    under the fluctuation, which detection tolerates.  Returns
    (e_plus, e_minus), each (q,).
    """
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise UsageError("signs must be a (nodes, coords) matrix")
    m = signs.shape[0]
    powers = np.asarray(powers, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    if powers.shape != (m,) or intensities.shape != (m,):
        raise UsageError("powers and intensities must match the node axis")
    amp = (powers * intensities)[:, None]
    e_plus = (amp * (signs == 1)).sum(axis=0)
    e_minus = (amp * (signs == -1)).sum(axis=0)
    if sigma_n2 > 0:
        q = signs.shape[1]
        std = np.sqrt(sigma_n2)
        e_plus = e_plus + sigma_n2 + rng.normal(0.0, std, size=q)
        e_minus = e_minus + sigma_n2 + rng.normal(0.0, std, size=q)
    return e_plus, e_minus


def detect_mv(e_plus: np.ndarray, e_minus: np.ndarray) -> np.ndarray:
    """Per-coordinate vote: sign(e+ - e-), with the tie delta=0 -> +1."""
    delta = np.asarray(e_plus, dtype=float) - np.asarray(e_minus, dtype=float)
    return np.where(delta >= 0.0, 1, -1).astype(np.int8)


def ideal_majority(signs: np.ndarray) -> np.ndarray:
    """Noiseless unweighted majority vote with the same +1 tie rule."""
    total = np.asarray(signs).sum(axis=0)
    return np.where(total >= 0, 1, -1).astype(np.int8)
