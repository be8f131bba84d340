"""PPM majority-vote PHY: slot-pair superposition and non-coherent detection.

Each gradient coordinate owns an adjacent slot pair (tau+, tau-).  A node
puts its (power- and channel-scaled) pulse in tau+ for a +1 sign and in
tau- for -1; the receiver compares the two accumulated slot energies and
takes the sign of the difference.  No per-node CSI reaches the detector:
only the two scalar slot sums do.  This module owns that receiver's
slot-noise model (``received``), its detector and its tie rule
(``detect_mv``); the rounds and the Monte Carlo harness both call them.

Symbol energy E_s and receiver gain C_R are fixed to 1.
"""

import numpy as np


def received(signal: np.ndarray, sigma_n2: float | np.ndarray, z: np.ndarray) -> np.ndarray:
    """``signal`` plus the floor sigma_n2 plus N(0, sigma_n2) from normals ``z``, the bits
    of ``rng.normal(0, sqrt(sigma_n2))``; ``sigma_n2`` may broadcast against ``signal``."""
    return signal + sigma_n2 + np.sqrt(sigma_n2) * z


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
    voting -1; each slot then goes through ``received``.  The common floor
    cancels in the differential detector; slot energies may still go
    negative under the fluctuation, which detection tolerates.  A noiseless
    link (sigma_n2 = 0) draws nothing.  Returns (e_plus, e_minus), each (q,).
    """
    amp = (powers * intensities)[:, None]
    e_plus = (amp * (signs == 1)).sum(axis=0)
    e_minus = (amp * (signs == -1)).sum(axis=0)
    if sigma_n2 > 0:
        e_plus = received(e_plus, sigma_n2, rng.standard_normal(len(e_plus)))
        e_minus = received(e_minus, sigma_n2, rng.standard_normal(len(e_minus)))
    return e_plus, e_minus


def detect_mv(e_plus: np.ndarray, e_minus: np.ndarray) -> np.ndarray:
    """Per-coordinate vote: sign(e+ - e-), with the tie delta=0 -> +1 (NaN -> -1)."""
    delta = np.asarray(e_plus, dtype=float) - np.asarray(e_minus, dtype=float)
    return np.where(delta >= 0.0, np.int8(1), np.int8(-1))


def ideal_majority(signs: np.ndarray) -> np.ndarray:
    """Noiseless unweighted majority vote with the detector's tie rule."""
    return detect_mv(np.asarray(signs).sum(axis=0), 0.0)
