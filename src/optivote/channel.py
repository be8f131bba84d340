"""Stochastic inter-satellite FSO channel.

The channel gain of a node is the product of a geometric path-loss term
h_l = C_FSPL / d^2, with the link distance d drawn from a 3D spherical
shell, and a pointing-loss term h_p drawn from a zero-boresight jitter
power law on (0, a0].  Both samplers use inverse-CDF transforms so a
fixed seed replays bit-identically.  ``lambda_eff`` gives the exact
ensemble mean of the gain; ``lambda_oracle`` recomputes it by adaptive
quadrature as an independent cross-check, and is the package's only user
of scipy, which it imports when called.

Every function takes a ``config.ChannelConfig``, which holds the range
checks, and reads its SI properties (``d_min``, ``d_max``, ``fspl_constant``).

``sample_channel`` draws one node's intensity with Python float
arithmetic; ``sample_intensities`` draws many with numpy arrays.  The two
round ``**`` differently: numpy's vectorized pow differs from the scalar
one in the last bit for about one draw in ten.  So the per-node draws of
``orchestrator._round`` stay scalar; batching them would move ``metrics.csv``.
"""

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericError

if TYPE_CHECKING:
    from .config import ChannelConfig


def _distance(params: "ChannelConfig", u):
    """Inverse-CDF transform of uniform draw(s) u to link distance(s), in place."""
    lo3, hi3 = params.d_min**3, params.d_max**3
    u *= hi3 - lo3
    u += lo3
    u **= 1.0 / 3.0
    return u


def _pointing(params: "ChannelConfig", u):
    """Inverse-CDF transform of uniform draw(s) u to pointing gain(s), in place."""
    u **= 1.0 / params.xi_p**2
    u *= params.a0
    return u


def _intensity(params: "ChannelConfig", u_distance, u_pointing):
    """h_l * h_p from the two uniform arrays, built in ``u_distance``'s buffer."""
    gain = _distance(params, u_distance)
    np.square(gain, out=gain)
    np.divide(params.fspl_constant, gain, out=gain)
    gain *= _pointing(params, u_pointing)
    return gain


def sample_distance(params: "ChannelConfig", rng: np.random.Generator, size=None):
    """Draw link distance(s) from f_D(d) = 3 d^2 / (d_max^3 - d_min^3)."""
    return _distance(params, rng.random(size))


def sample_pointing(params: "ChannelConfig", rng: np.random.Generator, size=None):
    """Draw pointing gain(s) from f_hp(h) = (xi_p^2 / a0^xi_p^2) h^(xi_p^2 - 1)."""
    return _pointing(params, rng.random(size))


def sample_channel(params: "ChannelConfig", rng: np.random.Generator) -> float:
    """One joint draw of the intensity h_l * h_p, held fixed within a round."""
    d = float(sample_distance(params, rng))
    return params.fspl_constant / d**2 * float(sample_pointing(params, rng))


def sample_intensities(params: "ChannelConfig", rng: np.random.Generator, size: int):
    """Vectorized intensity draws (h_l * h_p) for Monte Carlo use.

    ``size`` distances are drawn, then ``size`` pointing gains; the
    distance buffer becomes the intensity in place, so at most two arrays
    of ``size`` floats are alive at once.
    """
    return _intensity(params, rng.random(size), rng.random(size))


def geometric_efficiency(params: "ChannelConfig") -> float:
    """Mean of h_l over the spherical-shell distance distribution."""
    c = params.fspl_constant
    num = 3.0 * c * (params.d_max - params.d_min)
    den = params.d_max**3 - params.d_min**3
    return num / den


def pointing_efficiency(params: "ChannelConfig") -> float:
    """Mean of h_p under the zero-boresight jitter power law."""
    xi2 = params.xi_p**2
    return params.a0 * xi2 / (xi2 + 1.0)


def lambda_eff(params: "ChannelConfig") -> float:
    """Closed-form channel efficiency: E[h_l] * E[h_p]."""
    return geometric_efficiency(params) * pointing_efficiency(params)


def lambda_oracle(params: "ChannelConfig") -> float:
    """Channel efficiency by adaptive quadrature over both densities.

    Independent of ``lambda_eff``; used to verify the closed form.
    """
    # scipy.integrate loads scipy.special/optimize/sparse: ~0.75 s, 40 MiB no other command needs.
    from scipy import integrate

    c = params.fspl_constant
    den = params.d_max**3 - params.d_min**3

    def hl_integrand(d):
        return (c / d**2) * (3.0 * d**2 / den)

    e_hl, err_hl = integrate.quad(hl_integrand, params.d_min, params.d_max,
                                  epsabs=0.0, epsrel=1e-11)

    xi2 = params.xi_p**2
    coef = xi2 / params.a0**xi2

    def hp_integrand(h):
        return h * coef * h ** (xi2 - 1.0)

    e_hp, err_hp = integrate.quad(hp_integrand, 0.0, params.a0,
                                  epsabs=0.0, epsrel=1e-11)

    for val, err, name in ((e_hl, err_hl, "E[h_l]"), (e_hp, err_hp, "E[h_p]")):
        if not math.isfinite(val) or err > 1e-8 * max(abs(val), 1e-300):
            raise NumericError(f"quadrature for {name} did not converge (err={err})")
    return e_hl * e_hp
