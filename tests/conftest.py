import numpy as np
import pytest

from optivote.config import ChannelConfig


class FixedUniform:
    """Stand-in generator returning a preset uniform value."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        if size is None:
            return self.u
        return np.full(size, self.u)


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Run each test in its own directory, so a run writing the default
    output.dir ("out") writes it there and never into the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def fixed_uniform():
    return FixedUniform


# Channel at unit geometric efficiency: c_fspl chosen so E[h_l] = 1, making
# received energies O(1) without changing the distributions' shapes.
UNIT_CFSPL = (2000e3**3 - 500e3**3) / (3.0 * (2000e3 - 500e3))


@pytest.fixture
def unit_params():
    return ChannelConfig(d_min_km=500.0, d_max_km=2000.0, a0=0.9, xi_p=1.5,
                         sigma_n2=0.1, c_fspl=UNIT_CFSPL)
