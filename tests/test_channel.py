import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from optivote import channel as ch
from optivote.config import ChannelConfig
from optivote.errors import ConfigError
from optivote.rng import derive


def params(**kw):
    defaults = dict(d_min_km=500.0, d_max_km=2000.0, a0=0.9, xi_p=1.5, sigma_n2=0.1)
    defaults.update(kw)
    return ChannelConfig(**defaults)


def out_of_place_intensities(p, rng, size):
    """Oracle: the intensity draw as first written, one fresh array per step."""
    u = rng.random(size)
    lo3, hi3 = p.d_min**3, p.d_max**3
    d = (lo3 + u * (hi3 - lo3)) ** (1.0 / 3.0)
    h_l = p.c_fspl / d**2
    u = rng.random(size)
    h_p = p.a0 * u ** (1.0 / p.xi_p**2)
    return h_l * h_p


class TestValidation:
    def test_rejects_bad_distances(self):
        with pytest.raises(ConfigError):
            ChannelConfig(d_min_km=2000.0, d_max_km=500.0)

    def test_rejects_bad_a0(self):
        with pytest.raises(ConfigError):
            params(a0=1.5)

    def test_rejects_bad_xi_p(self):
        with pytest.raises(ConfigError):
            params(xi_p=0.0)


class TestSampleDistance:
    def test_cdf_endpoints(self, fixed_uniform):
        p = params()
        assert ch.sample_distance(p, fixed_uniform(0.0)) == pytest.approx(p.d_min)
        assert ch.sample_distance(p, fixed_uniform(1.0)) == pytest.approx(p.d_max)

    def test_mean_matches_quadrature(self):
        p = params()
        d = ch.sample_distance(p, derive(0, 10), size=1_000_000)
        den = p.d_max**3 - p.d_min**3
        expected, _ = integrate.quad(lambda x: x * 3 * x**2 / den, p.d_min, p.d_max)
        assert abs(d.mean() - expected) / expected < 0.005

    def test_support(self):
        p = params()
        d = ch.sample_distance(p, derive(1, 10), size=10_000)
        assert (d >= p.d_min).all() and (d <= p.d_max).all()


class TestSamplePointing:
    def test_maximum_at_u_one(self, fixed_uniform):
        p = params()
        assert ch.sample_pointing(p, fixed_uniform(1.0)) == pytest.approx(p.a0)

    def test_no_jitter_limit(self, fixed_uniform):
        p = params(xi_p=1e6)
        assert ch.sample_pointing(p, fixed_uniform(0.3)) == pytest.approx(p.a0, rel=1e-5)

    def test_mean_matches_closed_form(self):
        p = params()
        h = ch.sample_pointing(p, derive(2, 10), size=1_000_000)
        expected = p.a0 * p.xi_p**2 / (p.xi_p**2 + 1)  # 0.9 * 2.25 / 3.25
        assert abs(h.mean() - expected) / expected < 0.005
        assert (h > 0).all() and (h <= p.a0).all()


class TestSampleChannel:
    def test_replay_determinism(self):
        p = params()
        a = ch.sample_channel(p, derive(7, 1, 2))
        b = ch.sample_channel(p, derive(7, 1, 2))
        assert a == b

    def test_support_bound(self):
        p = params()
        rng = derive(3, 10)
        bound = p.a0 * p.c_fspl / p.d_min**2
        for _ in range(1000):
            assert 0 < ch.sample_channel(p, rng) <= bound

    def test_scalar_draw_matches_formula(self):
        # One distance, then one pointing gain, from the same stream; the
        # intensity is h_l * h_p in Python float arithmetic, bit for bit.
        p = params()
        for seed in (0, 5):
            rng = derive(seed, 1, 2)
            u_d, u_p = rng.random(), rng.random()
            lo3, hi3 = p.d_min**3, p.d_max**3
            d = (lo3 + u_d * (hi3 - lo3)) ** (1.0 / 3.0)
            h_l = p.c_fspl / d**2
            h_p = p.a0 * u_p ** (1.0 / p.xi_p**2)
            rng = derive(seed, 1, 2)
            assert ch.sample_distance(p, rng) == d
            assert ch.sample_pointing(p, rng) == h_p
            intensity = ch.sample_channel(p, derive(seed, 1, 2))
            assert type(intensity) is float and intensity == h_l * h_p

    def test_intensity_mean_matches_lambda_eff(self, unit_params):
        intens = ch.sample_intensities(unit_params, derive(4, 10), 1_000_000)
        lam = ch.lambda_eff(unit_params)
        assert abs(intens.mean() - lam) / lam < 0.01


class TestSampleIntensities:
    @pytest.mark.parametrize("size", [1, 7, 100_003])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_bit_identical_to_out_of_place_formula(self, unit_params, size, seed):
        for p in (unit_params, params(a0=0.4, xi_p=3.0)):
            got = ch.sample_intensities(p, derive(seed, 10), size)
            want = out_of_place_intensities(p, derive(seed, 10), size)
            assert got.shape == (size,)
            assert np.array_equal(got, want)

    def test_peak_memory_two_buffers(self, unit_params):
        rng = derive(0, 10)
        tracemalloc.start()
        try:
            intens = ch.sample_intensities(unit_params, rng, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * intens.nbytes


class TestLambdaEff:
    def test_point_mass_no_jitter_limit(self):
        d_km = 1000.0
        p = ChannelConfig(d_min_km=d_km, d_max_km=d_km * (1 + 1e-9), a0=1.0, xi_p=1e6,
                          sigma_n2=0.0, c_fspl=1.0)
        assert ch.lambda_eff(p) == pytest.approx(1.0 / (d_km * 1e3)**2, rel=1e-6)

    def test_linear_in_a0(self):
        lo, hi = params(a0=0.4), params(a0=0.8)
        assert ch.lambda_eff(hi) == pytest.approx(2 * ch.lambda_eff(lo))

    def test_default_1550nm_matches_oracle(self):
        p = params()
        assert ch.lambda_eff(p) == pytest.approx(ch.lambda_oracle(p), rel=1e-6)


class TestLambdaOracle:
    def test_agrees_on_randomized_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d_min_km = rng.uniform(100.0, 1000.0)
            p = ChannelConfig(
                d_min_km=d_min_km,
                d_max_km=d_min_km * rng.uniform(1.5, 6.0),
                a0=rng.uniform(0.2, 1.0),
                xi_p=rng.uniform(0.5, 5.0),
                sigma_n2=0.1,
                c_fspl=rng.uniform(0.1, 10.0) * 1e12,
            )
            closed, quad = ch.lambda_eff(p), ch.lambda_oracle(p)
            assert abs(closed - quad) / quad < 1e-6

    def test_pointing_factor_half_at_xi_one(self):
        p = params(a0=1.0, xi_p=1.0, c_fspl=1.0)
        assert ch.pointing_efficiency(p) == pytest.approx(0.5)
        geo = ch.geometric_efficiency(p)
        assert ch.lambda_oracle(p) == pytest.approx(geo * 0.5, rel=1e-9)
