import numpy as np
import pytest
from hypothesis import given, strategies as st

from optivote import phy
from optivote.errors import UsageError
from optivote.rng import derive


def superpose(signs, powers, intensities, sigma_n2, rng):
    """superpose_frame on a single coordinate: (e_plus, e_minus) scalars."""
    e_plus, e_minus = phy.superpose_frame(
        np.asarray(signs).reshape(-1, 1), powers, intensities, sigma_n2, rng)
    return e_plus[0], e_minus[0]


class TestSuperpose:
    """Slot-pair accumulation of one coordinate through superpose_frame."""

    def test_noiseless_counts(self):
        assert superpose([1, 1, 1, -1], [1, 1, 1, 1], [1, 1, 1, 1],
                         0.0, derive(0)) == (3.0, 1.0)

    def test_noiseless_weighted(self):
        e_plus, e_minus = superpose([1, -1], [2.0, 1.0], [1.0, 1.0], 0.0, derive(0))
        assert (e_plus, e_minus) == (2.0, 1.0)
        assert e_plus - e_minus == 1.0

    def test_empty_votes_pure_noise(self):
        # an empty cohort still gets the noise floor plus a zero-mean
        # fluctuation in every slot
        e_plus, e_minus = phy.superpose_frame(
            np.zeros((0, 3), dtype=int), [], [], 0.5, derive(5))
        assert e_plus.shape == e_minus.shape == (3,)
        assert np.all(e_plus != 0.0) and np.all(e_minus != 0.0)

    def test_slot_energy_mean_includes_noise_floor(self):
        sigma_n2 = 0.25
        e_plus, _ = phy.superpose_frame(
            np.ones((1, 20000), dtype=int), [1.0], [1.0], sigma_n2, derive(0))
        assert e_plus.mean() == pytest.approx(1.0 + sigma_n2, abs=0.02)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            superpose([1, -1], [1.0], [1.0, 1.0], 0.0, derive(0))


class TestDetectMv:
    def test_signs_of_delta(self):
        votes = phy.detect_mv(np.array([0.5, 0.0]), np.array([0.0, 0.2]))
        assert votes.tolist() == [1, -1]

    def test_tie_resolves_positive(self):
        assert phy.detect_mv(np.array([0.3]), np.array([0.3])).tolist() == [1]

    def test_brute_force_majority_equivalence(self):
        # noiseless homogeneous channel: energy detection == exact majority
        for M in range(1, 9):
            patterns = ((np.arange(2**M)[:, None] >> np.arange(M)) & 1) * 2 - 1
            ones = np.ones(M)
            for signs in patterns:
                counts = (signs == 1).sum()
                if 2 * counts == M:
                    continue
                e_plus, e_minus = superpose(signs, ones, ones, 0.0, derive(0))
                expected = 1 if counts > M - counts else -1
                assert phy.detect_mv(np.array([e_plus]),
                                     np.array([e_minus]))[0] == expected

    def test_weighted_vote_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.integers(1, 9)
            signs = rng.choice([-1, 1], size=(m, 5))
            p = rng.uniform(0.1, 2.0, size=m)
            intens = rng.uniform(0.01, 1.0, size=m)
            e_plus, e_minus = phy.superpose_frame(signs, p, intens, 0.0, derive(0))
            weighted = (p * intens) @ signs
            expect = np.where(weighted >= 0, 1, -1)
            assert (phy.detect_mv(e_plus, e_minus) == expect).all()

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_common_power_scaling_invariance(self, c):
        rng = np.random.default_rng(9)
        signs = rng.choice([-1, 1], size=(4, 6))
        p = rng.uniform(0.1, 2.0, size=4)
        intens = rng.uniform(0.01, 1.0, size=4)
        base = phy.detect_mv(*phy.superpose_frame(signs, p, intens, 0.0, derive(0)))
        scaled = phy.detect_mv(*phy.superpose_frame(signs, c * p, intens, 0.0, derive(0)))
        assert (base == scaled).all()


class TestSuperposeFrame:
    def test_matches_per_coordinate_superpose_noiseless(self):
        rng = np.random.default_rng(4)
        signs = rng.choice([-1, 1], size=(5, 7))
        p = rng.uniform(0.5, 1.5, size=5)
        intens = rng.uniform(0.1, 1.0, size=5)
        e_plus, e_minus = phy.superpose_frame(signs, p, intens, 0.0, derive(0))
        for i in range(7):
            plus = sum(p[k] * intens[k] for k in range(5) if signs[k, i] == 1)
            minus = sum(p[k] * intens[k] for k in range(5) if signs[k, i] == -1)
            assert e_plus[i] == pytest.approx(plus)
            assert e_minus[i] == pytest.approx(minus)

    def test_orthogonality_one_slot_per_node(self):
        # a node's energy lands in exactly one slot of its pair
        signs = np.array([[1], [-1], [1]])
        e_plus, e_minus = phy.superpose_frame(
            signs, np.ones(3), np.array([1.0, 2.0, 4.0]), 0.0, derive(0))
        assert e_plus[0] == 5.0 and e_minus[0] == 2.0

    def test_shape_errors(self):
        with pytest.raises(UsageError):
            phy.superpose_frame(np.array([1, -1]), np.ones(2), np.ones(2), 0.0, derive(0))


class TestIdealMajority:
    def test_majority_and_tie(self):
        signs = np.array([[1, 1], [1, -1], [-1, -1], [1, -1]])
        assert phy.ideal_majority(signs).tolist() == [1, -1]
        assert phy.ideal_majority(np.array([[1], [-1]])).tolist() == [1]
