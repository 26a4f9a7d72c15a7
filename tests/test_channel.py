import math

import numpy as np
import pytest

from qarylp.channel import (
    ConstellationMap,
    InvalidRate,
    NonPositiveSigma,
    awgn_sample,
    compute_llr,
    ebno_to_sigma,
    modulate,
    psk,
)
from qarylp.decoder import ERASED


def test_qpsk_points():
    cmap = psk(4)
    assert cmap.q == 4
    np.testing.assert_allclose(cmap.points, [1, 1j, -1, -1j], atol=1e-12)
    assert np.mean(np.abs(cmap.points) ** 2) == pytest.approx(1.0)
    assert psk(np.int64(4)).q == 4


def test_constellation_validation():
    with pytest.raises(ValueError, match="coincide"):
        ConstellationMap(q=2, points=np.array([1.0 + 0j, 1.0 + 0j]))
    with pytest.raises(ValueError, match="energy"):
        ConstellationMap(q=2, points=np.array([2.0 + 0j, -2.0 + 0j]))
    with pytest.raises(ValueError, match="points"):
        ConstellationMap(q=4, points=np.array([1.0 + 0j, -1.0 + 0j]))


def test_modulate_lookup():
    cmap = psk(4)
    np.testing.assert_allclose(modulate([0, 0], cmap), [1, 1], atol=1e-12)
    np.testing.assert_allclose(modulate([1, 3], cmap), [1j, -1j], atol=1e-12)
    np.testing.assert_allclose(modulate([2], cmap), [-1], atol=1e-12)
    assert modulate([0, 1, 2, 3], cmap).shape == (4,)
    with pytest.raises(ValueError):
        modulate([0, 4], cmap)
    np.testing.assert_allclose(modulate(np.array([0.0, 2.0]), cmap), [1, -1],
                               atol=1e-12)


@pytest.mark.parametrize("word", [[0.9, 3.7], [0, ERASED], [0, math.nan],
                                  [True, False]])
def test_modulate_refuses_non_symbols(word):
    # [0.9, 3.7] used to give the points of symbols 0 and 3
    with pytest.raises(ValueError, match=r"whole numbers in 0\.\.3"):
        modulate(word, psk(4))


@pytest.mark.parametrize("q, message", [
    (4.0, "q must be an integer"), ("4", "q must be an integer"),
    (True, "q must be an integer"), (1, "q must be >= 2, got 1"),
])
def test_psk_refuses_bad_q(q, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        psk(q)


def test_awgn_degenerate_and_deterministic():
    cmap = psk(4)
    x = modulate([0, 1, 2, 3], cmap)
    y = awgn_sample(x, 1e-12, np.random.default_rng(0))
    np.testing.assert_allclose(y, x, atol=1e-9)

    y1 = awgn_sample(x, 0.8, np.random.default_rng(42))
    y2 = awgn_sample(x, 0.8, np.random.default_rng(42))
    np.testing.assert_array_equal(y1, y2)

    with pytest.raises(NonPositiveSigma):
        awgn_sample(x, 0.0, np.random.default_rng(0))


def test_awgn_noise_mean():
    rng = np.random.default_rng(123)
    sigma = 0.7
    draws = 10 ** 5
    noise = awgn_sample(np.zeros(draws, dtype=complex), sigma, rng)
    bound = 3.0 * sigma / math.sqrt(draws)
    assert abs(noise.real.mean()) < bound
    assert abs(noise.imag.mean()) < bound


def test_llr_noiseless_reference():
    # y on point 0, sigma^2 = 0.5: distances to (i, -1, -i) are 2, 4, 2
    cmap = psk(4)
    lam = compute_llr(np.array([1.0 + 0j]), cmap, math.sqrt(0.5))
    np.testing.assert_allclose(lam, [[2.0, 4.0, 2.0]], atol=1e-12)


def test_llr_equidistant_is_zero():
    cmap = psk(4)
    # (1 + i)/sqrt(2)·t is equidistant from s_0 = 1 and s_1 = i for real t
    y = np.array([(1 + 1j) * 0.3])
    lam = compute_llr(y, cmap, 0.9)
    assert lam[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_llr_on_transmitted_point():
    cmap = psk(4)
    sigma = 0.6
    lam = compute_llr(np.array([-1.0 + 0j]), cmap, sigma)
    # received exactly s_2: lambda^(2) = -|s_0 - s_2|^2 / (2 sigma^2)
    assert lam[0, 1] == pytest.approx(-4.0 / (2 * sigma ** 2), abs=1e-12)
    # ML consistency: transmitted symbol scores strictly below the rest
    scores = np.concatenate([[0.0], lam[0]])
    assert np.argmin(scores) == 2


def test_llr_antisymmetry():
    # relabeling the reference from 0 to a negates the entry for a
    cmap = psk(4)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sigma = 0.75
    lam = compute_llr(y, cmap, sigma)
    for a in range(1, 4):
        swapped = ConstellationMap(
            q=4, points=np.concatenate([[cmap.points[a]],
                                        cmap.points[[b for b in range(1, 4)]]
                                        [np.arange(3) != a - 1],
                                        [cmap.points[0]]]),
        )
        lam_swapped = compute_llr(y, swapped, sigma)
        np.testing.assert_allclose(lam_swapped[:, -1], -lam[:, a - 1], atol=1e-9)


def test_llr_mean_favors_truth():
    cmap = psk(4)
    sigma = 0.7
    rng = np.random.default_rng(9)
    y = awgn_sample(np.ones(10 ** 5, dtype=complex), sigma, rng)
    lam = compute_llr(y, cmap, sigma)
    assert np.all(lam.mean(axis=0) > 0)


def test_llr_rejects_bad_sigma():
    with pytest.raises(NonPositiveSigma):
        compute_llr(np.array([1.0 + 0j]), psk(4), -1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_channel_refuses_non_finite_sigma(sigma):
    # NaN passed the old sigma <= 0 test and gave NaN samples and LLRs
    cmap = psk(4)
    x = modulate([0, 1], cmap)
    with pytest.raises(NonPositiveSigma, match="finite"):
        awgn_sample(x, sigma, np.random.default_rng(0))
    with pytest.raises(NonPositiveSigma, match="finite"):
        compute_llr(x, cmap, sigma)


def test_ebno_to_sigma():
    # Es/N0 = 1 exactly when rate * bits * 10^(db/10) = 1
    db = -10.0 * math.log10(2.0)
    assert ebno_to_sigma(db, rate=1.0, bits_per_symbol=2) == pytest.approx(
        math.sqrt(0.5), abs=1e-12)
    assert ebno_to_sigma(0.0, rate=0.6, bits_per_symbol=2) == pytest.approx(
        math.sqrt(1.0 / 2.4), abs=1e-12)
    ratio = ebno_to_sigma(3.0103, 0.6, 2) / ebno_to_sigma(6.0206, 0.6, 2)
    assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-6)
    with pytest.raises(InvalidRate):
        ebno_to_sigma(0.0, rate=0.0, bits_per_symbol=2)
    with pytest.raises(InvalidRate):
        ebno_to_sigma(0.0, rate=1.2, bits_per_symbol=2)


@pytest.mark.parametrize(
    "ebno_db", [-math.inf, math.inf, math.nan, -4000.0, -3220.0, 4000.0])
def test_ebno_to_sigma_refuses_unusable_ebno(ebno_db):
    # -inf and -4000 divided by zero, NaN returned a NaN sigma, -3220 an
    # infinite one, +inf a zero one, and 4000 overflowed
    with pytest.raises(ValueError, match="gives no finite sigma > 0"):
        ebno_to_sigma(ebno_db, rate=0.6, bits_per_symbol=2)
