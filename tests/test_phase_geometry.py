"""Law-of-cosines phase candidates and the sign-flip probability, checked
against hand geometry and a Monte-Carlo draw over the residual phase."""

import numpy as np
import pytest

from lodistort import phase_candidates, sign_flip_probability, wrap_phase


def test_wrap_phase_literals():
    pairs = [
        (0.0, 0.0),
        (np.pi, np.pi),       # +pi stays +pi
        (-np.pi, np.pi),      # -pi maps to the +pi representative
        (1.5 * np.pi, -0.5 * np.pi),
        (-1.5 * np.pi, 0.5 * np.pi),
        (2.0 * np.pi, 0.0),
        (7.0 * np.pi, np.pi),
    ]
    for raw, want in pairs:
        assert abs(wrap_phase(raw) - want) < 1e-12, raw
    arr = wrap_phase(np.array([0.25, -9.0, 40.0]))
    assert np.all(arr > -np.pi) and np.all(arr <= np.pi)
    assert abs(wrap_phase(-9.0) - (-9.0 + 2.0 * np.pi)) < 1e-12


def test_candidates_noiseless_bin():
    y = np.array([[0.3 + 0.4j]])
    cands = phase_candidates(y, np.abs(y), np.zeros((1, 1)))
    assert cands.abs_diff[0, 0] == 0.0
    assert cands.plus[0, 0] == pytest.approx(np.angle(y[0, 0]), abs=1e-12)
    assert cands.minus[0, 0] == pytest.approx(np.angle(y[0, 0]), abs=1e-12)
    assert not cands.degenerate[0, 0]


def test_candidates_equilateral_triangle():
    # |Y| = |S| = |V| = 1: cosine rule gives cos = 1/2
    y = np.array([[1.0 + 0.0j]])
    cands = phase_candidates(y, np.ones((1, 1)), np.ones((1, 1)))
    assert cands.abs_diff[0, 0] == pytest.approx(np.pi / 3.0, abs=1e-12)


def test_candidates_clamp_collinear_extremes():
    y = np.full((1, 3), 2.0 + 0.0j)
    mag_s = np.array([[1.0, 1.0, 1.0]])
    # residuals: opposite-phase sum, violated triangle, same-phase difference
    mag_v = np.array([[3.0, 5.0, 1.0]])
    cands = phase_candidates(y, mag_s, mag_v)
    assert cands.abs_diff[0, 0] == pytest.approx(np.pi, abs=1e-12)
    assert cands.abs_diff[0, 1] == pytest.approx(np.pi, abs=1e-12)  # clamped
    assert cands.abs_diff[0, 2] == 0.0
    assert not cands.degenerate.any()


def test_candidates_recover_true_phase():
    rng = np.random.default_rng(0)
    shape = (40, 17)
    s = rng.uniform(0.2, 2.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    v = rng.uniform(0.0, 2.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    y = s + v
    cands = phase_candidates(y, np.abs(s), np.abs(v))
    true_phase = np.angle(s)
    err_plus = np.abs(wrap_phase(cands.plus - true_phase))
    err_minus = np.abs(wrap_phase(cands.minus - true_phase))
    assert np.max(np.minimum(err_plus, err_minus)) < 1e-9


def test_candidates_are_wrapped_offsets():
    rng = np.random.default_rng(1)
    shape = (25, 9)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mag_s = rng.uniform(0.1, 2.0, shape)
    mag_v = rng.uniform(0.0, 2.0, shape)
    cands = phase_candidates(y, mag_s, mag_v)
    assert np.all(cands.abs_diff >= 0.0) and np.all(cands.abs_diff <= np.pi)
    base = np.angle(y)
    assert np.max(np.abs(cands.plus - wrap_phase(base + cands.abs_diff))) == 0.0
    assert np.max(np.abs(cands.minus - wrap_phase(base - cands.abs_diff))) == 0.0
    assert np.all(cands.plus > -np.pi) and np.all(cands.plus <= np.pi)
    assert np.all(cands.minus > -np.pi) and np.all(cands.minus <= np.pi)


def test_candidates_degeneracy_flag():
    y = np.array([[0.0 + 0.0j, 1.0 + 1.0j, 1.0 + 0.0j]])
    mag_s = np.array([[1.0, 0.0, 1.0]])
    mag_v = np.array([[1.0, 1.0, 1.0]])
    cands = phase_candidates(y, mag_s, mag_v)
    assert list(cands.degenerate[0]) == [True, True, False]
    assert cands.abs_diff[0, 0] == 0.0
    assert cands.abs_diff[0, 1] == 0.0


def test_candidates_validation():
    y = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        phase_candidates(y, np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        phase_candidates(y, -np.ones((2, 2)), np.ones((2, 2)))
    # non-finite input is rejected, not returned as a NaN angle
    nan_mag = np.ones((2, 2))
    nan_mag[0, 1] = np.nan
    with pytest.raises(ValueError):
        phase_candidates(y, nan_mag, np.ones((2, 2)))
    with pytest.raises(ValueError):
        phase_candidates(y, np.ones((2, 2)), np.full((2, 2), np.inf))
    bad_y = y.copy()
    bad_y[1, 0] = complex(np.nan, 0.0)
    with pytest.raises(ValueError):
        phase_candidates(bad_y, np.ones((2, 2)), np.ones((2, 2)))


def test_flip_probability_literal():
    got = sign_flip_probability(1.0, 2.0, np.pi / 6.0)
    want = np.arccos(0.25) / np.pi
    assert got == pytest.approx(want, abs=1e-15)
    assert 0.419 < got < 0.420


def test_flip_probability_boundaries():
    assert sign_flip_probability(1.0, 2.0, 0.0) == 0.5
    assert sign_flip_probability(3.0, 1.0, np.pi / 2.0) == 0.0  # ratio >= 1
    assert sign_flip_probability(1.0, 1.0, np.pi / 2.0) == 0.0  # ratio == 1
    assert sign_flip_probability(1.0, 0.0, 1.0) == 0.0          # no residual
    assert sign_flip_probability(0.0, 1.0, 1.0) == 0.5          # no target


def test_flip_probability_monotone():
    thetas = np.linspace(0.0, np.pi / 2.0, 25)
    probs = sign_flip_probability(1.0, 3.0, thetas)
    assert np.all(np.diff(probs) <= 1e-15)  # nonincreasing in sin(theta)
    mags = np.linspace(0.1, 5.0, 40)
    probs_s = sign_flip_probability(mags, 2.0, 0.7)
    assert np.all(np.diff(probs_s) <= 1e-15)  # nonincreasing in |S|/|V|
    probs_v = sign_flip_probability(1.0, mags, 0.7)
    assert np.all(np.diff(probs_v) >= -1e-15)  # residual growth raises it


def test_flip_probability_broadcast_and_types():
    out = sign_flip_probability(np.ones(4), 2.0, 0.3)
    assert out.shape == (4,)
    scalar = sign_flip_probability(1.0, 2.0, 0.3)
    assert isinstance(scalar, float)
    grid = sign_flip_probability(np.ones((2, 1)), np.array([1.0, 2.0, 3.0]), 0.4)
    assert grid.shape == (2, 3)
    assert np.all((grid >= 0.0) & (grid <= 0.5))


def test_flip_probability_validation():
    with pytest.raises(ValueError):
        sign_flip_probability(1.0, 2.0, np.pi)  # theta must stay below pi
    with pytest.raises(ValueError):
        sign_flip_probability(1.0, 2.0, -0.1)
    with pytest.raises(ValueError):
        sign_flip_probability(-1.0, 2.0, 0.1)
    # non-finite input is rejected, not returned as NaN or as 1/2
    for args in [(1.0, 2.0, np.nan), (np.nan, 2.0, 0.3), (1.0, np.inf, 0.3),
                 (np.inf, 2.0, 0.3), (1.0, np.nan, 0.3)]:
        with pytest.raises(ValueError):
            sign_flip_probability(*args)


def test_flip_probability_matches_monte_carlo():
    """Fix the mixture phase at zero, put the target at +theta, draw the
    residual phase uniformly; a flip means the sum's phase falls below the
    mixture phase."""
    rng = np.random.default_rng(7)
    draws = 200_000
    for mag_s, mag_v, theta in [(1.0, 2.0, np.pi / 6.0), (0.5, 0.8, 1.2),
                                (1.0, 4.0, 2.5)]:
        phases = rng.uniform(-np.pi, np.pi, size=draws)
        processed = mag_s * np.exp(1j * theta) + mag_v * np.exp(1j * phases)
        flipped = np.angle(processed) < 0.0
        want = sign_flip_probability(mag_s, mag_v, theta)
        sigma = np.sqrt(want * (1.0 - want) / draws)
        assert abs(flipped.mean() - want) < max(3.0 * sigma, 1e-3), (mag_s, mag_v)
