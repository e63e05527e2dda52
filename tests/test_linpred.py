"""Weighted linear prediction: stack layout oracles, planted-solution
recovery, dereverberation efficacy, and the forward-compensation filter."""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import lodistort
from lodistort import _pool, linpred
from lodistort.linalg import solve_stack
from lodistort import (
    RoomSpec,
    TimeSignal,
    analyze,
    build_delayed_stack,
    fcp,
    fcp_weight,
    psd_floor,
    render_scene,
    si_sdr,
    solve_weighted_lp,
    synth_noise,
    synthesize,
    wpe,
    wpe_field,
)

from conftest import planted_reverb_field


def test_stack_small_literal():
    a, b, c = 1.0 + 1.0j, 2.0 - 1.0j, -0.5 + 0.25j
    field = np.array([a, b, c]).reshape(3, 1, 1)
    stack = build_delayed_stack(field, taps=2, delay=1)
    want = np.array([
        [0.0, 0.0],  # t=0 looks at frames -1, -2
        [a, 0.0],    # t=1 looks at frames 0, -1
        [b, a],      # t=2 looks at frames 1, 0
    ]).reshape(3, 1, 2)
    assert np.array_equal(stack, want)


def test_stack_matches_index_oracle():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((9, 2, 3)) + 1j * rng.standard_normal((9, 2, 3))
    for taps, delay in [(1, 0), (2, 1), (4, 3)]:
        stack = build_delayed_stack(field, taps, delay)
        assert stack.shape == (9, 2, taps * 3)
        for t in range(9):
            for f in range(2):
                for k in range(taps):
                    for p in range(3):
                        src = t - delay - k
                        want = field[src, f, p] if src >= 0 else 0.0
                        assert stack[t, f, k * 3 + p] == want


def test_stack_zero_delay_identity():
    rng = np.random.default_rng(1)
    field = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    assert np.array_equal(build_delayed_stack(field, 1, 0), field)


def test_planted_solution_recovery():
    rng = np.random.default_rng(2)
    num_frames, num_bins, order = 300, 4, 6
    stack = rng.standard_normal((num_frames, num_bins, order)) \
        + 1j * rng.standard_normal((num_frames, num_bins, order))
    g0 = rng.standard_normal((num_bins, order)) + 1j * rng.standard_normal(
        (num_bins, order)
    )
    target = np.einsum("fd,tfd->tf", np.conj(g0), stack)
    weights = rng.uniform(0.5, 2.0, size=(num_frames, num_bins))
    exact = solve_weighted_lp(stack, target, weights, loading=0.0)
    assert np.max(np.abs(exact - g0)) < 1e-10
    loaded = solve_weighted_lp(stack, target, weights)  # default loading
    assert np.max(np.abs(loaded - g0)) < 1e-7


def test_weighted_lp_matches_scaled_lstsq():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((60, 5, 4)) + 1j * rng.standard_normal((60, 5, 4))
    target = rng.standard_normal((60, 5)) + 1j * rng.standard_normal((60, 5))
    lam = rng.uniform(0.2, 3.0, size=(60, 5))
    got = solve_weighted_lp(stack, target, lam, loading=0.0)
    root = np.sqrt(lam)
    for f in range(5):
        # 1/lambda weighting = row scaling by lambda^-1/2 in the LS system
        a = stack[:, f, :] / root[:, f, None]
        b = target[:, f] / root[:, f]
        g_oracle = np.conj(np.linalg.lstsq(a, b, rcond=None)[0])
        assert np.max(np.abs(got[f] - g_oracle)) < 1e-9, f


def test_constant_weights_cancel():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((30, 2, 3)) + 1j * rng.standard_normal((30, 2, 3))
    target = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    ones = np.ones((30, 2))
    a = solve_weighted_lp(stack, target, ones)
    b = solve_weighted_lp(stack, target, 5.0 * ones)
    assert np.max(np.abs(a - b)) < 1e-10


def test_single_tap_closed_form():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    lam = rng.uniform(0.5, 2.0, size=(40, 3))
    got = solve_weighted_lp(x[:, :, None], y, lam, loading=0.0)[:, 0]
    want = np.conj(np.sum(np.conj(x) * y / lam, axis=0)
                   / np.sum(np.abs(x) ** 2 / lam, axis=0))
    # conj bookkeeping: prediction is g^H x, so g = conj(closed form ratio)
    assert np.max(np.abs(got - want)) < 1e-12


def test_weighted_lp_perturbation_does_not_improve():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((50, 2, 3)) + 1j * rng.standard_normal((50, 2, 3))
    target = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    lam = rng.uniform(0.5, 2.0, size=(50, 2))
    g = solve_weighted_lp(stack, target, lam, loading=0.0)

    def objective(coeffs):
        pred = np.einsum("fd,tfd->tf", np.conj(coeffs), stack)
        return float(np.sum(np.abs(target - pred) ** 2 / lam))

    base = objective(g)
    for _ in range(50):
        step = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        step *= 1e-3 / np.linalg.norm(step)
        assert objective(g + step) >= base - 1e-12


def test_wpe_cancels_planted_reverberation():
    mixture, direct = planted_reverb_field(seed=0)
    q = 0
    lam = psd_floor(direct[:, :, q])  # oracle weights from the clean target
    _, out = wpe(mixture, lam, taps=10, delay=3, ref_mic=q)
    before = np.linalg.norm(mixture[:, :, q] - direct[:, :, q])
    after = np.linalg.norm(out - direct[:, :, q])
    # the planted reverb lies exactly in the predictor span, so the residual
    # is just the least-squares projection of the white target onto 20
    # regressors over 240 frames: ~sqrt(20/240) of the target energy, which
    # is ~0.18 of the (stronger) reverb norm here
    assert after < 0.3 * before


def test_wpe_removed_component_avoids_target():
    mixture, direct = planted_reverb_field(seed=1)
    lam = psd_floor(direct[:, :, 0])
    _, out = wpe(mixture, lam, taps=10, delay=3, ref_mic=0)
    removed = mixture[:, :, 0] - out
    tgt = direct[:, :, 0]
    corr = abs(np.vdot(removed, tgt)) / (np.linalg.norm(removed) * np.linalg.norm(tgt))
    assert corr < 0.1


def test_wpe_field_matches_per_channel_solves():
    mixture, direct = planted_reverb_field(seed=2, num_mics=3)
    lam = psd_floor(direct[:, :, 0])
    coeffs, out_field = wpe_field(mixture, lam, taps=8, delay=3)
    assert coeffs.shape == (mixture.shape[1], 8 * 3, 3)
    for q in range(3):
        coeffs_q, out_q = wpe(mixture, lam, taps=8, delay=3, ref_mic=q)
        assert np.array_equal(out_field[:, :, q], out_q), q
        assert np.array_equal(coeffs_q, coeffs[:, :, q]), q


def test_wpe_equivariance_under_scaling():
    mixture, direct = planted_reverb_field(seed=3)
    lam = psd_floor(direct[:, :, 0])
    _, base = wpe(mixture, lam, taps=6, delay=3)
    c = 3.0 - 2.0j
    _, scaled = wpe(c * mixture, np.abs(c) ** 2 * lam, taps=6, delay=3)
    assert np.max(np.abs(scaled - c * base)) < 1e-9 * np.max(np.abs(base))


def test_wpe_on_anechoic_scene_barely_degrades():
    # 4 s of material so the 20 regressors per bin cannot overfit: the
    # finite-sample projection removes ~D/T of the frame energy, and at
    # T=506 that is far inside the 0.5 dB budget
    num = 64000
    room = RoomSpec(num_mics=2, t60_seconds=0.0, rir_len_samples=64,
                    direct_delay_samples=(4, 7), seed=12)
    scene = render_scene(synth_noise(num, seed=1), [synth_noise(num, seed=2)],
                        room, snr_db=5.0)
    mix_spec = analyze(scene.mixture)
    tgt_spec = analyze(scene.direct_path)
    lam = psd_floor(tgt_spec[:, :, 0])
    _, out = wpe(mix_spec, lam, taps=10, delay=3)
    tgt_wave = scene.direct_path.channel(0)
    before = si_sdr(scene.mixture.channel(0), tgt_wave)
    after = si_sdr(synthesize(out, num_samples=num).channel(0), tgt_wave)
    assert after > before - 0.5


def test_fcp_identity_when_estimate_is_reference():
    rng = np.random.default_rng(7)
    ref = rng.standard_normal((400, 5)) + 1j * rng.standard_normal((400, 5))
    coeffs, out = fcp(ref, ref)
    assert np.max(np.abs(out - ref)) < 1e-6 * np.max(np.abs(ref))
    assert np.max(np.abs(coeffs[:, 0] - 1.0)) < 1e-4  # current-frame tap
    assert np.max(np.abs(coeffs[:, 1:])) < 1e-4


def test_fcp_zero_estimate_returns_reference():
    rng = np.random.default_rng(8)
    ref = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    zeros = np.zeros_like(ref)
    coeffs, out = fcp(ref, zeros)
    assert np.all(coeffs == 0.0)
    assert np.array_equal(out, ref)


def test_fcp_recovers_planted_convolution():
    """reference = FIR(estimate) with order < taps: the filter reproduces the
    reference exactly, so the output collapses to the estimate."""
    rng = np.random.default_rng(9)
    num_frames, num_bins, order = 300, 4, 6
    est = rng.standard_normal((num_frames, num_bins)) \
        + 1j * rng.standard_normal((num_frames, num_bins))
    fir = rng.standard_normal((num_bins, order)) + 1j * rng.standard_normal(
        (num_bins, order)
    )
    ref = np.zeros_like(est)
    for k in range(order):
        ref[k:] += np.conj(fir[:, k])[None, :] * est[:num_frames - k]
    _, out = fcp(ref, est, taps=40)
    scale = np.max(np.abs(est))
    assert np.max(np.abs(out - est)) < 1e-5 * scale
    # strict improvement toward the clean estimate
    assert np.linalg.norm(out - est) < np.linalg.norm(ref - est)


def test_fcp_weight_floor():
    ref = np.array([[1.0 + 0.0j, 2.0 + 0.0j]])
    est = np.array([[1.0 + 0.0j, 0.0 + 0.0j]])  # residual powers 0 and 4
    eta = fcp_weight(ref, est, epsilon=1e-3)
    assert eta[0, 1] == 4.0
    assert eta[0, 0] == 1e-3 * 4.0  # relative floor
    allzero = fcp_weight(ref, ref, epsilon=1e-3)
    assert np.all(allzero == 1e-12)  # absolute floor keeps weights positive


def test_validation_errors():
    rng = np.random.default_rng(10)
    field = rng.standard_normal((10, 2, 2)) + 1j * rng.standard_normal((10, 2, 2))
    lam = np.ones((10, 2))
    with pytest.raises(ValueError):
        wpe(field, lam, taps=4, delay=0)  # wpe needs a causal gap
    with pytest.raises(ValueError):
        build_delayed_stack(field, taps=0, delay=1)
    with pytest.raises(ValueError):
        solve_weighted_lp(field, field[:, :, 0], np.zeros((10, 2)))
    nan_lam = lam.copy()
    nan_lam[4, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        wpe_field(field, nan_lam, taps=2)
    with pytest.raises(ValueError):
        fcp(field[:, :, 0], field[:, 0, :].T)  # shape mismatch
    with pytest.raises(ValueError):
        wpe_field(field, lam[:5], taps=2)
    with pytest.raises(ValueError):
        fcp_weight(field[:, :, 0], field[:, :, 1], epsilon=float("nan"))
    bad = field[:, :, 0].copy()
    bad[3, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fcp_weight(bad, field[:, :, 1])


def _loaded_solves():
    # name -> a call of that solver with loading= given: every loaded solve
    rng = np.random.default_rng(26)
    field = rng.standard_normal((12, 3, 2)) + 1j * rng.standard_normal((12, 3, 2))
    weights = rng.uniform(0.5, 1.0, (12, 3))
    phi = np.einsum("tfp,tfq->fpq", field, field.conj()) + np.eye(2)
    steering = field[0] / np.linalg.norm(field[0], axis=1, keepdims=True)
    cov = lodistort.CovarianceSet(phi, phi + np.eye(2), steering)
    return {
        "fcp": lambda loading: fcp(field[:, :, 0], field[:, :, 1], taps=2,
                                   loading=loading),
        "wpe_field": lambda loading: wpe_field(field, weights, 2, loading=loading),
        "solve_weighted_lp": lambda loading: solve_weighted_lp(
            field, field[:, :, 0], weights, loading=loading),
        "mcwf": lambda loading: lodistort.mcwf(field, field[:, :, 0], loading=loading),
        "mvdr": lambda loading: lodistort.mvdr(cov, loading=loading),
        "wmpdr": lambda loading: lodistort.wmpdr(phi, steering, loading=loading),
        "gev_ban": lambda loading: lodistort.gev_ban(cov, loading=loading),
    }


@pytest.mark.parametrize("loading", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("solver", sorted(_loaded_solves()))
def test_loading_is_checked_by_its_rule_before_any_solve(solver, loading):
    # a usage error, not a late SingularMatrixError or a run with -1
    with pytest.raises(ValueError, match="loading must be >= 0 and finite"):
        _loaded_solves()[solver](loading)


@pytest.mark.parametrize("delay", [np.nan, 1.5, True, -1])
def test_stack_delay_is_an_integer_at_least_zero(delay):
    field = np.ones((4, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="delay must be"):
        build_delayed_stack(field, taps=2, delay=delay)


def weighted_conjugate_lp(stack, targets, weights, loading=linpred.DEFAULT_LOADING):
    """The weighted-conjugate normal equations, all bins at once: conj(stack)
    / weights against the stack and the targets gives conj(Gram) and
    conj(rhs), so the solve returns conj(coeffs).

    Arguments:
        stack: T x F x D, targets: T x F x M, weights: T x F
    Return:
        (coefficients F x D x M, predictions coeffs^H stack, T x F x M)
    """
    stack = stack.transpose(1, 0, 2)
    weighted_t = (np.conj(stack) / weights.T[:, :, None]).transpose(0, 2, 1)
    gram = np.matmul(weighted_t, stack)
    gram = 0.5 * (gram + np.conj(np.swapaxes(gram, -1, -2)))
    dim = gram.shape[-1]
    scale = np.trace(gram, axis1=-2, axis2=-1).real / dim
    scale = np.where(scale > 0.0, scale, 1.0)
    gram = gram + (loading * scale)[:, None, None] * np.eye(dim)
    rhs = np.matmul(weighted_t, targets.transpose(1, 0, 2))
    conj_coeffs = np.linalg.solve(gram, rhs)
    return np.conj(conj_coeffs), np.matmul(stack, conj_coeffs).transpose(1, 0, 2)


def _assert_relative(got, want, tol=1e-10):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_core_matches_weighted_conjugate_normal_equations():
    # white frames keep every Gram well conditioned, so the coefficients are
    # defined to working precision (planted scenes have rank-deficient
    # stacks whose coefficients only the loading pins down)
    rng = np.random.default_rng(12)
    shape = (150, 9, 3)
    mixture = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    direct = mixture + 0.3 * noise
    lam = psd_floor(direct[:, :, 0])
    stack = build_delayed_stack(mixture, taps=6, delay=3)
    want_coeffs, predictions = weighted_conjugate_lp(stack, mixture, lam)
    want_out = mixture - predictions

    coeffs, out = wpe_field(mixture, lam, taps=6, delay=3)
    _assert_relative(coeffs, want_coeffs)
    _assert_relative(out, want_out)
    coeffs_q, out_q = wpe(mixture, lam, taps=6, delay=3, ref_mic=2)
    _assert_relative(coeffs_q, want_coeffs[:, :, 2])
    _assert_relative(out_q, want_out[:, :, 2])

    reference, estimate = mixture[:, :, 1], direct[:, :, 1]
    eta = fcp_weight(reference, estimate)
    fcp_stack = build_delayed_stack(estimate[:, :, None], taps=12, delay=0)
    want_coeffs, filtered = weighted_conjugate_lp(fcp_stack, reference[:, :, None], eta)
    coeffs, compensated = fcp(reference, estimate, taps=12)
    _assert_relative(coeffs, want_coeffs[:, :, 0])
    _assert_relative(compensated, reference - (filtered[:, :, 0] - estimate))

    target = mixture[:, :, 0]
    want_coeffs, _ = weighted_conjugate_lp(stack, target[:, :, None], lam)
    _assert_relative(solve_weighted_lp(stack, target, lam), want_coeffs[:, :, 0])


def test_zero_stack_gives_the_zero_filter():
    rng = np.random.default_rng(11)
    target = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    lam = rng.uniform(0.5, 2.0, size=(30, 4))
    coeffs = solve_weighted_lp(np.zeros((30, 4, 5), dtype=complex), target, lam)
    assert coeffs.shape == (4, 5)
    assert np.all(coeffs == 0.0)


@pytest.mark.parametrize("frames, channels, taps, delay", [
    (506, 1, 40, 0), (506, 6, 10, 3), (7, 2, 1, 0), (3, 1, 20, 5),
])
def test_bin_bytes_are_the_workspace_plus_one_solver_copy(frames, channels, taps,
                                                          delay):
    # one bin's share of the chunk budget: its workspace buffers (with the
    # target/prediction buffer, one column per target: fcp's one, wpe's P)
    # plus the D x D complex copy LAPACK factors; the window view that fills
    # the stack owns no memory
    dim = taps * channels
    for targets in {1, channels}:
        space = linpred._workspace(1, frames, channels, taps, delay, targets)
        want = sum(buf.nbytes for buf in space if buf.base is None) + 16 * dim * dim
        assert linpred._bin_bytes(frames, channels, taps, delay, targets) == want


def _chunk_runs(monkeypatch, budget, fn):
    solves = []

    def counting_solve(mats, rhs):
        solves.append(mats.shape[0])
        return solve_stack(mats, rhs)

    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", budget)
    # the budget alone sizes the chunks
    monkeypatch.setattr(linpred, "CHUNK_MAX_BINS", 2 ** 40)
    monkeypatch.setattr(linpred, "solve_stack", counting_solve)
    return fn(), solves


@pytest.mark.parametrize("kind", ["wpe_field", "wpe", "fcp"])
def test_bin_chunks_match_one_chunk(monkeypatch, kind):
    mixture, direct = planted_reverb_field(seed=4, num_mics=3)
    lam = psd_floor(direct[:, :, 0])
    run = {
        "wpe_field": lambda: wpe_field(mixture, lam, taps=8, delay=3),
        "wpe": lambda: wpe(mixture, lam, taps=8, delay=3, ref_mic=1),
        "fcp": lambda: fcp(mixture[:, :, 0], direct[:, :, 0], taps=12),
    }[kind]
    (one_coeffs, one_out), one = _chunk_runs(monkeypatch, 2 ** 40, run)
    (coeffs, out), chunks = _chunk_runs(monkeypatch, 2 ** 20, run)
    num_bins = mixture.shape[1]
    assert one == [num_bins]
    # 257 bins is prime, so any split into 2..256-bin chunks is uneven
    assert 1 < len(chunks) < num_bins and sum(chunks) == num_bins
    # workers finish chunks in any order: every chunk but one has the same
    # size, and the odd one (the last bins) is smaller
    sizes = sorted(chunks)
    assert sizes[0] < sizes[1] == sizes[-1]
    assert np.max(np.abs(out - one_out)) <= 1e-12 * np.max(np.abs(one_out))
    assert np.max(np.abs(coeffs - one_coeffs)) <= 1e-12 * np.max(np.abs(one_coeffs))


def _pool_case(kind):
    # a planted scene and one linear-prediction call returning its filter
    # coefficients and output
    mixture, direct = planted_reverb_field(seed=5, num_mics=3)
    lam = psd_floor(direct[:, :, 0])

    return {
        "wpe_field": lambda: wpe_field(mixture, lam, taps=8, delay=3),
        "wpe": lambda: wpe(mixture, lam, taps=8, delay=3, ref_mic=2),
        "fcp": lambda: fcp(mixture[:, :, 1], direct[:, :, 1], taps=12),
    }[kind]


def _assert_close(got, want):
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _solve_threads(monkeypatch):
    # records the thread of every chunk solve
    threads = []

    def recording_solve(mats, rhs):
        threads.append(threading.get_ident())
        return solve_stack(mats, rhs)

    monkeypatch.setattr(linpred, "solve_stack", recording_solve)
    return threads


def _meeting_solves(monkeypatch):
    # records the thread of every chunk solve; each solve waits until a
    # second thread has entered one, so a pooled call whose chunks all ran
    # on one thread fails instead of passing by timing
    threads = []
    met = threading.Event()

    def meeting_solve(mats, rhs):
        threads.append(threading.get_ident())
        if len(set(threads)) > 1:
            met.set()
        assert met.wait(timeout=60), "no second thread solved a chunk"
        return solve_stack(mats, rhs)

    monkeypatch.setattr(linpred, "solve_stack", meeting_solve)
    return threads


@pytest.mark.parametrize("kind", ["wpe_field", "wpe", "fcp"])
def test_worker_counts_agree(monkeypatch, kind):
    run = _pool_case(kind)
    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", 2 ** 20)
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    threads = _solve_threads(monkeypatch)
    serial = run()
    assert set(threads) == {threading.get_ident()}
    for workers in (2, 5):
        monkeypatch.setattr(_pool, "worker_count", lambda: workers)
        threads = _meeting_solves(monkeypatch)
        _assert_close(run(), serial)
        # pooled solves leave the calling thread
        assert set(threads) - {threading.get_ident()}, workers


def test_repeated_calls_are_bit_identical(monkeypatch):
    run = _pool_case("wpe_field")
    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", 2 ** 20)
    monkeypatch.setattr(_pool, "worker_count", lambda: 3)
    first = run()
    for _ in range(3):
        again = run()
        assert all(np.array_equal(a, b) for a, b in zip(again, first))


def test_without_blas_control_runs_serially(monkeypatch):
    run = _pool_case("wpe_field")
    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", 2 ** 20)
    pooled = run()
    monkeypatch.setattr(_pool, "openblas_threads", lambda: None)
    assert _pool.worker_count() == 1
    threads = _solve_threads(monkeypatch)
    serial = run()
    assert set(threads) == {threading.get_ident()}
    _assert_close(serial, pooled)


@pytest.fixture()
def blas_threads():
    # the OpenBLAS thread count at 3 for the test, put back afterwards
    control = _pool.openblas_threads()
    if control is None:
        pytest.skip("numpy's BLAS thread count cannot be controlled here")
    get, set_threads = control
    saved = get()
    set_threads(3)
    try:
        yield get
    finally:
        set_threads(saved)


def test_blas_thread_count_restored(monkeypatch, blas_threads):
    run = _pool_case("wpe_field")
    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", 2 ** 20)
    monkeypatch.setattr(_pool, "worker_count", lambda: 2)
    inside = []

    def solve_then_fail(mats, rhs):
        inside.append(blas_threads())
        if fail and len(inside) == 5:
            raise RuntimeError("planted failure")
        return solve_stack(mats, rhs)

    monkeypatch.setattr(linpred, "solve_stack", solve_then_fail)
    fail = False
    run()
    assert set(inside) == {1}
    assert blas_threads() == 3
    fail = True
    inside.clear()
    with pytest.raises(RuntimeError, match="planted failure"):
        run()
    assert blas_threads() == 3


def test_overlapping_calls_from_threads(monkeypatch, blas_threads):
    # more callers and workers than cores, switching threads often: every
    # result matches a serial run and the last region out restores BLAS
    run = _pool_case("wpe")
    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", 2 ** 20)
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    want = run()
    monkeypatch.setattr(_pool, "worker_count", lambda: 3)
    results = [None] * 6

    def call(index):
        results[index] = run()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for got in results:
        _assert_close(got, want)
    assert blas_threads() == 3


def test_wpe_field_large_order_fits_capped_address_space():
    # taps=500 on 2 mics gives D = 1000: the F x D x D Gram stack alone would
    # take 4.1 GB, so this only finishes under a 2 GB cap if bins are chunked
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from lodistort import (RoomSpec, analyze, psd_floor, render_scene,
                               synth_noise, synth_speech_like, wpe_field)

        limit = 2 * 2 ** 30
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        room = RoomSpec(num_mics=2, t60_seconds=0.3, rir_len_samples=4000, seed=3)
        scene = render_scene(synth_speech_like(8000, seed=1),
                             [synth_noise(8000, seed=2)], room, snr_db=5.0)
        mix = analyze(scene.mixture)
        lam = psd_floor(analyze(scene.direct_path)[:, :, 0])
        coeffs, out = wpe_field(mix, lam, taps=500)
        assert coeffs.shape == (257, 1000, 2)
        assert np.all(np.isfinite(out))
        print("finished")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lodistort.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "finished"
