"""Top-level acceptance gate: ten end-to-end checks, one per criterion,
each printing a single PASS/FAIL line.

Everything here is oracle-driven — dense reference solvers, closed forms,
Monte-Carlo draws, byte comparisons — and uses only the public API plus the
shared fixtures in conftest.
"""

import json
import math
import os
import time

import numpy as np
import scipy.linalg

from lodistort import (
    CovarianceSet,
    PIPELINE_NAMES,
    analyze,
    fcp,
    gev_ban,
    mcwf,
    mvdr,
    pdsacc,
    psd_floor,
    psnr,
    si_sdr,
    sign_flip_probability,
    solve_weighted_lp,
    steering_vector,
    synthesize,
    wmpdr,
    wpe,
    apply_beamformer,
)
from lodistort.cli import main as cli_main

from conftest import planted_reverb_field, random_psd_stack, rank_one_field


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_stft_round_trip():
    rng = np.random.default_rng(202601)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8000, 32001))  # 0.5 s to 2 s at 16 kHz
        x = rng.standard_normal(n)
        rec = synthesize(analyze(x), num_samples=n).channel(0)
        worst = max(worst, float(np.max(np.abs(rec - x)) / np.max(np.abs(x))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"round-trip worst rel err {worst:.2e} over 200 signals in {elapsed:.1f} s",
    )


def test_criterion_02_distortionless_constraint():
    rng = np.random.default_rng(202602)
    worst = 0.0
    for case in range(100):
        num_mics = (2, 6, 8)[case % 3]
        q = case % num_mics
        d = rng.standard_normal((4, num_mics)) + 1j * rng.standard_normal(
            (4, num_mics)
        )
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        w_mvdr = mvdr(
            CovarianceSet(None, random_psd_stack(rng, 4, num_mics), steering=d),
            ref_mic=q,
        )
        w_wmpdr = wmpdr(random_psd_stack(rng, 4, num_mics), d, ref_mic=q)
        for w in (w_mvdr, w_wmpdr):
            gap = np.einsum("fp,fp->f", np.conj(w), d) - d[:, q]
            worst = max(worst, float(np.max(np.abs(gap))))
    _report(2, worst < 1e-10,
            f"per-frequency constraint gap <= {worst:.2e} over 100 sets")


def test_criterion_03_oracle_mvdr_exactness():
    field, _, _ = rank_one_field(202603, num_frames=50, num_mics=4)
    cov = CovarianceSet(
        phi_s=np.einsum("tfp,tfq->fpq", field, np.conj(field)),
        phi_v=np.zeros((field.shape[1], 4, 4), dtype=complex),
    )
    cov.steering = steering_vector(cov.phi_s, ref_mic=2)
    out = apply_beamformer(mvdr(cov, ref_mic=2), field)
    rel = float(np.max(np.abs(out - field[:, :, 2]) / np.abs(field[:, :, 2])))
    _report(3, rel < 1e-8, f"noiseless rank-1 per-bin rel err {rel:.2e}")


def test_criterion_04_solver_oracles():
    rng = np.random.default_rng(202604)
    num_frames, num_bins, num_mics = 80, 5, 3
    field = rng.standard_normal((num_frames, num_bins, num_mics)) \
        + 1j * rng.standard_normal((num_frames, num_bins, num_mics))
    target = rng.standard_normal((num_frames, num_bins)) \
        + 1j * rng.standard_normal((num_frames, num_bins))

    # dense per-frequency normal equations, assembled independently
    got = mcwf(field, target, loading=0.0)
    worst = 0.0
    for f in range(num_bins):
        z = field[:, f, :]
        gram = np.einsum("tp,tq->pq", z, np.conj(z))
        rhs = np.einsum("tp,t->p", z, np.conj(target[:, f]))
        worst = max(worst, float(np.max(np.abs(got[f] - np.linalg.solve(gram, rhs)))))

    weights = rng.uniform(0.5, 2.0, size=(num_frames, num_bins))
    got_lp = solve_weighted_lp(field, target, weights, loading=0.0)
    for f in range(num_bins):
        z = field[:, f, :]
        lam = weights[:, f]
        gram = np.einsum("tp,tq->pq", z / lam[:, None], np.conj(z))
        rhs = np.einsum("tp,t->p", z / lam[:, None], np.conj(target[:, f]))
        worst = max(
            worst, float(np.max(np.abs(got_lp[f] - np.linalg.solve(gram, rhs))))
        )
    oracle_ok = worst < 1e-9

    # planted solutions, default loading
    w0 = rng.standard_normal((num_bins, num_mics)) + 1j * rng.standard_normal(
        (num_bins, num_mics)
    )
    planted_tgt = np.einsum("tfp,fp->tf", field, np.conj(w0))
    rec_mcwf = mcwf(field, planted_tgt)
    rec_lp = solve_weighted_lp(field, planted_tgt, weights)
    planted_err = max(
        float(np.max(np.abs(rec_mcwf - w0))), float(np.max(np.abs(rec_lp - w0)))
    )
    _report(
        4,
        oracle_ok and planted_err < 1e-7,
        f"normal-equation gap {worst:.2e}, planted recovery err {planted_err:.2e}",
    )


def test_criterion_05_gev_and_ban():
    rng = np.random.default_rng(202605)
    worst_resid = 0.0
    gains_ok = True
    for case in range(100):
        num_mics = (2, 3, 4, 6)[case % 4]
        phi_s = random_psd_stack(rng, 1, num_mics, rows=max(2, num_mics - 1))
        phi_v = random_psd_stack(rng, 1, num_mics)
        w = gev_ban(CovarianceSet(phi_s, phi_v), ref_mic=0, loading=0.0)[0]
        vals, _ = scipy.linalg.eigh(phi_s[0], phi_v[0])
        lam = vals[-1]
        resid = np.linalg.norm(phi_s[0] @ w - lam * (phi_v[0] @ w))
        worst_resid = max(
            worst_resid, float(resid / np.linalg.norm(phi_s[0] @ w))
        )
        gain = float(np.linalg.norm(w))
        u = w / gain
        formula = complex(
            np.sqrt((np.conj(u) @ phi_v[0] @ phi_v[0] @ u).real / num_mics)
            / (np.conj(u) @ phi_v[0] @ u)
        )
        gains_ok &= abs(formula.imag) < 1e-10 * abs(formula.real)
        gains_ok &= formula.real >= 0.0 and gain >= 0.0
        gains_ok &= abs(gain - formula.real) < 1e-8 * max(1.0, formula.real)
    _report(
        5,
        worst_resid < 1e-8 and gains_ok,
        f"eigen-relation rel residual {worst_resid:.2e}; 100 BAN gains real >= 0",
    )


def test_criterion_06_sign_flip_monte_carlo():
    rng = np.random.default_rng(202606)
    draws = 1_000_000
    start = time.perf_counter()
    boundary_ok = (
        sign_flip_probability(2.0, 1.0, np.pi / 2.0) == 0.0
        and sign_flip_probability(1.0, 2.0, 0.0) == 0.5
    )
    worst_sigma = 0.0
    for _ in range(20):
        mag_s = float(rng.uniform(0.1, 2.0))
        mag_v = float(rng.uniform(0.1, 3.0))
        theta = float(rng.uniform(0.0, np.pi))
        want = sign_flip_probability(mag_s, mag_v, theta)
        phases = rng.uniform(-np.pi, np.pi, size=draws)
        # mixture phase fixed at 0, target at +theta: a flip is a negative
        # imaginary part of target + residual
        imag = mag_s * np.sin(theta) + mag_v * np.sin(phases)
        rate = float(np.count_nonzero(imag < 0.0)) / draws
        if want == 0.0:
            ok = rate == 0.0
            sigmas = 0.0
        else:
            sigma = math.sqrt(want * (1.0 - want) / draws)
            sigmas = abs(rate - want) / sigma
            ok = sigmas <= 3.0
        worst_sigma = max(worst_sigma, sigmas)
        if not ok:
            _report(6, False,
                    f"triple ({mag_s:.3f},{mag_v:.3f},{theta:.3f}): "
                    f"MC rate {rate:.5f} vs formula {want:.5f}")
    elapsed = time.perf_counter() - start
    _report(
        6,
        boundary_ok and elapsed < 60.0,
        f"20 triples within {worst_sigma:.2f} sigma of the closed form "
        f"({elapsed:.1f} s); boundaries exact",
    )


def test_criterion_07_metric_identities():
    rng = np.random.default_rng(202607)
    ref = rng.standard_normal(4000)
    est = ref + 0.4 * rng.standard_normal(4000)
    base = si_sdr(est, ref)
    scale_gap = max(
        abs(si_sdr(c * est, ref) - base) for c in (1e-6, 0.5, -2.0, 3.7e5)
    )
    scale_ok = scale_gap < 1e-9 and si_sdr(2.7 * ref, ref) == math.inf

    tgt = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    antipodal_gap = abs(
        psnr(np.angle(tgt) + np.pi, tgt) - 10.0 * math.log10(0.25)
    )
    phase = rng.uniform(-np.pi, np.pi, (40, 40))
    power = np.abs(tgt) ** 2
    cosine_form = 10.0 * np.log10(
        np.sum(power)
        / np.sum(2.0 * power * (1.0 - np.cos(phase - np.angle(tgt))))
    )
    dual_gap = abs(psnr(phase, tgt) - cosine_form)

    shape = (500, 257)  # > 1e5 bins, every one inside the energy mask
    big_tgt = rng.uniform(0.5, 1.0, shape) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, shape)
    )
    big_mix = rng.uniform(0.5, 1.0, shape) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, shape)
    )
    random_est = np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    acc = pdsacc(random_est, big_tgt, big_mix)
    _report(
        7,
        scale_ok and antipodal_gap < 1e-9 and dual_gap < 1e-9
        and abs(acc - 50.0) < 1.0 and shape[0] * shape[1] >= 100_000,
        f"scale gap {scale_gap:.1e}; antipodal gap {antipodal_gap:.1e}; "
        f"dual-form gap {dual_gap:.1e}; random-phase acc {acc:.2f}%",
    )


def test_criterion_08_dereverberation_efficacy():
    si_mix, si_wpe = [], []
    fcp_strict = True
    for index in range(20):
        mixture, direct = planted_reverb_field(seed=300 + index)
        mix_q = mixture[:, :, 0]
        direct_q = direct[:, :, 0]
        lam = psd_floor(direct_q)
        _, out = wpe(mixture, lam, taps=10, delay=3, ref_mic=0)
        tgt_wave = synthesize(direct_q).channel(0)
        si_mix.append(si_sdr(synthesize(mix_q).channel(0), tgt_wave))
        si_wpe.append(si_sdr(synthesize(out).channel(0), tgt_wave))
        _, compensated = fcp(mix_q, direct_q)
        fcp_strict &= bool(
            np.linalg.norm(compensated - direct_q)
            < np.linalg.norm(mix_q - direct_q)
        )
    gain = float(np.mean(si_wpe) - np.mean(si_mix))
    _report(
        8,
        gain >= 5.0 and fcp_strict,
        f"WPE mean SI-SDR gain {gain:.1f} dB over 20 planted scenes; "
        f"FCP strictly closer on every scene: {fcp_strict}",
    )


def test_criterion_09_pipeline_trends(scene_suite):
    si = {name: scene_suite[name]["si"] for name in PIPELINE_NAMES}
    ordered = (
        si["mmvdr"] <= si["mmvdr_wpe"] <= si["mwmpdr_wpe"] <= si["fcp_mwmpdr_wpe"]
    )
    mix_si = scene_suite["mixture"]["si"]
    mix_psnr = scene_suite["mixture"]["psnr"]
    improves = all(
        scene_suite[name]["si"] > mix_si and scene_suite[name]["psnr"] > mix_psnr
        for name in PIPELINE_NAMES
    )
    elapsed = scene_suite["elapsed"]
    _report(
        9,
        ordered and improves and elapsed < 300.0,
        "suite means (dB) "
        + " <= ".join(
            f"{si[n]:.2f}"
            for n in ("mmvdr", "mmvdr_wpe", "mwmpdr_wpe", "fcp_mwmpdr_wpe")
        )
        + f"; all 11 beat the mixture; suite took {elapsed:.0f} s",
    )


def test_criterion_10_cli_determinism(tmp_path, monkeypatch, capsys):
    def full_run(root):
        os.makedirs(root)
        monkeypatch.chdir(root)
        assert cli_main(["simulate", "--mics", "2", "--t60", "0.3",
                         "--snr-db", "0", "--seed", "9", "--out", "scene"]) == 0
        assert cli_main(["enhance", "--scene", "scene", "--pipeline",
                         "fcp_mwmpdr_wpe", "--taps", "6", "--out", "run"]) == 0
        assert cli_main(["analyze-phase", "--scene", "scene",
                         "--est-err-snr-db", "20", "--out", "phase.json"]) == 0
        assert cli_main(["list-pipelines", "--out", "catalog.json"]) == 0
        capsys.readouterr()
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, root)] = handle.read()
        return files

    first = full_run(str(tmp_path / "a"))
    second = full_run(str(tmp_path / "b"))
    same_names = set(first) == set(second)
    diffs = [name for name in first if first.get(name) != second.get(name)]
    _report(
        10,
        same_names and not diffs,
        f"{len(first)} files byte-identical across two invocations"
        + (f"; diffs: {diffs}" if diffs else ""),
    )
