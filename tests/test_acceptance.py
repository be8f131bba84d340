"""Acceptance suite: one test per release criterion, each printing its
verdict so `pytest -s tests/test_acceptance.py` reads as a checklist.

Run order follows the criterion numbering; every tolerance is stated
inline next to the check it guards.
"""

import math
import time
from pathlib import Path

import numpy as np
from scipy.stats import norm

from optivote import channel as ch
from optivote import cli, learner, montecarlo as mc, orchestrator as orch, phy, power, theory
from optivote.config import ChannelConfig, PowerConfig, load_config
from optivote.rng import TAG_MC, derive

from conftest import UNIT_CFSPL


def report(num: int, desc: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {desc}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} failed: {detail}"


def default_channel(**kw) -> ChannelConfig:
    base = dict(d_min_km=500.0, d_max_km=2000.0, a0=0.9, xi_p=1.5,
                sigma_n2=0.1, c_fspl=UNIT_CFSPL)
    base.update(kw)
    return ChannelConfig(**base)


def test_criterion_01_slot_energy_moments():
    """Empirical slot-energy means match the closed forms within 3 SE
    at one million samples, in under 30 seconds."""
    t0 = time.monotonic()
    params = default_channel()
    reports = mc.verify_energy_means(params, m_plus=7, m_minus=3,
                                     samples=1_000_000, seed=0)
    elapsed = time.monotonic() - t0
    detail = "; ".join(
        f"{r.name}: {r.empirical:.6f} vs {r.theoretical:.6f} (SE {r.standard_error:.2g})"
        for r in reports
    ) + f"; {elapsed:.1f}s"
    report(1, "slot-energy moments (1e6 samples, 3 SE, <=30s)",
           all(r.passed for r in reports) and elapsed <= 30.0, detail)


def test_criterion_02_lambda_closed_form():
    """Closed-form channel efficiency agrees with adaptive quadrature to
    1e-6 relative error on a 20-point randomized grid, in under 1 second."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        d_min_km = float(rng.uniform(100.0, 1500.0))
        params = ChannelConfig(
            d_min_km=d_min_km,
            d_max_km=d_min_km * float(rng.uniform(1.2, 8.0)),
            a0=float(rng.uniform(0.1, 1.0)),
            xi_p=float(rng.uniform(0.3, 6.0)),
            sigma_n2=0.1,
            c_fspl=float(rng.uniform(0.05, 20.0)) * 1e12,
        )
        closed, oracle = ch.lambda_eff(params), ch.lambda_oracle(params)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.monotonic() - t0
    report(2, "channel-efficiency closed form vs quadrature (rel<=1e-6, <=1s)",
           worst <= 1e-6 and elapsed <= 1.0,
           f"worst rel err {worst:.2e}; {elapsed:.2f}s")


def test_criterion_03_flip_bound_dominance():
    """The majority-vote flip bound is never violated empirically on the
    full SNR x cohort x per-node-error grid (1e5 samples per point)."""
    # One cohort per (M, q), on verify_error_bound's key, is scored at all
    # four SNR points; each report equals the single-channel call's
    # (test_montecarlo checks it).
    noise = [mc.unit_channel(xi_snr=xi).sigma_n2 for xi in (0.5, 1.0, 5.0, 20.0)]
    violations = []
    for M in (4, 10, 50):
        for q in (0.05, 0.2, 0.4):
            flips = mc._cohort_counts([(M, q)], mc.unit_channel(1.0), noise, 100_000,
                                      derive(0, TAG_MC, 2, M, int(q * 1e6)), threads=1)[0]
            for r in mc._bound_reports(M, q, mc.unit_channel(1.0), noise, 100_000, flips[0]):
                if not r.passed:
                    violations.append(r.name)
    report(3, "flip-bound one-sided dominance over 36-point grid",
           not violations, f"violations: {violations or 'none'}")


def test_criterion_04_per_node_bound_shape():
    """Per-node sign-flip bound: continuous at the branch boundary to
    1e-12, at most 1/2 everywhere, and dominating the exact Gaussian
    flip probability on a 50-point grid."""
    b = 2.0 / math.sqrt(3.0)
    eps = 1e-13
    jump = abs(theory.q_bound(b * (1 + eps), 1.0, 1)
               - theory.q_bound(b * (1 - eps), 1.0, 1))
    continuous = jump <= 1e-12

    ratios = np.linspace(0.0, 6.0, 50)
    capped = all(theory.q_bound(float(r), 1.0, 1) <= 0.5 for r in ratios)
    dominates = all(
        theory.q_bound(float(r), 1.0, 1) >= norm.cdf(-float(r)) for r in ratios
    )
    report(4, "per-node bound continuity, 1/2 cap, Gaussian dominance",
           continuous and capped and dominates,
           f"branch jump {jump:.2e}; capped={capped}; dominates={dominates}")


def test_criterion_05_brute_force_detection():
    """With zero noise and homogeneous amplitudes, slot-energy detection
    equals the exact majority sign on every untied vote pattern for all
    cohort sizes up to 12, exhaustively, in under 10 seconds."""
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for M in range(1, 13):
        patterns = ((np.arange(2**M)[:, None] >> np.arange(M)) & 1) * 2 - 1
        sums = patterns.sum(axis=1)
        untied = patterns[sums != 0]
        # one frame per cohort size: coordinate k carries vote pattern k
        e_plus, e_minus = phy.superpose_frame(
            untied.T, np.ones(M), np.ones(M), 0.0, derive(0, 6))
        detected = phy.detect_mv(e_plus, e_minus)
        mismatches += int(np.sum(detected != np.sign(sums[sums != 0])))
        checked += len(untied)
    elapsed = time.monotonic() - t0
    report(5, "exhaustive detection vs majority sign (M<=12, <=10s)",
           mismatches == 0 and elapsed <= 10.0,
           f"{checked} patterns, {mismatches} mismatches; {elapsed:.1f}s")


def test_criterion_06_convergence_bound_instance():
    """The convergence-bound evaluator reproduces an independently
    hand-computed instance to 1e-9 and decreases monotonically in both
    the SNR and the round count."""
    got = theory.convergence_bound(M=20, xi_snr=1.0, L1=10.0, gap=5.0,
                                   sigma_l1=2.0, N=400, gamma=4)
    # hand evaluation: delta = (1 + 2/20)/2 = 0.55;
    # (0.55*sqrt(10)*7 + (2*sqrt(2)/3)*2*2) / sqrt(400)
    hand = 0.7973002578988259
    exact = abs(got - hand) <= 1e-9

    def at(**kw):
        base = dict(M=20, xi_snr=1.0, L1=10.0, gap=5.0, sigma_l1=2.0,
                    N=400, gamma=4)
        base.update(kw)
        return theory.convergence_bound(**base)

    xi_vals = [at(xi_snr=x) for x in (0.25, 0.5, 1.0, 2.0, 8.0, 64.0)]
    n_vals = [at(N=n) for n in (100, 200, 400, 800)]
    mono = (all(a > b for a, b in zip(xi_vals, xi_vals[1:]))
            and all(a > b for a, b in zip(n_vals, n_vals[1:])))
    report(6, "convergence bound: frozen instance to 1e-9 + monotonicity",
           exact and mono, f"got {got!r}, expected {hand!r}; monotone={mono}")


def _e2e_config(scheme: str, **channel):
    chan = {"c_fspl": UNIT_CFSPL, "sigma_n2": 0.1}
    chan.update(channel)
    return load_config({
        "channel": chan,
        "learner": {"dataset": {"num_classes": 10, "n": 2000, "n_test": 500,
                                "d": 20, "separation": 4.0}},
        "run": {"M": 20, "m": 4, "rounds": 200, "eta": 0.05, "d_b": 64,
                "scheme": scheme, "seed": 0},
    })


def test_criterion_07_end_to_end_learning():
    """On separable synthetic data the adaptive scheme reaches >=0.85 test
    accuracy, tracks the error-free majority vote within 0.05, and beats
    uncompensated analog averaging under heavy pointing jitter by >=0.15;
    all three runs in under two minutes."""
    t0 = time.monotonic()
    acc_opt = orch.run(_e2e_config("optivote")).final_accuracy
    acc_ideal = orch.run(_e2e_config("ideal_mv")).final_accuracy
    acc_air = orch.run(_e2e_config("fedavg_air", xi_p=0.8)).final_accuracy
    elapsed = time.monotonic() - t0
    ok = (acc_opt >= 0.85
          and abs(acc_opt - acc_ideal) <= 0.05
          and acc_opt - acc_air >= 0.15
          and elapsed <= 120.0)
    report(7, "end-to-end accuracy ordering (adaptive ~ ideal >> analog)",
           ok,
           f"optivote={acc_opt:.3f}, ideal={acc_ideal:.3f}, "
           f"analog={acc_air:.3f}; {elapsed:.1f}s")


def test_criterion_08_power_control_invariants():
    """Powers stay inside [p_min, p_max] throughout a run, pre-projection
    updates are budget-neutral to 1e-9 each round, and a zero step size
    reproduces the fixed-power scheme bit-for-bit."""
    params = PowerConfig(p_avg=1.0, p_min=0.1, p_max=2.0, rho=0.05)
    rng = np.random.default_rng(8)
    p, a = np.full(20, params.p_avg), np.full(20, 0.5)
    neutral = True
    in_bounds = True
    for _ in range(200):
        a[:] = rng.random(20)
        raw_step = params.rho * (a - a.mean())
        neutral &= abs(raw_step.sum()) <= 1e-9
        p = power.update_powers(p, a, params, active=np.arange(20))
        in_bounds &= bool(np.all((p >= params.p_min - 1e-12)
                                 & (p <= params.p_max + 1e-12)))

    cfg_rho0 = load_config(
        {**_raw_e2e("optivote"), "power": {"rho": 0.0}})
    cfg_fixed = load_config(_raw_e2e("optivote_fixed_power"))
    orch.run(cfg_rho0)
    csv_rho0 = Path("out/metrics.csv").read_text()
    orch.run(cfg_fixed)
    csv_fixed = Path("out/metrics.csv").read_text()
    bit_exact = csv_rho0 == csv_fixed
    report(8, "power invariants: bounds, budget neutrality, rho=0 identity",
           neutral and in_bounds and bit_exact,
           f"neutral={neutral}, bounds={in_bounds}, bit_exact={bit_exact}")


def _raw_e2e(scheme: str) -> dict:
    return {
        "channel": {"c_fspl": UNIT_CFSPL, "sigma_n2": 0.1},
        "learner": {"dataset": {"num_classes": 10, "n": 400, "n_test": 200,
                                "d": 20, "separation": 4.0}},
        "run": {"M": 10, "m": 4, "rounds": 20, "eta": 0.05, "d_b": 32,
                "scheme": scheme, "seed": 0},
    }


def test_criterion_09_simulate_determinism(tmp_path):
    """Two CLI simulations with the same config and seed write
    byte-identical metrics, regardless of the thread-count flag."""
    import json
    cfg = _raw_e2e("optivote")
    outputs = []
    for i, threads in enumerate(("1", "1", "8")):
        out = tmp_path / f"run{i}"
        cfg["output"] = {"dir": str(out)}
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["--threads", threads, "simulate", "--config", str(path)])
        assert code == 0
        outputs.append((out / "metrics.csv").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(9, "byte-identical replays across runs and thread counts",
           identical, f"{len(outputs[0])} bytes")


def test_criterion_10_gradient_oracle():
    """Analytic gradients match central finite differences to 1e-4
    relative error over 100 random probes for both architectures."""
    worst = 0.0
    rng = np.random.default_rng(10)
    ds = learner.make_synthetic(4, 48, 6, 2.0, seed=10)
    for arch in ("logistic", "mlp"):
        for _ in range(50):
            model = learner.Model.init(arch, 6, 4, hidden=5,
                                       seed=int(rng.integers(1 << 30)))
            model.w[:] = rng.normal(scale=0.5, size=model.q)
            g = learner.gradient(model, ds.features, ds.labels)
            k = int(rng.integers(model.q))
            h = 1e-5
            wp, wm = model.w.copy(), model.w.copy()
            wp[k] += h
            wm[k] -= h
            lp, _ = learner.evaluate(
                learner.Model(wp, arch, 6, 4, model.hidden), ds, ds)
            lm, _ = learner.evaluate(
                learner.Model(wm, arch, 6, 4, model.hidden), ds, ds)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[k]), 1e-3)
            worst = max(worst, abs(g[k] - fd) / denom)
    report(10, "analytic vs central-difference gradients (100 probes, 1e-4)",
           worst <= 1e-4, f"worst rel err {worst:.2e}")
