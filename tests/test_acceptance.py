"""Release acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (visible with `pytest tests/test_acceptance.py -s`).
Experiments load the committed configs so the gates exercised here are the
ones shipped.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import matchdim as md
from matchdim import harness
from matchdim.seeding import spawn_seed
from oracles import lcs_length, lcs_oracle, scrabble_crosscheck, shortest_distance

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

_RESULTS: dict[str, object] = {}


def run_config(name: str):
    if name not in _RESULTS:
        with open(CONFIG_DIR / f"{name}.yaml") as fh:
            plan = harness.plan_from_config(yaml.safe_load(fh))
        _RESULTS[name] = harness.run(plan)
    return _RESULTS[name]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10_001)
    lcs_mismatch = 0
    for _ in range(10_000):
        size = int(rng.integers(2, 9))
        lx, ly = (int(v) for v in rng.integers(1, 201, size=2))
        x = md.SymbolSeq(md.Alphabet(size), rng.integers(0, size, lx))
        y = md.SymbolSeq(md.Alphabet(size), rng.integers(0, size, ly))
        if lcs_length(x, y) != lcs_oracle(x, y).length:
            lcs_mismatch += 1
    t_lcs = time.perf_counter() - t0
    dist_mismatch = witness_mismatch = 0
    t_fast = t_ref = 0.0
    for _ in range(1_000):
        n = int(rng.integers(1, 2049))
        dim = int(rng.integers(1, 3))
        a = md.Orbit(rng.random((n, dim)))
        b = md.Orbit(rng.random((n, dim)))
        t1 = time.perf_counter()
        fast = md.shortest_distance_fast(a, b, n)
        t2 = time.perf_counter()
        ref = shortest_distance(a, b, n)
        t_fast += t2 - t1
        t_ref += time.perf_counter() - t2
        dist_mismatch += fast.distance != ref.distance
        witness_mismatch += fast.witness != ref.witness
    elapsed = time.perf_counter() - t0
    ok = (lcs_mismatch == 0 and dist_mismatch == 0 and witness_mismatch == 0
          and elapsed < 60.0)
    report("criterion 1 (oracle equivalence, exact)", ok,
           f"lcs mismatches {lcs_mismatch}/10000, nearest-pair mismatches "
           f"{dist_mismatch}/1000 in distance and {witness_mismatch}/1000 in "
           f"witness, runtime {elapsed:.1f}s (< 60s; lcs pairs {t_lcs:.1f}s, "
           f"nearest-pair fast {t_fast:.1f}s, reference {t_ref:.1f}s)")


def test_criterion_02_closed_form_cross_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10_002)
    worst_rank1 = 0.0
    for _ in range(50):
        q = rng.random(int(rng.integers(2, 7)))
        q /= q.sum()
        P = np.tile(q, (q.size, 1))
        worst_rank1 = max(worst_rank1, abs(md.renyi2_markov(P) - md.renyi2_iid(q)))
    worst_spec = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        P = rng.random((d, d)) + 0.02
        P /= P.sum(axis=1, keepdims=True)
        while True:
            w = tuple(int(v) for v in rng.integers(1, 5, size=d))
            if math.gcd(*w) == 1:
                break
        spec = md.renyi2_scrabble(P, w)
        worst_spec = max(worst_spec, abs(spec.p_eigen - spec.p_root))
    elapsed = time.perf_counter() - t0
    ok = worst_rank1 < 1e-9 and worst_spec < 1e-9
    report("criterion 2 (closed-form entropy cross-checks)", ok,
           f"rank-1 max diff {worst_rank1:.2e}, eigen/root max diff "
           f"{worst_spec:.2e} over 100 specs, runtime {elapsed:.1f}s")


def test_criterion_03_iid_law():
    res = run_config("lcs_fair_coin")
    theory = 2.0 / math.log(2)
    dev = (res.fit.slope - theory) / theory
    ok = abs(dev) <= 0.15 and res.theory_limit == pytest.approx(theory)
    report("criterion 3 (i.i.d. matching law)", ok,
           f"slope {res.fit.slope:.4f} vs 2/log2 = {theory:.4f} "
           f"({dev * 100:+.1f}%, gate 15%)")


def test_criterion_04_markov_law_and_initial_distribution():
    res = run_config("lcs_markov")
    res_dirac = run_config("lcs_markov_dirac")
    lam = (1.3 + math.sqrt(1.69 - 4 * 0.396)) / 2  # quadratic oracle
    theory = 2.0 / -math.log(lam)
    dev = (res.fit.slope - theory) / theory
    shift = abs(res.fit.slope - res_dirac.fit.slope) / res.fit.slope
    ok = abs(dev) <= 0.15 and shift < 0.05
    report("criterion 4 (Markov law, initial-distribution invariance)", ok,
           f"slope {res.fit.slope:.4f} vs {theory:.4f} ({dev * 100:+.1f}%, "
           f"gate 15%); Dirac start shifts slope by {shift * 100:.2f}% (gate 5%)")


def test_criterion_05_zero_inflation_law():
    res = run_config("zero_inflation")
    base = run_config("zero_inflation_baseline")
    theory = 2.0 / (0.7 * math.log(2))
    dev = (res.fit.slope - theory) / theory
    ratio = res.fit.slope / base.fit.slope
    ratio_dev = (ratio - 1 / 0.7) / (1 / 0.7)
    ok = abs(dev) <= 0.20 and abs(ratio_dev) <= 0.15
    report("criterion 5 (zero-inflation law)", ok,
           f"slope {res.fit.slope:.4f} vs {theory:.4f} ({dev * 100:+.1f}%, gate "
           f"20%); paired ratio {ratio:.4f} vs {1 / 0.7:.4f} "
           f"({ratio_dev * 100:+.1f}%, gate 15%)")


def test_criterion_06_scrabble_law_and_crosscheck():
    res = run_config("scrabble")
    spec = md.renyi2_scrabble([[0.5, 0.5], [0.5, 0.5]], (1, 2))
    theory = 2.0 / spec.entropy
    dev = (res.fit.slope - theory) / theory
    with open(CONFIG_DIR / "scrabble.yaml") as fh:
        plan = harness.plan_from_config(yaml.safe_load(fh))
    diffs = scrabble_crosscheck(plan, n_raw=4096)
    max_v = 2
    ok = abs(dev) <= 0.20 and all(abs(d) <= max_v for d in diffs)
    report("criterion 6 (scrabble law)", ok,
           f"slope {res.fit.slope:.4f} vs {theory:.4f} ({dev * 100:+.1f}%, gate "
           f"20%); matched-window discrepancy range "
           f"[{min(diffs)}, {max(diffs)}] (gate <= {max_v}) over {len(diffs)} trials")


def test_criterion_07_empirical_entropy():
    res = run_config("entropy_markov")
    res_dirac = run_config("entropy_markov_dirac")
    closed = md.renyi2_markov([[0.9, 0.1], [0.3, 0.7]])
    p_stat = res.details["plateau_estimates"][0]
    p_dirac = res_dirac.details["plateau_estimates"][0]
    dev = (p_stat - closed) / closed
    mutual = abs(p_stat - p_dirac) / p_dirac
    ok = abs(dev) <= 0.05 and mutual <= 0.02
    report("criterion 7 (empirical entropy plateau)", ok,
           f"plateau {p_stat:.5f} vs closed form {closed:.5f} "
           f"({dev * 100:+.2f}%, gate 5%); stationary/Dirac mutual gap "
           f"{mutual * 100:.3f}% (gate 2%)")


def test_criterion_08_observed_orbit_law_and_collapse():
    res = run_config("orbit_doubling")
    dev = abs(res.fit.slope - 2.0)
    col = run_config("orbit_collapse")
    stats = np.array([s for _, _, s in col.rows])
    ok = dev <= 0.25 and col.collapse_detected and np.all(stats == 0.0) and col.passed
    report("criterion 8 (observed-orbit law)", ok,
           f"slope {res.fit.slope:.4f} vs 2 (dev {dev:.3f}, gate 0.25); "
           f"collapse demo: all {stats.size} distances zero, collapse detected")


def test_criterion_09_random_orbit_laws():
    t0 = time.perf_counter()
    noniid = run_config("random_noniid")
    toral = run_config("random_toral")
    pert = run_config("random_perturbed")
    elapsed = time.perf_counter() - t0
    dev_noniid = abs(noniid.fit.slope - 2.0)
    dev_toral = abs(toral.fit.slope - 1.0)
    dev_pert = abs(pert.fit.slope - pert.theory_limit)
    ok = (dev_noniid <= 0.25 and dev_toral <= 0.25 and dev_pert <= 0.30
          and elapsed < 600.0)
    report("criterion 9 (random-orbit laws)", ok,
           f"driven 2x/3x slope {noniid.fit.slope:.4f} vs 2 (dev {dev_noniid:.3f}"
           f", gate 0.25); toral pair slope {toral.fit.slope:.4f} vs 1 "
           f"(dev {dev_toral:.3f}, gate 0.25); perturbed slope "
           f"{pert.fit.slope:.4f} vs 2/C_hat = {pert.theory_limit:.4f} "
           f"(dev {dev_pert:.3f}, gate 0.30); runtime {elapsed:.0f}s (< 600s)")


def test_criterion_10_correlation_dimension_and_selector():
    rng = np.random.default_rng(10_010)
    pts1 = rng.random((100_000, 1))
    fit1 = md.correlation_dimension(pts1, *md.default_radius_window(100_000, 1))
    pts2 = rng.random((100_000, 2))
    fit2 = md.correlation_dimension(pts2, *md.default_radius_window(100_000, 2))
    system = md.SkewSystem(md.ThetaDriver(), (md.TimesMap(2), md.TimesMap(3)))
    _, traj = md.iterate_random(system, None, None, 1_000_000, seed=10_011)
    freq = float(np.mean(traj < 0.4))
    ok = (abs(fit1.slope - 1.0) <= 0.05 and abs(fit2.slope - 2.0) <= 0.10
          and abs(freq - 0.4) <= 0.01)
    report("criterion 10 (correlation dimension, selector frequency)", ok,
           f"circle slope {fit1.slope:.4f} (gate 1 +- 0.05); 2-torus slope "
           f"{fit2.slope:.4f} (gate 2 +- 0.10); selector frequency {freq:.4f} "
           f"(gate 0.4 +- 0.01)")


def test_criterion_11_determinism():
    checks = []
    for name, kind in [("lcs_fair_coin", "lcs_law"), ("random_toral", "random_orbit_law")]:
        with open(CONFIG_DIR / f"{name}.yaml") as fh:
            cfg = yaml.safe_load(fh)
        # shrink for runtime; determinism is a property of the machinery
        cfg["trials"] = 4
        cfg["schedule"] = {"start_pow2": 8, "stop_pow2": 12}
        plan = harness.plan_from_config(cfg)
        csv_a = harness.run(plan, threads=1).to_csv()
        csv_b = harness.run(plan, threads=3).to_csv()
        csv_c = harness.run(plan, threads=1).to_csv()
        checks.append(csv_a == csv_b == csv_c)
    ok = all(checks)
    report("criterion 11 (byte-identical reruns, any thread count)", ok,
           f"lcs and random-orbit configs re-run identically: {checks}")
