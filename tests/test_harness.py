import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from matchdim import cli, harness
from matchdim.harness import (ExperimentPlan, fit_slope, plan_from_config, run,
                              theoretical_slope_limit)
from oracles import scrabble_crosscheck

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def small_plan(**overrides):
    base = dict(kind="lcs_law", schedule=(64, 128, 256, 512), trials=4,
                master_seed=7, source={"kind": "iid", "probs": [0.5, 0.5]},
                encoder={"kind": "identity"})
    base.update(overrides)
    return ExperimentPlan(**base)


class TestFitSlope:
    def test_exact_on_affine(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_slope(xs, 2.0 * xs + 1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-14)
        assert fit.intercept == pytest.approx(1.0, abs=1e-13)
        assert fit.stderr == pytest.approx(0.0, abs=1e-13)

    def test_two_points_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([1.0, 2.0], [1.0, 2.0])

    def test_degenerate_xs_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_noisy_synthetic_slope(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 10, 40)
        ys = 3.0 * xs + 0.5 + rng.normal(0, 0.3, 40)
        fit = fit_slope(xs, ys)
        assert abs(fit.slope - 3.0) <= 3 * fit.stderr


class TestPlanParsing:
    def test_pow2_schedule_expansion(self):
        plan = plan_from_config({"experiment": "lcs_law", "seed": 1, "trials": 2,
                                 "schedule": {"start_pow2": 3, "stop_pow2": 5},
                                 "source": {"kind": "iid", "probs": [0.5, 0.5]}})
        assert plan.schedule == (8, 16, 32)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            plan_from_config({"experiment": "lcs_law", "schedule": [2, 4],
                              "typo_key": 1})

    @pytest.mark.parametrize("kind, key, value", [
        ("lcs_law", "system", {"kind": "times_m", "m": 2}),
        ("lcs_law", "sample_length", 1000),
        ("scrabble_law", "expect_collapse", False),
        ("entropy_check", "observation", {"kind": "identity"}),
        ("orbit_law", "source", {"kind": "iid", "probs": [0.5, 0.5]}),
        ("orbit_law", "encoder", {"kind": "identity"}),
        ("random_orbit_law", "sample_length", 1000),
    ])
    def test_keys_the_kind_does_not_read_rejected(self, kind, key, value):
        with pytest.raises(ValueError, match=rf"{kind} does not read config keys: \['{key}'\]"):
            plan_from_config({"experiment": kind, "schedule": [64, 128, 256], key: value})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="nope", schedule=(2, 4), trials=1, master_seed=0)

    def test_committed_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            with open(path) as fh:
                plan = plan_from_config(yaml.safe_load(fh))
            assert plan.trials >= 1

    def test_integral_floats_are_integers(self):
        cfg = yaml.safe_load("experiment: entropy_check\nschedule: [1.0]\ntrials: 2.0\n"
                             "sample_length: 1.0e+6\nsource: {kind: iid, probs: [0.5, 0.5]}\n")
        plan = plan_from_config(cfg)
        assert (plan.schedule, plan.trials, plan.sample_length) == ((1,), 2, 1_000_000)
        assert all(type(v) is int for v in (plan.schedule[0], plan.trials, plan.sample_length))


class TestStrictSpecs:
    """A misspelled key in a nested spec is rejected, never silently defaulted."""

    def test_system_keys(self):
        with pytest.raises(ValueError, match=r"unrecognized system keys: \['epsillon'\]"):
            harness._build_system({"kind": "perturbed_times_m", "epsillon": 0.5})
        with pytest.raises(ValueError, match="unrecognized system keys"):
            harness._build_system({"kind": "times_m", "m": 2, "q": 0.5})

    def test_observation_keys(self):
        with pytest.raises(ValueError, match=r"unrecognized observation keys: \['idx'\]"):
            harness._build_observation({"kind": "coordinate_projection", "idx": 1})

    def test_encoder_keys(self):
        plan = small_plan(encoder={"kind": "zero_inflation", "epsilon": 0.3,
                                   "shared": False})
        with pytest.raises(ValueError, match=r"unrecognized encoder keys: \['shared'\]"):
            harness._encoder_for_trial(plan, 0)

    def test_closed_form_reads_the_encoder_through_the_same_parser(self):
        plan = small_plan(encoder={"kind": "zero_inflation", "epsilon": 0.3,
                                   "shared": False})
        with pytest.raises(ValueError, match=r"unrecognized encoder keys: \['shared'\]"):
            theoretical_slope_limit(plan)

    def test_crosscheck_reads_the_encoder_through_the_same_parser(self):
        plan = small_plan(kind="scrabble_law", trials=2,
                          encoder={"kind": "stretch", "weights": [1, 2], "weight": 3})
        with pytest.raises(ValueError, match=r"unrecognized encoder keys: \['weight'\]"):
            scrabble_crosscheck(plan, n_raw=64)

    def test_nested_keys_rejected_when_the_plan_is_made(self):
        cfg = {"experiment": "random_orbit_law", "schedule": [64, 128, 256],
               "system": {"kind": "perturbed_times_m", "epsillon": 0.5}}
        with pytest.raises(ValueError, match=r"unrecognized system keys: \['epsillon'\]"):
            plan_from_config(cfg)

    def test_iid_source_keys(self):
        with pytest.raises(ValueError, match=r"unrecognized source keys: \['initial'\]"):
            harness._build_source({"kind": "iid", "probs": [0.5, 0.5],
                                   "initial": "stationary"})


class TestTheoryLimits:
    def test_fair_coin(self):
        plan = small_plan()
        assert theoretical_slope_limit(plan) == pytest.approx(2 / math.log(2))

    def test_markov(self):
        plan = small_plan(source={"kind": "markov",
                                  "transition": [[0.9, 0.1], [0.3, 0.7]],
                                  "initial": "stationary"})
        lam = (1.3 + math.sqrt(1.69 - 4 * 0.396)) / 2
        assert theoretical_slope_limit(plan) == pytest.approx(2 / -math.log(lam), rel=1e-9)

    def test_zero_inflation(self):
        plan = small_plan(encoder={"kind": "zero_inflation", "epsilon": 0.3})
        assert theoretical_slope_limit(plan) == pytest.approx(2 / (0.7 * math.log(2)))

    def test_zero_inflation_needs_iid(self):
        plan = small_plan(source={"kind": "markov",
                                  "transition": [[0.9, 0.1], [0.3, 0.7]],
                                  "initial": "stationary"},
                          encoder={"kind": "zero_inflation", "epsilon": 0.3})
        with pytest.raises(ValueError):
            theoretical_slope_limit(plan)

    def test_scrabble(self):
        plan = small_plan(kind="scrabble_law",
                          source={"kind": "markov",
                                  "transition": [[0.5, 0.5], [0.5, 0.5]],
                                  "initial": "stationary"},
                          encoder={"kind": "stretch", "weights": [1, 2]})
        p = max(r.real for r in np.roots([1.0, -0.25, -0.25, 0.0]))
        assert theoretical_slope_limit(plan) == pytest.approx(2 / -math.log(p), rel=1e-9)

    def test_orbit_kinds(self):
        doubling = ExperimentPlan(kind="orbit_law", schedule=(4, 8, 16), trials=1,
                                  master_seed=0, system={"kind": "times_m", "m": 2})
        assert theoretical_slope_limit(doubling) == 2.0
        toral = ExperimentPlan(kind="random_orbit_law", schedule=(4, 8, 16),
                               trials=1, master_seed=0,
                               system={"kind": "toral_pair", "q": 0.5})
        assert theoretical_slope_limit(toral) == 1.0
        noniid = ExperimentPlan(kind="random_orbit_law", schedule=(4, 8, 16),
                                trials=1, master_seed=0,
                                system={"kind": "noniid_2x3x"})
        assert theoretical_slope_limit(noniid) == 2.0

    def test_random_orbit_law_through_a_lipschitz_observation_is_estimated(self):
        plan = plan_from_config({"experiment": "random_orbit_law",
                                 "schedule": [64, 128, 256],
                                 "system": {"kind": "toral_pair"},
                                 "observation": {"kind": "lipschitz_affine",
                                                 "matrix": [[1.0, 0.0]]}})
        assert theoretical_slope_limit(plan) is None

    def test_orbit_law_rejects_a_random_system_under_any_observation(self):
        plan = ExperimentPlan(kind="orbit_law", schedule=(64, 128), trials=1,
                              master_seed=0, system={"kind": "noniid_2x3x"},
                              observation={"kind": "collapse",
                                           "interval": [0.0, 0.5], "value": 0.25},
                              expect_collapse=True)
        with pytest.raises(ValueError, match="orbit_law needs a deterministic map system"):
            theoretical_slope_limit(plan)

    @pytest.mark.parametrize("observation, target", [
        ({"kind": "identity"}, 1.0),
        ({"kind": "coordinate_projection", "index": 1}, 2.0),
    ])
    def test_toral_automorphism_and_its_projection(self, observation, target):
        plan = plan_from_config({"experiment": "orbit_law", "seed": 3, "trials": 2,
                                 "schedule": {"start_pow2": 6, "stop_pow2": 8},
                                 "system": {"kind": "toral_automorphism",
                                            "matrix": [[2, 1], [1, 1]]},
                                 "observation": observation})
        assert theoretical_slope_limit(plan) == target
        result = run(plan)
        assert result.theory_limit == target and len(result.rows) == 6
        assert result.fit is not None and np.isfinite(result.fit.slope)
        assert all(v > 0 for _, _, v in result.rows)

    # Lebesgue on the 2-torus seen through one coordinate is Lebesgue on the circle
    @pytest.mark.parametrize("index", [0, 1])
    def test_random_toral_pair_through_a_coordinate(self, index):
        plan = plan_from_config({"experiment": "random_orbit_law", "seed": 3, "trials": 2,
                                 "schedule": {"start_pow2": 6, "stop_pow2": 8},
                                 "system": {"kind": "toral_pair"},
                                 "observation": {"kind": "coordinate_projection",
                                                 "index": index}})
        assert theoretical_slope_limit(plan) == 2.0
        result = run(plan)
        assert result.theory_limit == 2.0 and len(result.rows) == 6
        assert result.fit is not None and np.isfinite(result.fit.slope)

    # the target of each committed config, None where it is estimated or collapses
    COMMITTED_TARGETS = {
        "entropy_markov": 0.20728471264587625,
        "entropy_markov_dirac": 0.20728471264587625,
        "entropy_zero_inflation": 0.48520302639196167,
        "lcs_fair_coin": 2.8853900817779268,
        "lcs_markov": 9.648564886773807,
        "lcs_markov_dirac": 9.648564886773807,
        "orbit_collapse": None,
        "orbit_doubling": 2.0,
        "random_noniid": 2.0,
        "random_perturbed": None,
        "random_toral": 1.0,
        "scrabble": 4.4875174417037265,
        "zero_inflation": 4.121985831111324,
        "zero_inflation_baseline": 2.8853900817779268,
    }

    def test_committed_config_targets_are_pinned(self):
        targets = {}
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            with open(path) as fh:
                targets[path.stem] = theoretical_slope_limit(plan_from_config(yaml.safe_load(fh)))
        assert targets.keys() == self.COMMITTED_TARGETS.keys()
        for name, target in self.COMMITTED_TARGETS.items():
            assert targets[name] == (None if target is None
                                     else pytest.approx(target, rel=1e-12)), name


class TestRun:
    def test_lcs_rows_and_gate(self):
        plan = small_plan(tolerance_frac=0.9)
        result = run(plan)
        assert len(result.rows) == plan.trials * len(plan.schedule)
        assert result.fit is not None and np.isfinite(result.fit.slope)
        assert result.passed

    def test_deterministic_csv_across_threads(self):
        plan = small_plan()
        csv1 = run(plan, threads=1).to_csv()
        csv2 = run(plan, threads=3).to_csv()
        csv3 = run(plan, threads=1).to_csv()
        assert csv1 == csv2 == csv3

    def test_orbit_run_small(self):
        plan = ExperimentPlan(kind="orbit_law", schedule=(256, 512, 1024), trials=3,
                              master_seed=5, system={"kind": "times_m", "m": 2},
                              observation={"kind": "identity"})
        result = run(plan)
        assert result.fit is not None
        assert not result.collapse_detected
        stats = np.array([s for _, _, s in result.rows])
        assert np.all(stats > 0)

    def test_collapse_detection(self):
        plan = ExperimentPlan(kind="orbit_law", schedule=(64, 128), trials=2,
                              master_seed=6, system={"kind": "times_m", "m": 2},
                              observation={"kind": "collapse",
                                           "interval": [0.0, 0.5], "value": 0.25},
                              expect_collapse=True)
        result = run(plan)
        assert result.collapse_detected
        assert result.passed
        assert result.theory_limit is None

    # two points allow no slope: the verdict is whether any trial collapsed,
    # here with no trial collapsed and with one of four
    @pytest.mark.parametrize("hi, collapses", [(0.001, 0), (0.01, 1)])
    def test_two_point_collapse_plan_gives_a_verdict(self, hi, collapses):
        plan = ExperimentPlan(kind="orbit_law", schedule=(64, 128), trials=4,
                              master_seed=3, system={"kind": "times_m", "m": 2},
                              observation={"kind": "collapse",
                                           "interval": [0.0, hi], "value": hi / 2},
                              expect_collapse=True)
        result = run(plan)
        stats = np.array([s for _, _, s in result.rows]).reshape(4, 2)
        assert (stats == 0.0).any(axis=1).sum() == collapses
        assert result.fit is None and result.details == {}
        assert result.passed == result.collapse_detected == (collapses > 0)

    def test_orbit_with_a_flat_observed_axis(self):
        # the first observed coordinate is identically 0, so the cube frame
        # of the trials has an axis of no width ahead of the one that varies
        plan = ExperimentPlan(kind="orbit_law", schedule=(256, 512, 1024, 2048),
                              trials=2, master_seed=5, system={"kind": "times_m", "m": 2},
                              observation={"kind": "lipschitz_affine",
                                           "matrix": [[0.0], [1.0]]})
        result = run(plan)
        assert len(result.rows) == 8 and result.fit is not None
        assert np.isfinite(result.fit.slope)
        assert all(v > 0 for _, _, v in result.rows)
        assert result.theory_limit == pytest.approx(2.0 / result.details["estimated_dimension"])

    def test_dimension_of_an_orbit_laid_into_the_plane(self):
        # the radius window follows the system's dimension, not the ambient
        # one, so the estimate on the line sees pairs at the scale of a line;
        # the second observed coordinate is identically 0, so the cube frame
        # of the trials has an axis of no width
        plan = ExperimentPlan(kind="orbit_law", schedule=(256, 512, 1024, 2048),
                              trials=2, master_seed=5, system={"kind": "times_m", "m": 2},
                              observation={"kind": "lipschitz_affine",
                                           "matrix": [[1.0], [0.0]]})
        result = run(plan)
        assert len(result.rows) == 8 and result.fit is not None
        assert result.details["estimated_dimension"] == pytest.approx(1.0, abs=0.02)
        assert result.theory_limit == pytest.approx(2.0 / result.details["estimated_dimension"])

    def test_entropy_check_structure(self):
        plan = ExperimentPlan(kind="entropy_check", schedule=(1,), trials=1,
                              master_seed=9, sample_length=20_000,
                              source={"kind": "iid", "probs": [0.5, 0.5]},
                              encoder={"kind": "identity"},
                              tolerance_frac=0.10)
        result = run(plan)
        assert result.theory_limit == pytest.approx(math.log(2))
        assert result.details["plateau_estimates"]
        assert result.passed

    def test_entropy_details_record_each_trials_plateau_k_and_table_length(self):
        plan = ExperimentPlan(kind="entropy_check", schedule=(1,), trials=3,
                              master_seed=4, sample_length=5_000,
                              source={"kind": "markov",
                                      "transition": [[0.9, 0.1], [0.3, 0.7]]},
                              encoder={"kind": "identity"}, tolerance_frac=0.5)
        result = run(plan)
        ks, lengths = result.details["plateau_k"], result.details["plateau_rows"]
        assert len(ks) == len(lengths) == plan.trials
        for trial, (k, length, value) in enumerate(
                zip(ks, lengths, result.details["plateau_estimates"])):
            rows = [(n, stat) for t, n, stat in result.rows if t == trial]
            assert [n for n, _ in rows] == list(range(2, length + 2))
            assert (k, value) in rows
        assert len(set(lengths)) > 1  # the table length varies with the sample

    def test_plateau_slope_is_the_fit_of_minus_log_collision_from_k_5(self):
        with open(CONFIG_DIR / "entropy_markov.yaml") as fh:
            result = run(plan_from_config(yaml.safe_load(fh)))
        (slope,), (k,), (value,) = (result.details[key] for key in
                                    ("plateau_slope", "plateau_k", "plateau_estimates"))
        ks = np.arange(5, k + 1)
        values = [stat for _, n, stat in result.rows if 5 <= n <= k]
        assert slope == pytest.approx(fit_slope(ks, ks * values).slope, rel=1e-12)
        H2 = result.theory_limit
        assert (value - H2) / H2 == pytest.approx(0.0358, abs=5e-5)
        assert (slope - H2) / H2 == pytest.approx(-0.0005, abs=5e-5)  # no 1/k term

    def test_plateau_slope_is_none_under_three_rows(self):
        with open(CONFIG_DIR / "entropy_zero_inflation.yaml") as fh:
            result = run(plan_from_config(yaml.safe_load(fh)))
        assert result.details["plateau_k"] == [3, 5]
        assert result.details["plateau_slope"] == [None, None]

    @pytest.mark.parametrize("kind", ["lcs_law", "entropy_check"])
    def test_the_source_is_built_as_often_for_one_trial_as_for_five(self, kind, monkeypatch):
        calls, build = [], harness._build_source
        monkeypatch.setattr(harness, "_build_source",
                            lambda spec: calls.append(spec) or build(spec))
        extra = {"schedule": (1,), "sample_length": 500} if kind == "entropy_check" else {}
        counts = []
        for trials in (1, 5):
            calls.clear()
            run(small_plan(kind=kind, trials=trials, **extra))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @staticmethod
    def markov_config(kind):
        cfg = {"experiment": kind, "schedule": [64, 128, 256], "trials": 2, "seed": 7,
               "source": {"kind": "markov", "transition": [[0.9, 0.1], [0.4, 0.6]]}}
        if kind == "entropy_check":
            cfg.update(schedule=[1], sample_length=500)
        return cfg

    @pytest.mark.parametrize("kind", ["lcs_law", "entropy_check"])
    def test_the_plan_and_the_run_each_build_the_source_once(self, kind, monkeypatch):
        calls, build = [], harness._build_source
        monkeypatch.setattr(harness, "_build_source",
                            lambda spec: calls.append(spec) or build(spec))
        plan = plan_from_config(self.markov_config(kind))
        assert len(calls) == 1
        run(plan)
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", ["lcs_law", "entropy_check"])
    def test_the_target_is_computed_once_per_experiment(self, kind, monkeypatch):
        calls, closed_form = [], harness.closed_form_entropy
        monkeypatch.setattr(harness, "closed_form_entropy",
                            lambda plan, src: calls.append(plan) or closed_form(plan, src))
        plan = plan_from_config(self.markov_config(kind))
        result = run(plan)
        assert len(calls) == 1
        # a plan built directly resolves the same target in run
        direct = harness.ExperimentPlan(**{f: getattr(plan, f) for f in (
            "kind", "schedule", "trials", "master_seed", "source", "sample_length")})
        assert run(direct).theory_limit == result.theory_limit
        assert len(calls) == 2

    def test_entropy_gate_reads_tolerance_abs(self):
        with open(CONFIG_DIR / "entropy_markov.yaml") as fh:
            cfg = yaml.safe_load(fh)
        del cfg["tolerance_frac"]
        cfg["sample_length"] = 100_000  # plateau 0.2177 against 0.2073
        assert run(plan_from_config({**cfg, "tolerance_abs": 0.05})).passed
        assert not run(plan_from_config({**cfg, "tolerance_abs": 1e-9})).passed

    @pytest.mark.parametrize("plan", [
        small_plan(),
        ExperimentPlan(kind="orbit_law", schedule=(256, 512, 1024), trials=3, master_seed=5,
                       system={"kind": "times_m", "m": 2})], ids=["lcs", "orbit"])
    def test_slope_stderr_over_trials(self, plan):
        result = run(plan)
        table = np.zeros((plan.trials, len(plan.schedule)))
        for trial, n, stat in result.rows:
            table[trial, plan.schedule.index(n)] = stat
        ys = -np.log(table) if plan.kind == "orbit_law" else table
        slopes = np.polyfit(np.log(plan.schedule), ys.T, 1)[0]
        # least squares is linear in the data, so the gated slope is the mean trial slope
        assert abs(slopes.mean() - result.fit.slope) < 1e-12
        assert result.details["slope_stderr_trials"] == pytest.approx(
            slopes.std(ddof=1) / math.sqrt(plan.trials), rel=1e-9)
        assert result.details["slope_stderr_residual"] == result.fit.stderr
        assert f"(stderr {result.details['slope_stderr_trials']:.2g})" in result.summary()

    def test_one_clean_trial_prints_no_stderr(self):
        result = run(small_plan(trials=1))
        assert "slope_stderr_trials" not in result.details
        assert "stderr" not in result.summary()

    def test_csv_schema(self):
        result = run(small_plan())
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "experiment,trial,n,statistic,log_n,theory_limit"
        first = lines[1].split(",")
        assert first[0] == "lcs_law"
        assert int(first[1]) == 0 and int(first[2]) == 64
        assert float(first[4]) == pytest.approx(math.log(64))


def _csv_digest(name: str, **overrides):
    with open(CONFIG_DIR / f"{name}.yaml") as fh:
        cfg = yaml.safe_load(fh)
    cfg.update(overrides)
    result = run(plan_from_config(cfg))
    return hashlib.sha256(result.to_csv().encode()).hexdigest(), result.passed


class TestOutputGuard:
    """Configs keep their exact output bytes through any kernel or engine change.

    The `random_perturbed` and `lcs_markov` benchmark references, the
    dimension estimate of the full `random_perturbed` plan, orbit configs
    (`orbit_collapse` whole), `zero_inflation`, whose masked matcher no
    benchmark workload runs, and the scrabble and entropy routes through `run`.
    """

    def test_random_perturbed_matches_benchmark_reference(self):
        ref = json.loads(REFERENCES.read_text())["random_perturbed"]
        digest, passed = _csv_digest("random_perturbed", seed=ref["seed"],
                                     trials=ref["trials"])
        assert (digest, passed) == (ref["csv_sha256"], ref["passed"])

    def test_random_perturbed_dimension_estimate(self):
        with open(CONFIG_DIR / "random_perturbed.yaml") as fh:
            plan = plan_from_config(yaml.safe_load(fh))
        assert harness.estimate_orbit_dimension(plan).slope == 1.002018055522419

    def test_lcs_markov_matches_benchmark_reference(self):
        ref = json.loads(REFERENCES.read_text())["lcs_markov"]
        digest, passed = _csv_digest("lcs_markov", seed=ref["seed"], trials=ref["trials"])
        assert (digest, passed) == (ref["csv_sha256"], ref["passed"])

    # one trial each, schedule cut to 2^10..2^14
    @pytest.mark.parametrize("name, digest, passed", [
        ("orbit_doubling",
         "f61d33788f320b3bab09a8bfbcc74fbd42bb6936fd340ce43df17b40a9086831", False),
        ("random_noniid",
         "9dc71162ccf28f5855c830d24393bc10980d768c2dfa13bcf21e80b4292a2299", False),
        ("random_toral",
         "5dd4ed1899e1cdcb19f101ca786048dcda942ff299689c39f31f9b8500022df1", True),
    ])
    def test_cut_orbit_configs_are_pinned(self, name, digest, passed):
        cut = {"start_pow2": 10, "stop_pow2": 14}
        assert _csv_digest(name, trials=1, schedule=cut) == (digest, passed)

    # the one config whose trials find coincident points (`_common_point`)
    def test_orbit_collapse_is_pinned(self):
        assert _csv_digest("orbit_collapse") == (
            "e94568b87ece3253c09556e20469c2085e7c981b4d42b68d88f1cdbdf5e3ed9a", True)

    def test_zero_inflation_is_pinned(self):
        assert _csv_digest("zero_inflation", trials=3) == (
            "e1ccdf64dfebc6b773f39ba025960504ad1ad4c668604311c04a25d80aa4b73a", True)

    # trial 5 is the one whose match passes the 62-symbol span (66 at n = 2^16)
    def test_full_zero_inflation_run_is_pinned(self):
        assert _csv_digest("zero_inflation") == (
            "1541c1a0d6a589b64dfc52347aa4e1af5e9e07caa2b322063d03a778719f5d5c", True)

    @pytest.mark.parametrize("name, overrides, digest, passed", [
        ("scrabble", {"trials": 3},
         "2cb6494a19ec8750ce535fe902e45fe3c3b4f3b8d9466afbb1656f2b5d350be4", True),
        ("entropy_zero_inflation", {"sample_length": 100_000},
         "760e47d47ac298f09bbeb39742ab1ad4af5d0fa95356bb14c98650332c44b100", True),
        # the plateau misses the 5 % band at this length: pins the frac gate's verdict
        ("entropy_markov_dirac", {"sample_length": 100_000},
         "425bfc73b0b8c2ed27c0ccefd1250154b8529c07a802ed0285e98be0e0023daa", False),
    ])
    def test_scrabble_and_entropy_configs_are_pinned(self, name, overrides, digest, passed):
        assert _csv_digest(name, **overrides) == (digest, passed)


class TestScrabbleCrosscheck:
    def test_discrepancy_within_boundary_slack(self):
        plan = ExperimentPlan(kind="scrabble_law", schedule=(64, 128, 256), trials=6,
                              master_seed=11,
                              source={"kind": "markov",
                                      "transition": [[0.5, 0.5], [0.5, 0.5]],
                                      "initial": "stationary"},
                              encoder={"kind": "stretch", "weights": [1, 2]})
        diffs = scrabble_crosscheck(plan, n_raw=256)
        assert all(0 <= d <= 2 for d in diffs)


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = {"experiment": "lcs_law", "seed": 4, "trials": 3,
               "schedule": [64, 128, 256]}
        if not overrides.get("experiment", "lcs_law").endswith("orbit_law"):
            cfg.update(source={"kind": "iid", "probs": [0.5, 0.5]},
                       encoder={"kind": "identity"})
        cfg.update(overrides)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_run_writes_csv_and_exits_zero(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out.csv"
        code = cli.main(["lcs-law", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("experiment,trial,n,statistic,log_n,theory_limit")

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["lcs-law", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["lcs-law", "--config", str(cfg), "--out", str(out2),
                         "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["lcs-law", "--config", str(cfg), "--out", str(out1)])
        cli.main(["lcs-law", "--config", str(cfg), "--out", str(out2),
                  "--seed", "5"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli.main(["orbit-law", "--config", str(cfg)]) == 2

    def test_nested_config_error_exits_two_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "experiment": "random_orbit_law", "seed": 1, "trials": 1,
            "schedule": [64, 128, 256],
            "system": {"kind": "perturbed_times_m", "epsillon": 0.5}}))
        assert cli.main(["random-orbit-law", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "epsillon" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("override, wording", [
        ({"schedule": 5}, "schedule must be a list"),
        ({"source": [1, 2]}, "source must be a mapping"),
        ({"encoder": {"kind": "stretch", "weights": [1, [2]]}},
         "stretch weights entry must be an integer, got [2]"),
        ({"schedule": [64, 128]}, "at least three schedule points"),
        ({"tolerance_frac": "abc"}, "tolerance_frac must be a nonnegative number"),
        ({"tolerance_abs": -0.25}, "tolerance_abs must be a nonnegative number"),
        ({"theory": "atuo"}, "unrecognized config keys: ['theory']"),
        # specs that do not fit together, caught when the target is resolved
        ({"encoder": {"kind": "stretch", "weights": [1, 2, 3]}},
         "3 weights for an alphabet of 2 symbols"),
        ({"encoder": {"kind": "stretch", "weights": [1]}}, "missing weight"),
        ({"source": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]},
          "encoder": {"kind": "zero_inflation", "epsilon": 0.3}},
         "zero-inflation closed form needs an i.i.d. source"),
        ({"experiment": "orbit_law", "system": {"kind": "perturbed_times_m"}},
         "orbit_law needs a deterministic map system"),
        ({"experiment": "scrabble_law",
          "source": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]},
          "encoder": {"kind": "stretch", "weights": [1]}}, "missing weight"),
        # integers and flags are never coerced from another type
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"seed": 1.9}, "seed must be an integer, got 1.9"),
        ({"schedule": [64.9, 128, 256.5]}, "schedule entry must be an integer, got 64.9"),
        ({"schedule": {"start_pow2": 6.5, "stop_pow2": 8}},
         "schedule start_pow2 must be an integer"),
        ({"sample_length": "1e6"}, "sample_length must be an integer, got '1e6'"),
        ({"expect_collapse": "false"}, "expect_collapse must be true or false, got 'false'"),
        ({"encoder": {"kind": "zero_inflation", "epsilon": 0.3, "shared_mask": "false"}},
         "unrecognized encoder keys: ['shared_mask']"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2.5}},
         "times_m m must be an integer, got 2.5"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "coordinate_projection", "index": False}},
         "projection index must be an integer, got False"),
        # nested integers and numbers are checked entry by entry, not coerced
        ({"encoder": {"kind": "stretch", "weights": [1.9, 2]}},
         "stretch weights entry must be an integer, got 1.9"),
        ({"encoder": {"kind": "stretch", "weights": "12"}},
         "stretch weights must be a list, got '12'"),
        ({"experiment": "orbit_law",
          "system": {"kind": "toral_automorphism", "matrix": [[2.7, 1], [1, 1]]}},
         "toral_automorphism matrix entry must be an integer, got 2.7"),
        ({"experiment": "random_orbit_law", "system": {
            "kind": "toral_pair", "matrices": [[[2, 1], [1, 1]], [[3, 2.5], [1, 1]]]}},
         "toral_pair matrices entry must be an integer, got 2.5"),
        ({"experiment": "random_orbit_law", "system": {"kind": "toral_pair", "q": True}},
         "toral_pair q must be a number, got True"),
        ({"experiment": "random_orbit_law", "system": {"kind": "toral_pair", "q": "0.5"}},
         "toral_pair q must be a number, got '0.5'"),
        ({"experiment": "random_orbit_law",
          "system": {"kind": "perturbed_times_m", "epsilon": "1e-3"}},
         "perturbed_times_m epsilon must be a number, got '1e-3'"),
        ({"encoder": {"kind": "zero_inflation", "epsilon": "0.3"}},
         "zero_inflation epsilon must be a number, got '0.3'"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": ["0.0", "0.5"], "value": 0.25}},
         "collapse interval entry must be a number, got '0.0'"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": [0.0, 0.5], "value": "0.25"}},
         "collapse value must be a number, got '0.25'"),
        ({"source": {"kind": "iid", "probs": ["0.5", "0.5"]}},
         "iid probs entry must be a number, got '0.5'"),
        ({"source": {"kind": "markov", "transition": [["0.9", 0.1], [0.3, 0.7]]}},
         "markov transition entry must be a number, got '0.9'"),
        ({"source": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]],
                     "initial": [1, "0"]}},
         "markov initial entry must be a number, got '0'"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "lipschitz_affine", "matrix": [["1.0"], [0.0]]}},
         "lipschitz_affine matrix entry must be a number, got '1.0'"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "lipschitz_affine", "matrix": [[1.0], [0.0]],
                          "offset": [0.0, True]}},
         "lipschitz_affine offset entry must be a number, got True"),
        # both windows of a pair see one mask: there is no option to unshare it
        ({"encoder": {"kind": "zero_inflation", "epsilon": 0.3, "shared_mask": True}},
         "unrecognized encoder keys: ['shared_mask']"),
        ({"encoder": {"kind": "zero_inflation", "epsilon": 0.3, "shared_mask": False}},
         "unrecognized encoder keys: ['shared_mask']"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": [0.1], "value": 0.25}},
         "collapse interval must have two entries, got 1"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": [0.0, 0.5, 0.9], "value": 0.25}},
         "collapse interval must have two entries, got 3"),
        # an observation that does not fit the system, caught on one observed point
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "coordinate_projection", "index": 3}},
         "projection index 3 out of range"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "lipschitz_affine", "matrix": [[1.0, 0.0]]}},
         "affine observation dimension mismatch"),
        ({"experiment": "random_orbit_law", "system": {"kind": "toral_pair"},
          "observation": {"kind": "collapse", "interval": [0.0, 0.5], "value": 0.25},
          "expect_collapse": True},
         "collapse observation supports 1-d orbits"),
        # a collapse value off the torus, on an interval that misses the origin
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": [0.2, 0.5], "value": 1.5},
          "expect_collapse": True},
         "torus coordinates must lie in [0, 1)"),
        # a collapse interval off the torus would observe every point unchanged
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": [1.2, 1.5], "value": 1.5},
          "expect_collapse": True},
         "collapse interval [1.2, 1.5] misses the torus [0, 1)"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "observation": {"kind": "collapse", "interval": [-0.5, -0.1], "value": 1.5},
          "expect_collapse": True},
         "collapse interval [-0.5, -0.1] misses the torus [0, 1)"),
        # the label is the first CSV field, written unquoted
        ({"label": "a,b"}, "label must be a string without commas or line breaks, got 'a,b'"),
        ({"label": "a\nb"}, "without commas or line breaks, got 'a\\nb'"),
        ({"label": "a\rb"}, "without commas or line breaks, got 'a\\rb'"),
        ({"label": 7}, "label must be a string without commas or line breaks, got 7"),
        ({"label": ["l"]}, "without commas or line breaks, got ['l']"),
        # a key the kind never reads is rejected, not ignored
        ({"system": {"kind": "times_m", "m": 2}},
         "lcs_law does not read config keys: ['system']"),
        ({"experiment": "orbit_law", "system": {"kind": "times_m", "m": 2},
          "source": {"kind": "iid", "probs": [0.5, 0.5]}},
         "orbit_law does not read config keys: ['source']"),
    ])
    def test_config_type_error_exits_two(self, tmp_path, capsys, override, wording):
        cfg = self._write_config(tmp_path, **override)
        command = override.get("experiment", "lcs_law").replace("_", "-")
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and wording in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "# comments only\n", "- lcs_law\n- 4\n", "lcs_law\n"])
    def test_empty_or_non_mapping_config_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["lcs-law", "--config", str(cfg)]) == 2
        assert "must be a YAML mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("text, wording", [
        ("schedule: [1, 2\n", "expected ',' or ']'"),
        (None, "No such file or directory"),
    ], ids=["unparsable", "missing"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, text, wording):
        cfg = tmp_path / "cfg.yaml"
        if text is not None:
            cfg.write_text(text)
        assert cli.main(["lcs-law", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and wording in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_unwritable_out_exits_two_before_any_trial(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_config(tmp_path)
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **kw: calls.append(a))
        out = tmp_path / "missing_dir" / "x.csv"
        assert cli.main(["lcs-law", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "No such file or directory" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert calls == [] and not out.parent.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        cfg = self._write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["lcs-law", "--config", str(cfg), "--threads", threads])
        assert exit_info.value.code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
