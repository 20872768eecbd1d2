"""Monte Carlo experiment orchestration.

An ExperimentPlan names a statistic family, the stochastic ingredients, an
increasing n schedule, a trial count and a master seed. `run` samples
independent trial pairs, computes the statistic along the schedule, fits the
slope of the trial-averaged statistic against log n, and gates it against
the theoretical limit supplied by the entropy/geometry modules:

- lcs_law / scrabble_law: longest-common-substring length (encoded pair)
  versus log n; limit 2 / H2 with H2 the closed-form collision entropy rate
  of the encoded source.
- orbit_law / random_orbit_law: -log of the shortest distance between two
  independent (random) orbits versus log n; limit 2 / C with C the
  correlation dimension of the relevant invariant measure (declared for
  Lebesgue systems, estimated empirically otherwise).
- entropy_check: each trial's block-entropy plateau against H2 itself.

Every kind runs one path: `theoretical_slope_limit` resolves the target
before any trial (`plan_from_config` too, so specs that do not fit together
are a config error), then one gate compares the slope or plateaus with it.

Per-trial streams are derived from (master seed, trial index, role) so runs
are reproducible and thread-count independent; rows are emitted in sorted
trial order, making CSV output byte-identical across thread counts.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, encoders, entropy, geometry, matching, sources
from .geometry import SlopeFit, fit_slope
from .seeding import spawn_seed

EXPERIMENT_KINDS = ("lcs_law", "scrabble_law", "orbit_law",
                    "random_orbit_law", "entropy_check")

CSV_HEADER = "experiment,trial,n,statistic,log_n,theory_limit"

# role constants for per-trial stream derivation
_ROLE_X, _ROLE_Y, _ROLE_MASK_X, _ROLE_MASK_Y = 0, 1, 2, 3
_DIM_ESTIMATE_KEY = 999_983
_DIM_ESTIMATE_POINTS, _DIM_ESTIMATE_BURN_IN = 100_000, 100  # observed after burn-in


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one experiment; see configs/ for examples."""

    kind: str
    schedule: tuple[int, ...]
    trials: int
    master_seed: int
    source: dict | None = None
    encoder: dict | None = None
    system: dict | None = None
    observation: dict | None = None
    sample_length: int = 1_000_000
    theory: float | str = "auto"
    tolerance_frac: float | None = None
    tolerance_abs: float | None = None
    expect_collapse: bool = False
    label: str = ""

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        sched = tuple(int(n) for n in self.schedule)
        if not sched or any(b <= a for a, b in zip(sched, sched[1:])) or sched[0] < 1:
            raise ValueError("schedule must be nonempty strictly increasing")
        # an expected orbit collapse is gated on zero distances, not on a slope
        if len(sched) < 3 and self.kind != "entropy_check" and not (
                self.expect_collapse and self.kind.endswith("orbit_law")):
            raise ValueError("a slope fit needs at least three schedule points")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("tolerance_frac", "tolerance_abs"):
            tol = getattr(self, name)
            if tol is not None and not (_is_number(tol) and tol >= 0):
                raise ValueError(f"{name} must be a nonnegative number, got {tol!r}")
        if self.theory != "auto" and not _is_number(self.theory):
            raise ValueError(f"theory must be 'auto' or a number, got {self.theory!r}")
        object.__setattr__(self, "schedule", sched)
        if not self.label:
            object.__setattr__(self, "label", self.kind)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    rows: list[tuple[int, int, float]]
    theory_limit: float | None
    fit: SlopeFit | None
    passed: bool
    collapse_detected: bool = False
    details: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        theory = "" if self.theory_limit is None else repr(float(self.theory_limit))
        for trial, n, stat in sorted(self.rows, key=lambda r: (r[0], r[1])):
            stat_s = str(int(stat)) if float(stat).is_integer() else repr(float(stat))
            lines.append(f"{self.plan.label},{trial},{n},{stat_s},"
                         f"{repr(math.log(n))},{theory}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        bits = [f"experiment={self.plan.label}", f"trials={self.plan.trials}"]
        if self.fit is not None:
            bits.append(f"slope={self.fit.slope:.6g} (stderr {self.fit.stderr:.2g})")
        if self.theory_limit is not None:
            bits.append(f"theory={self.theory_limit:.6g}")
        if self.collapse_detected:
            bits.append("collapse detected")
        bits.append("PASS" if self.passed else "FAIL")
        return "  ".join(bits)


def plan_from_config(cfg: dict) -> ExperimentPlan:
    """Build a plan from a parsed config mapping."""
    cfg = dict(cfg)
    kind = cfg.pop("experiment")
    sched_cfg = cfg.pop("schedule")
    if isinstance(sched_cfg, dict):
        bounds = dict(sched_cfg)
        start = _integer(bounds.pop("start_pow2"), "schedule start_pow2")
        stop = _integer(bounds.pop("stop_pow2"), "schedule stop_pow2")
        _no_leftovers(bounds, "schedule")
        schedule = tuple(2 ** p for p in range(start, stop + 1))
    elif isinstance(sched_cfg, (list, tuple)):
        schedule = tuple(_integer(n, "schedule entry") for n in sched_cfg)
    else:
        raise ValueError("schedule must be a list of sizes or a start_pow2/stop_pow2 "
                         f"mapping, got {type(sched_cfg).__name__}")
    for name in ("source", "encoder", "system", "observation"):
        if not isinstance(cfg.get(name), (dict, type(None))):
            raise ValueError(f"{name} must be a mapping, got {type(cfg[name]).__name__}")
    fields = dict(
        kind=kind,
        schedule=schedule,
        trials=_integer(cfg.pop("trials", 1), "trials"),
        master_seed=_integer(cfg.pop("seed", 0), "seed"),
        source=cfg.pop("source", None),
        encoder=cfg.pop("encoder", None),
        system=cfg.pop("system", None),
        observation=cfg.pop("observation", None),
        sample_length=_integer(cfg.pop("sample_length", 1_000_000), "sample_length"),
        theory=cfg.pop("theory", "auto"),
        tolerance_frac=cfg.pop("tolerance_frac", None),
        tolerance_abs=cfg.pop("tolerance_abs", None),
        expect_collapse=_flag(cfg.pop("expect_collapse", False), "expect_collapse"),
        label=cfg.pop("label", ""),
    )
    _no_leftovers(cfg, "config")  # a misspelled key first, then the values
    plan = ExperimentPlan(**fields)
    # build each nested spec once, so a bad key or value fails here, not in a trial
    try:
        for build, spec in ((_build_source, plan.source), (_build_system, plan.system),
                            (_build_observation, plan.observation)):
            if spec is not None:
                build(spec)
        enc = _encoder_for_trial(plan, 0, 0)
        if isinstance(enc, encoders.StretchEncoder) and plan.source is not None:
            # one weight per source symbol, checked here since a numeric theory
            # skips the closed form that would read them
            sources.symbol_weights(enc.weights, _build_source(plan.source).alphabet.size)
        theoretical_slope_limit(plan)  # specs that do not fit together fail here
    except TypeError as e:  # a value of the wrong type, such as m: [2]
        raise ValueError(f"bad value in a nested spec: {e}") from None
    return plan


def _integer(value, what: str) -> int:
    """An int or an integral float (YAML reads 1.0e+6 as a float), never a bool."""
    if _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _no_leftovers(spec: dict, what: str) -> None:
    if spec:
        raise ValueError(f"unrecognized {what} keys: {sorted(spec)}")


def _build_source(spec: dict):
    spec = dict(spec or {})
    kind = spec.pop("kind")
    if kind == "iid":
        src = sources.IIDSource(np.asarray(spec.pop("probs"), dtype=float))
    elif kind == "markov":
        P = np.asarray(spec.pop("transition"), dtype=float)
        init = spec.pop("initial", "stationary")
        if isinstance(init, str):
            if init != "stationary":
                raise ValueError(f"unknown initial distribution {init!r}")
            src = sources.MarkovSource.stationary(P)
        else:
            src = sources.MarkovSource(P, np.asarray(init, dtype=float))
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    _no_leftovers(spec, "source")
    return src


def _encoder_for_trial(plan: ExperimentPlan, trial: int, side: int) -> encoders.Encoder:
    spec = dict(plan.encoder or {"kind": "identity"})
    kind = spec.pop("kind", "identity")
    if kind == "identity":
        enc = encoders.IdentityEncoder()
    elif kind == "zero_inflation":
        shared = _flag(spec.pop("shared_mask", True), "shared_mask")
        role = _ROLE_MASK_X if (shared or side == 0) else _ROLE_MASK_Y
        enc = encoders.ZeroInflation(
            epsilon=float(spec.pop("epsilon")),
            mask_seed=spawn_seed(plan.master_seed, trial, role))
    elif kind == "stretch":
        enc = encoders.StretchEncoder(tuple(int(v) for v in spec.pop("weights")))
    else:
        raise ValueError(f"unknown encoder kind {kind!r}")
    _no_leftovers(spec, "encoder")
    return enc


def _build_system(spec: dict) -> dynamics.MapSpec | dynamics.SkewSystem:
    """A deterministic map, or a SkewSystem for a random one."""
    spec = dict(spec or {})
    kind = spec.pop("kind", None)
    if kind == "times_m":
        system = dynamics.TimesMap(_integer(spec.pop("m"), "times_m m"))
    elif kind == "toral_automorphism":
        system = dynamics.ToralAutomorphism(tuple(tuple(row) for row in spec.pop("matrix")))
    elif kind == "noniid_2x3x":
        system = dynamics.SkewSystem(dynamics.ThetaDriver(),
                                     (dynamics.TimesMap(2), dynamics.TimesMap(3)))
    elif kind == "perturbed_times_m":
        base = dynamics.TimesMap(_integer(spec.pop("m", 2), "perturbed_times_m m"))
        system = dynamics.SkewSystem(
            dynamics.UniformBallDriver(float(spec.pop("epsilon", 1e-3))), (base,))
    elif kind == "toral_pair":
        if "matrices" in spec:
            maps = tuple(dynamics.ToralAutomorphism(tuple(tuple(r) for r in m))
                         for m in spec.pop("matrices"))
        else:
            maps = dynamics.default_toral_pair()
        system = dynamics.SkewSystem(dynamics.BernoulliDriver(float(spec.pop("q", 0.5))),
                                     maps)
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    _no_leftovers(spec, "system")
    return system


def _build_observation(spec: dict | None) -> dynamics.ObservationSpec:
    spec = dict(spec or {"kind": "identity"})
    kind = spec.pop("kind", "identity")
    if kind == "identity":
        obs = dynamics.IdentityObservation()
    elif kind == "coordinate_projection":
        obs = dynamics.CoordinateProjection(_integer(spec.pop("index", 0), "projection index"))
    elif kind == "lipschitz_affine":
        matrix = spec.pop("matrix")
        obs = dynamics.LipschitzAffine(tuple(tuple(r) for r in matrix),
                                       tuple(spec.pop("offset", [0.0] * len(matrix))))
    elif kind == "collapse":
        obs = dynamics.Collapse(tuple(spec.pop("interval")), float(spec.pop("value")))
    else:
        raise ValueError(f"unknown observation kind {kind!r}")
    _no_leftovers(spec, "observation")
    return obs


def closed_form_entropy(plan: ExperimentPlan) -> float:
    """Collision entropy rate H2 of the configured encoded source."""
    src = _build_source(plan.source)
    enc = _encoder_for_trial(plan, 0, 0)
    if isinstance(enc, encoders.IdentityEncoder):
        if isinstance(src, sources.IIDSource):
            return entropy.renyi2_iid(src.probs)
        return entropy.renyi2_markov(src.transition)
    if isinstance(enc, encoders.ZeroInflation):
        if not isinstance(src, sources.IIDSource):
            raise ValueError("zero-inflation closed form needs an i.i.d. source")
        return entropy.renyi2_zero_inflated(src.probs, enc.epsilon)
    P = (np.tile(src.probs, (src.probs.size, 1)) if isinstance(src, sources.IIDSource)
         else src.transition)
    return entropy.renyi2_scrabble(P, enc.weights).entropy


def theoretical_slope_limit(plan: ExperimentPlan) -> float | None:
    """The target of every gate: 2/H2, 2/C or H2 itself; None when C is only
    known empirically (`run` estimates it) or the observation collapses."""
    if isinstance(plan.theory, (int, float)):
        return float(plan.theory)
    if plan.kind == "entropy_check":
        return closed_form_entropy(plan)
    if plan.kind in ("lcs_law", "scrabble_law"):
        return 2.0 / closed_form_entropy(plan)
    system = _build_system(plan.system)
    is_random = isinstance(system, dynamics.SkewSystem)
    if plan.kind == "random_orbit_law":
        if not is_random:
            raise ValueError("random_orbit_law needs a random system")
        if isinstance(system.driver, dynamics.UniformBallDriver):
            return None  # stationary density known only empirically
        return 2.0 / system.dim
    obs = _build_observation(plan.observation)
    if isinstance(obs, dynamics.Collapse):
        return None
    if is_random:
        raise ValueError("orbit_law needs a deterministic map system")
    if isinstance(obs, dynamics.IdentityObservation):
        return 2.0 / system.dim
    if isinstance(obs, dynamics.CoordinateProjection):
        return 2.0
    return None  # estimated empirically at run time


def _lcs_trial(plan: ExperimentPlan, trial: int) -> list[int]:
    src = _build_source(plan.source)
    n_max = plan.schedule[-1]
    x = sources.sample(src, n_max, spawn_seed(plan.master_seed, trial, _ROLE_X))
    y = sources.sample(src, n_max, spawn_seed(plan.master_seed, trial, _ROLE_Y))
    enc_x = _encoder_for_trial(plan, trial, 0)
    enc_y = _encoder_for_trial(plan, trial, 1)
    if isinstance(enc_x, encoders.ZeroInflation):
        # the mask is an environment anchored at window starts: matches are
        # compared under a common mask prefix, the event whose decay rate is
        # the contaminated entropy (the encoder is not shift-equivariant, so
        # this differs from the plain substring match of the encoded strings)
        return matching.masked_window_lcs(x, y, enc_x.mask(n_max),
                                          enc_y.mask(n_max), plan.schedule)
    ex = encoders.encode(enc_x, x, n_max)
    ey = encoders.encode(enc_y, y, n_max)
    return matching.lcs_lengths_over_schedule(ex, ey, plan.schedule)


def _observed_orbit(plan: ExperimentPlan, n: int, seed: int) -> dynamics.Orbit:
    """n observed points of the configured system from its invariant law."""
    system = _build_system(plan.system)
    if isinstance(system, dynamics.SkewSystem):
        orbit, _ = dynamics.iterate_random(system, None, None, n, seed)
    else:
        orbit = dynamics.lebesgue_orbit(system, n, seed)
    return dynamics.observe(_build_observation(plan.observation), orbit)


def _orbit_trial(plan: ExperimentPlan, trial: int) -> np.ndarray:
    a, b = (_observed_orbit(plan, plan.schedule[-1],
                            spawn_seed(plan.master_seed, trial, role))
            for role in (_ROLE_X, _ROLE_Y))
    return geometry.distance_profile(a, b, plan.schedule).m_values


def _entropy_trial(plan: ExperimentPlan, trial: int
                   ) -> tuple[entropy.EntropyEstimate, list[entropy.EntropyEstimate]]:
    src = _build_source(plan.source)
    seq = sources.sample(src, plan.sample_length,
                         spawn_seed(plan.master_seed, trial, _ROLE_X))
    enc = _encoder_for_trial(plan, trial, 0)
    return entropy.empirical_plateau(encoders.encode(enc, seq, plan.sample_length))


def estimate_orbit_dimension(plan: ExperimentPlan) -> geometry.DimensionFit:
    """Correlation dimension of the configured system's observed point cloud."""
    observed = _observed_orbit(plan, _DIM_ESTIMATE_POINTS + _DIM_ESTIMATE_BURN_IN,
                               spawn_seed(plan.master_seed, _DIM_ESTIMATE_KEY))
    pts = observed.points[_DIM_ESTIMATE_BURN_IN:]
    # a Lipschitz observation cannot raise the dimension of the orbit it observes
    dim = min(pts.shape[1], _build_system(plan.system).dim)
    r_lo, r_hi = geometry.default_radius_window(pts.shape[0], dim)
    return geometry.correlation_dimension(pts, r_lo, r_hi, space=observed.space)


def _gate(plan: ExperimentPlan, measured: float, theory: float) -> bool:
    """The one gate: tolerance_abs, else tolerance_frac * |theory|; none passes."""
    if plan.tolerance_abs is not None:
        return abs(measured - theory) <= plan.tolerance_abs
    if plan.tolerance_frac is not None:
        return abs(measured - theory) <= plan.tolerance_frac * abs(theory)
    return True


def _run_trials(plan: ExperimentPlan, fn, threads: int):
    if threads <= 1:
        return [fn(t) for t in range(plan.trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(plan.trials)))


def run(plan: ExperimentPlan, threads: int = 1) -> ExperimentResult:
    """Execute a plan; deterministic in (plan, master seed) for any thread count."""
    theory = theoretical_slope_limit(plan)
    details: dict = {}
    if theory is None and not plan.expect_collapse:  # an orbit law with C unknown
        dim_fit = estimate_orbit_dimension(plan)
        details["estimated_dimension"] = dim_fit.slope
        theory = 2.0 / dim_fit.slope
    orbit = plan.kind.endswith("orbit_law")
    trial_fn = (_entropy_trial if plan.kind == "entropy_check"
                else _orbit_trial if orbit else _lcs_trial)
    per_trial = _run_trials(plan, lambda t: trial_fn(plan, t), threads)
    if plan.kind == "entropy_check":
        rows = [(trial, est.k, est.value)
                for trial, (_, table) in enumerate(per_trial) for est in table]
        plateaus = details["plateau_estimates"] = [plateau.value for plateau, _ in per_trial]
        fit, collapsed = None, np.zeros(0, dtype=bool)
        passed = all(_gate(plan, p, theory) for p in plateaus)
    else:
        stats = np.asarray(per_trial, dtype=float)
        rows = [(trial, n, float(v))
                for trial, row in enumerate(stats) for n, v in zip(plan.schedule, row)]
        # a zero orbit distance is a collapse: that trial has no -log m_n to fit
        collapsed = (stats == 0.0).any(axis=1) & orbit
        clean = stats[~collapsed]
        fit = (fit_slope(np.log(plan.schedule), (-np.log(clean) if orbit else clean).mean(0))
               if len(clean) else None)
        passed = (collapsed.any() if orbit and plan.expect_collapse
                  else fit is not None and _gate(plan, fit.slope, theory))
    return ExperimentResult(plan=plan, rows=rows, theory_limit=theory, fit=fit,
                            passed=bool(passed), collapse_detected=bool(collapsed.any()),
                            details=details)


def scrabble_crosscheck(plan: ExperimentPlan, n_raw: int = 4096) -> list[int]:
    """Encoded-match length minus weighted score at matched windows, per trial.

    The encoded windows are the exact stretched images of the raw length-n_raw
    prefixes, so the two statistics may differ only by run-boundary effects.
    """
    enc = _encoder_for_trial(plan, 0, 0)
    if not isinstance(enc, encoders.StretchEncoder):
        raise ValueError("cross-check applies to stretch-encoder plans")
    src = _build_source(plan.source)
    diffs = []
    for trial in range(plan.trials):
        x = sources.sample(src, n_raw, spawn_seed(plan.master_seed, trial, _ROLE_X))
        y = sources.sample(src, n_raw, spawn_seed(plan.master_seed, trial, _ROLE_Y))
        na = enc.image_length(x, n_raw)
        nb = enc.image_length(y, n_raw)
        encoded_len = matching.lcs_fast(encoders.encode(enc, x, na),
                                        encoders.encode(enc, y, nb),
                                        want_witness=False).length
        score = matching.highest_score(x, y, n_raw, enc.weights).length
        diffs.append(encoded_len - score)
    return diffs


@dataclass
class SelfTestReport:
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def lines(self) -> list[str]:
        return [f"{'PASS' if p else 'FAIL'}  {name}{(': ' + d) if d else ''}"
                for name, p, d in self.checks]


def selftest(seed: int = 20_240_601) -> SelfTestReport:
    """Oracle-equivalence and closed-form invariant suite; release gate."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool, str]] = []

    mismatches = 0
    for _ in range(300):
        size = int(rng.integers(2, 9))
        lx, ly = (int(v) for v in rng.integers(1, 121, size=2))
        x = sources.SymbolSeq(sources.Alphabet(size), rng.integers(0, size, lx))
        y = sources.SymbolSeq(sources.Alphabet(size), rng.integers(0, size, ly))
        if matching.lcs_fast(x, y).length != matching.lcs_oracle(x, y).length:
            mismatches += 1
    checks.append(("lcs fast/reference equivalence (300 pairs)",
                   mismatches == 0, f"{mismatches} mismatches"))

    # near copies: matches pass the packed span (62 binary symbols) and twice it
    mismatches = longest = 0
    for _ in range(20):
        size, n = int(rng.integers(2, 5)), int(rng.integers(150, 401))
        xd = rng.integers(0, size, n)
        yd = xd.copy()
        at = rng.integers(0, n, int(rng.integers(1, 4)))
        yd[at] = (yd[at] + rng.integers(1, size, at.size)) % size
        x, y = (sources.SymbolSeq(sources.Alphabet(size), d) for d in (xd, yd))
        ref = matching.lcs_oracle(x, y)
        longest = max(longest, ref.length)
        schedule = np.unique(np.r_[rng.integers(1, n + 1, size=4), n]).tolist()
        mismatches += matching.lcs_fast(x, y) != ref
        mismatches += matching.lcs_lengths_over_schedule(x, y, schedule) != [
            matching.lcs_oracle(x.prefix(m), y.prefix(m)).length for m in schedule]
    checks.append(("long-match lcs fast/schedule/reference equivalence (20 near copies)",
                   mismatches == 0, f"{mismatches} mismatches, longest match {longest}"))

    bad_distance = bad_witness = 0
    for _ in range(150):
        n = int(rng.integers(2, 513))
        dim = int(rng.integers(1, 3))
        a = dynamics.Orbit(rng.random((n, dim)))
        b = dynamics.Orbit(rng.random((n, dim)))
        ref = geometry.shortest_distance(a, b, n)
        fast = geometry.shortest_distance_fast(a, b, n)
        bad_distance += ref.distance != fast.distance
        bad_witness += ref.witness != fast.witness
    checks.append(("nearest-pair fast/reference equivalence (150 instances)",
                   bad_distance == 0 and bad_witness == 0,
                   f"{bad_distance} distance and {bad_witness} witness mismatches"))

    bad_distance = bad_witness = 0
    for t in range(40):
        n = int(rng.integers(16, 513))
        dim = int(rng.integers(1, 3))
        space = (dynamics.TORUS, dynamics.CUBE)[int(rng.integers(2))]
        scale = 1.0 if space == dynamics.TORUS else float(rng.uniform(0.5, 4.0))
        if t >= 30:  # cube orbits whose second coordinate spans 0 or 1e-9
            dim, space, scale = 2, dynamics.CUBE, np.array([scale, 1e-9 * (t % 2)])
        a = dynamics.Orbit(scale * rng.random((n, dim)), space)
        b = dynamics.Orbit(scale * rng.random((n, dim)), space)
        schedule = np.unique(np.r_[rng.integers(8, n + 1, size=4), n])
        prof = geometry.distance_profile(a, b, schedule)
        for k, m, witness in zip(schedule, prof.m_values, prof.witnesses):
            ref = geometry.shortest_distance(a, b, int(k))
            bad_distance += ref.distance != m
            bad_witness += ref.witness != witness
    checks.append(("distance-profile / per-n reference equivalence "
                   "(40 instances, 10 with a flat cube axis)",
                   bad_distance == 0 and bad_witness == 0,
                   f"{bad_distance} distance and {bad_witness} witness mismatches"))

    worst = 0.0
    for _ in range(20):
        q = rng.random(int(rng.integers(2, 6)))
        q /= q.sum()
        P = np.tile(q, (q.size, 1))
        worst = max(worst, abs(entropy.renyi2_markov(P) - entropy.renyi2_iid(q)))
    checks.append(("rank-1 chain entropy equals i.i.d. entropy",
                   worst < 1e-9, f"max diff {worst:.2e}"))

    worst = 0.0
    failures = 0
    for _ in range(30):
        d = int(rng.integers(2, 5))
        P = rng.random((d, d)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        w = _random_weights(rng, d)
        try:
            spec = entropy.renyi2_scrabble(P, w)
            worst = max(worst, abs(spec.p_eigen - spec.p_root))
        except ArithmeticError:
            failures += 1
    checks.append(("stretched-chain eigenvalue/root agreement (30 specs)",
                   failures == 0 and worst < 1e-9,
                   f"{failures} failures, max diff {worst:.2e}"))

    seq = sources.sample(sources.IIDSource(np.array([0.25, 0.25, 0.5])), 400, 7)
    ident = encoders.IdentityEncoder()
    ok_enc = np.array_equal(encoders.encode(ident, seq, 123).data, seq.data[:123])
    noiseless = encoders.ZeroInflation(epsilon=0.0, mask_seed=5)
    ok_enc &= np.array_equal(encoders.encode(noiseless, seq, 400).data, seq.data)
    stretch = encoders.StretchEncoder((1, 3, 2))
    image = encoders.encode(stretch, seq, 200)
    ok_enc &= _stretch_roundtrip(stretch, seq, image)
    checks.append(("encoder identities (prefix, zero-noise, stretch decode)",
                   bool(ok_enc), ""))

    # explicit states are taken mod 1, so the state 1.0 is probed just below it
    probes = [(0.0, 0.0), (0.3, 0.7), (0.5, 0.2), (math.nextafter(1.0, 0.0), 1.0)]
    theta = _build_system({"kind": "noniid_2x3x"})
    ok_theta = all(abs(dynamics.iterate_random(theta, w, 0.0, 2, seed)[1][1] - img) < 1e-12
                   for w, img in probes)
    checks.append(("driver branch values", ok_theta, ""))

    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        P = rng.random((d, d)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        mu = sources.stationary_distribution(P)
        worst = max(worst, float(np.max(np.abs(mu @ P - mu))))
    checks.append(("stationary distributions are fixed points",
                   worst < 1e-10, f"max residual {worst:.2e}"))

    # TimesMap(2) refreshes every 865 steps, so 2000 points pass two refreshes
    n = 2000
    mismatches = 0
    for m in (2, 4, 8):
        fibers = dynamics._fibers((dynamics.TimesMap(m),), True)
        for eps in (0.0, 1e-3):
            noise = (rng.uniform(-eps, eps, n - 1) * 2.0 ** 62).astype(np.int64)
            (x,), refresher = dynamics._start(None, 1, seed, m)
            register = dynamics._shift_register(m.bit_length() - 1, x, refresher, n, noise)
            coords, refresher = dynamics._start(None, 1, seed, m)
            loop = np.fromiter(dynamics._orbit(fibers, coords, refresher,
                                               np.zeros(n - 1, dtype=np.int64), noise),
                               dtype=np.int64, count=n)
            mismatches += not np.array_equal(register, loop)
    checks.append(("orbit shift-register/integer-loop equivalence (m = 2, 4, 8)",
                   mismatches == 0, f"{mismatches} mismatches"))

    # the oracle warns on every undersampled k; the rows themselves are compared
    mismatches = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for t in range(60):
            size, n = int(rng.integers(1, 6)), int(rng.integers(5, 5001))
            data = rng.integers(0, size, n)
            if t % 2:  # end in a run of zeros, which the padding collides with
                data[n - int(rng.integers(1, 100)):] = 0
            seq = sources.SymbolSeq(sources.Alphabet(size), data)
            _, table = entropy.empirical_plateau(seq)
            mismatches += sum(est != entropy.renyi2_empirical(seq, est.k) for est in table)
    checks.append(("entropy plateau / per-k oracle equivalence (60 sequences)",
                   mismatches == 0, f"{mismatches} mismatched rows"))

    return SelfTestReport(checks)


def _random_weights(rng: np.random.Generator, d: int) -> tuple[int, ...]:
    while True:
        w = tuple(int(v) for v in rng.integers(1, 5, size=d))
        if math.gcd(*w) == 1:
            return w


def _stretch_roundtrip(enc: encoders.StretchEncoder, raw: sources.SymbolSeq,
                       image: sources.SymbolSeq) -> bool:
    """Collapse maximal runs of the image back into a prefix of the raw input."""
    decoded: list[int] = []
    data = image.data
    i = 0
    while i < len(data):
        j = i
        while j < len(data) and data[j] == data[i]:
            j += 1
        decoded.extend([int(data[i])] * ((j - i) // enc.weights[int(data[i])]))
        i = j
    return np.array_equal(np.asarray(decoded, dtype=np.int64),
                          raw.data[:len(decoded)])
