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
  independent observed (random) orbits versus log n; limit 2 / C with C the
  correlation dimension of the observed invariant measure (the observed
  dimension for Lebesgue systems seen whole or through a coordinate,
  estimated empirically otherwise).
- entropy_check: each trial's block-entropy plateau against H2 itself; the
  least-squares slope of -ln S_k on k up to the plateau's k is recorded
  next to it, not gated.

Every kind runs one path: `theoretical_slope_limit` resolves the target
before any trial, once per plan (in `plan_from_config`, so specs that do not
fit together are a config error, else in `run`), then one gate compares the
slope or plateaus with it.

Per-trial streams are derived from (master seed, trial index, role) so runs
are reproducible and thread-count independent; rows are emitted in sorted
trial order, making CSV output byte-identical across thread counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, encoders, entropy, geometry, matching, sources
from .geometry import SlopeFit, fit_slope
from .seeding import spawn_seed

EXPERIMENT_KINDS = ("lcs_law", "scrabble_law", "orbit_law",
                    "random_orbit_law", "entropy_check")
# the config keys only some kinds read, by kind; any other kind rejects them
_SYMBOL_KEYS, _ORBIT_KEYS = {"source", "encoder"}, {"system", "observation", "expect_collapse"}
_KIND_KEYS = {"lcs_law": _SYMBOL_KEYS, "scrabble_law": _SYMBOL_KEYS,
              "entropy_check": _SYMBOL_KEYS | {"sample_length"},
              "orbit_law": _ORBIT_KEYS, "random_orbit_law": _ORBIT_KEYS}
_KIND_ONLY_KEYS = set().union(*_KIND_KEYS.values())

CSV_HEADER = "experiment,trial,n,statistic,log_n,theory_limit"

# role constants for per-trial stream derivation
_ROLE_X, _ROLE_Y, _ROLE_MASK = 0, 1, 2
_DIM_ESTIMATE_KEY = 999_983
_DIM_ESTIMATE_POINTS, _DIM_ESTIMATE_BURN_IN = 100_000, 100  # observed after burn-in
_SLOPE_MIN_K = 5  # the least block length in an entropy trial's plateau slope


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
    tolerance_frac: float | None = None
    tolerance_abs: float | None = None
    expect_collapse: bool = False
    label: str = ""
    # the target `plan_from_config` resolved, so that `run` need not resolve it
    # again; None when it is unknown or the plan was built directly
    _target: float | None = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "schedule", sched)
        # the label is the first CSV field, written unquoted
        if not isinstance(self.label, str) or any(c in self.label for c in ",\r\n"):
            raise ValueError("label must be a string without commas or line breaks, "
                             f"got {self.label!r}")
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
        limit = "" if self.theory_limit is None else repr(float(self.theory_limit))
        for trial, n, stat in sorted(self.rows, key=lambda r: (r[0], r[1])):
            stat_s = str(int(stat)) if float(stat).is_integer() else repr(float(stat))
            lines.append(f"{self.plan.label},{trial},{n},{stat_s},"
                         f"{repr(math.log(n))},{limit}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        bits = [f"experiment={self.plan.label}", f"trials={self.plan.trials}"]
        if self.fit is not None:
            bits.append(f"slope={self.fit.slope:.6g}")
            if "slope_stderr_trials" in self.details:
                bits[-1] += f" (stderr {self.details['slope_stderr_trials']:.2g})"
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
    unread = sorted(_KIND_ONLY_KEYS.intersection(cfg).difference(
        _KIND_KEYS.get(kind, _KIND_ONLY_KEYS)))
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
        tolerance_frac=cfg.pop("tolerance_frac", None),
        tolerance_abs=cfg.pop("tolerance_abs", None),
        expect_collapse=_flag(cfg.pop("expect_collapse", False), "expect_collapse"),
        label=cfg.pop("label", ""),
    )
    _no_leftovers(cfg, "config")  # a misspelled key first, then the values
    if unread:
        raise ValueError(f"{kind} does not read config keys: {unread}")
    plan = ExperimentPlan(**fields)
    # build each nested spec once, so a bad key or value fails here, not in a trial
    try:
        src = None if plan.source is None else _build_source(plan.source)
        for build, spec in ((_build_system, plan.system), (_build_observation, plan.observation)):
            if spec is not None:
                build(spec)
        _encoder_for_trial(plan, 0)
        # specs that do not fit together fail here
        object.__setattr__(plan, "_target", theoretical_slope_limit(plan, src))
    except TypeError as e:  # a value of the wrong type, such as m: [2]
        raise ValueError(f"bad value in a nested spec: {e}") from None
    return plan


def _integer(value, what: str) -> int:
    """An int or an integral float (YAML reads 1.0e+6 as a float), never a bool."""
    if _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _nested(value, check, what: str, depth: int = 1) -> tuple:
    """value as tuples nested depth deep, each entry passed through check."""
    if depth == 0:
        return check(value, f"{what} entry")
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(_nested(v, check, what, depth - 1) for v in value)


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
        src = sources.IIDSource(np.asarray(_nested(spec.pop("probs"), _number, "iid probs")))
    elif kind == "markov":
        P = np.asarray(_nested(spec.pop("transition"), _number, "markov transition", 2))
        init = spec.pop("initial", "stationary")
        if isinstance(init, str):
            if init != "stationary":
                raise ValueError(f"unknown initial distribution {init!r}")
            src = sources.MarkovSource.stationary(P)
        else:
            src = sources.MarkovSource(P, np.asarray(_nested(init, _number, "markov initial")))
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    _no_leftovers(spec, "source")
    return src


def _encoder_for_trial(plan: ExperimentPlan, trial: int) -> encoders.Encoder:
    spec = dict(plan.encoder or {"kind": "identity"})
    kind = spec.pop("kind", "identity")
    if kind == "identity":
        enc = encoders.IdentityEncoder()
    elif kind == "zero_inflation":
        enc = encoders.ZeroInflation(
            epsilon=_number(spec.pop("epsilon"), "zero_inflation epsilon"),
            mask_seed=spawn_seed(plan.master_seed, trial, _ROLE_MASK))
    elif kind == "stretch":
        enc = encoders.StretchEncoder(_nested(spec.pop("weights"), _integer, "stretch weights"))
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
        system = dynamics.ToralAutomorphism(
            _nested(spec.pop("matrix"), _integer, "toral_automorphism matrix", 2))
    elif kind == "noniid_2x3x":
        system = dynamics.SkewSystem(dynamics.ThetaDriver(),
                                     (dynamics.TimesMap(2), dynamics.TimesMap(3)))
    elif kind == "perturbed_times_m":
        base = dynamics.TimesMap(_integer(spec.pop("m", 2), "perturbed_times_m m"))
        system = dynamics.SkewSystem(
            dynamics.UniformBallDriver(_number(spec.pop("epsilon", 1e-3),
                                               "perturbed_times_m epsilon")), (base,))
    elif kind == "toral_pair":
        if "matrices" in spec:
            maps = tuple(map(dynamics.ToralAutomorphism, _nested(
                spec.pop("matrices"), _integer, "toral_pair matrices", 3)))
        else:
            maps = dynamics.default_toral_pair()
        q = _number(spec.pop("q", 0.5), "toral_pair q")
        system = dynamics.SkewSystem(dynamics.BernoulliDriver(q), maps)
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
        matrix = _nested(spec.pop("matrix"), _number, "lipschitz_affine matrix", 2)
        obs = dynamics.LipschitzAffine(matrix, _nested(spec.pop("offset", [0.0] * len(matrix)),
                                                       _number, "lipschitz_affine offset"))
    elif kind == "collapse":
        obs = dynamics.Collapse(_nested(spec.pop("interval"), _number, "collapse interval"),
                                _number(spec.pop("value"), "collapse value"))
    else:
        raise ValueError(f"unknown observation kind {kind!r}")
    _no_leftovers(spec, "observation")
    return obs


def closed_form_entropy(plan: ExperimentPlan, src) -> float:
    """Collision entropy rate H2 of the configured encoded source, src built."""
    enc = _encoder_for_trial(plan, 0)
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


def _observed_system(plan: ExperimentPlan) -> tuple[
        dynamics.MapSpec | dynamics.SkewSystem, dynamics.ObservationSpec, int]:
    """An orbit plan's system and observation, and the observed dimension
    min(observed coordinates, system dimension).

    The observation is applied to the origin and, for a collapse, to a point
    of its interval, so one that does not fit the system fails when the plan
    is made, not in a trial. So does a collapse interval that misses the
    torus, which could never collapse an orbit.
    """
    system = _build_system(plan.system)
    is_random = isinstance(system, dynamics.SkewSystem)
    if plan.kind == "random_orbit_law" and not is_random:
        raise ValueError("random_orbit_law needs a random system")
    if plan.kind == "orbit_law" and is_random:
        raise ValueError("orbit_law needs a deterministic map system")
    obs = _build_observation(plan.observation)
    start = 0.0
    if isinstance(obs, dynamics.Collapse):
        start, end = obs.interval
        if end < 0.0 or start >= 1.0:  # the observation would be the identity
            raise ValueError(f"collapse interval [{start}, {end}] misses the torus [0, 1)")
    # the origin, and for a collapse the point of [0, 1) nearest its interval's start
    points = np.zeros((2, system.dim))
    points[1] = min(max(start, 0.0), math.nextafter(1.0, 0.0))
    probe = dynamics.observe(obs, dynamics.Orbit(points))
    # a Lipschitz observation cannot raise the dimension of the orbit it observes
    return system, obs, min(probe.dim, system.dim)


def theoretical_slope_limit(plan: ExperimentPlan, src=None) -> float | None:
    """The target of every gate: H2 itself, 2/H2, or 2/C for both orbit laws.

    H2 is that of src, the plan's source, built here when src is None. C is
    the observed dimension of a Lebesgue system seen whole or through a
    coordinate. A collapse or Lipschitz observation, or a noise driver, gives
    None: `run` then estimates C, unless the plan expects a collapse.
    """
    if plan.kind in ("entropy_check", "lcs_law", "scrabble_law"):
        h2 = closed_form_entropy(plan, _build_source(plan.source) if src is None else src)
        return h2 if plan.kind == "entropy_check" else 2.0 / h2
    system, obs, dim = _observed_system(plan)
    if (isinstance(obs, (dynamics.Collapse, dynamics.LipschitzAffine))
            or isinstance(getattr(system, "driver", None), dynamics.UniformBallDriver)):
        return None
    return 2.0 / dim


def _lcs_trial(plan: ExperimentPlan, src, trial: int) -> list[int]:
    n_max = plan.schedule[-1]
    x = sources.sample(src, n_max, spawn_seed(plan.master_seed, trial, _ROLE_X))
    y = sources.sample(src, n_max, spawn_seed(plan.master_seed, trial, _ROLE_Y))
    enc = _encoder_for_trial(plan, trial)
    if isinstance(enc, encoders.ZeroInflation):
        # the mask is an environment anchored at window starts: matches are
        # compared under a common mask prefix, the event whose decay rate is
        # the contaminated entropy (the encoder is not shift-equivariant, so
        # this differs from the plain substring match of the encoded strings)
        return matching.masked_window_lcs(x, y, enc.mask(n_max), plan.schedule)
    ex = encoders.encode(enc, x, n_max)
    ey = encoders.encode(enc, y, n_max)
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


def _entropy_trial(plan: ExperimentPlan, src, trial: int
                   ) -> tuple[entropy.EntropyEstimate, list[entropy.EntropyEstimate]]:
    seq = sources.sample(src, plan.sample_length,
                         spawn_seed(plan.master_seed, trial, _ROLE_X))
    enc = _encoder_for_trial(plan, trial)
    return entropy.empirical_plateau(encoders.encode(enc, seq, plan.sample_length))


def estimate_orbit_dimension(plan: ExperimentPlan) -> geometry.DimensionFit:
    """Correlation dimension of the configured system's observed point cloud."""
    _, _, dim = _observed_system(plan)
    observed = _observed_orbit(plan, _DIM_ESTIMATE_POINTS + _DIM_ESTIMATE_BURN_IN,
                               spawn_seed(plan.master_seed, _DIM_ESTIMATE_KEY))
    pts = observed.points[_DIM_ESTIMATE_BURN_IN:]
    r_lo, r_hi = geometry.default_radius_window(pts.shape[0], dim)
    return geometry.correlation_dimension(pts, r_lo, r_hi, space=observed.space)


def _plateau_slope(plateau: entropy.EntropyEstimate,
                   table: list[entropy.EntropyEstimate]) -> float | None:
    """Least-squares slope of -ln S_k on k over _SLOPE_MIN_K <= k <= the
    plateau's k, or None under three such rows. Unlike -ln S_k / k it carries
    no 1/k boundary term."""
    rows = [est for est in table if _SLOPE_MIN_K <= est.k <= plateau.k]
    if len(rows) < 3:
        return None
    return fit_slope([est.k for est in rows],
                     -np.log([est.collision for est in rows])).slope


def _gate(plan: ExperimentPlan, measured: float, target: float) -> bool:
    """The one gate: tolerance_abs, else tolerance_frac * |target|; none passes."""
    if plan.tolerance_abs is not None:
        return abs(measured - target) <= plan.tolerance_abs
    if plan.tolerance_frac is not None:
        return abs(measured - target) <= plan.tolerance_frac * abs(target)
    return True


def _run_trials(plan: ExperimentPlan, fn, threads: int):
    if threads <= 1:
        return [fn(t) for t in range(plan.trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(plan.trials)))


def run(plan: ExperimentPlan, threads: int = 1) -> ExperimentResult:
    """Execute a plan; deterministic in (plan, master seed) for any thread count."""
    orbit = plan.kind.endswith("orbit_law")
    # the source is built once: a stationary chain solves for its law
    src = None if orbit else _build_source(plan.source)
    target = plan._target if plan._target is not None else theoretical_slope_limit(plan, src)
    details: dict = {}
    if target is None and not plan.expect_collapse:  # an orbit law with C unknown
        dim_fit = estimate_orbit_dimension(plan)
        details["estimated_dimension"] = dim_fit.slope
        target = 2.0 / dim_fit.slope
    if orbit:
        per_trial = _run_trials(plan, lambda t: _orbit_trial(plan, t), threads)
    else:
        trial_fn = _entropy_trial if plan.kind == "entropy_check" else _lcs_trial
        per_trial = _run_trials(plan, lambda t: trial_fn(plan, src, t), threads)
    if plan.kind == "entropy_check":
        rows = [(trial, est.k, est.value)
                for trial, (_, table) in enumerate(per_trial) for est in table]
        plateaus = details["plateau_estimates"] = [plateau.value for plateau, _ in per_trial]
        details["plateau_k"] = [plateau.k for plateau, _ in per_trial]
        details["plateau_rows"] = [len(table) for _, table in per_trial]
        details["plateau_slope"] = [_plateau_slope(*trial) for trial in per_trial]
        fit, collapsed = None, np.zeros(0, dtype=bool)
        passed = all(_gate(plan, p, target) for p in plateaus)
    else:
        stats = np.asarray(per_trial, dtype=float)
        rows = [(trial, n, float(v))
                for trial, row in enumerate(stats) for n, v in zip(plan.schedule, row)]
        # a zero orbit distance is a collapse: that trial has no -log m_n to fit
        collapsed = (stats == 0.0).any(axis=1) & orbit
        clean = stats[~collapsed]
        ys = -np.log(clean) if orbit else clean
        fit = None
        if len(clean) and len(plan.schedule) > 2:  # a collapse plan may have two points
            fit = fit_slope(np.log(plan.schedule), ys.mean(0))
            details["slope_stderr_residual"] = fit.stderr
            if len(clean) > 1:  # OLS is linear: the fit's slope is the mean trial slope
                slopes = [fit_slope(np.log(plan.schedule), y).slope for y in ys]
                details["slope_stderr_trials"] = float(np.std(slopes, ddof=1) / math.sqrt(len(ys)))
        passed = (collapsed.any() if orbit and plan.expect_collapse
                  else fit is not None and _gate(plan, fit.slope, target))
    return ExperimentResult(plan=plan, rows=rows, theory_limit=target, fit=fit,
                            passed=bool(passed), collapse_detected=bool(collapsed.any()),
                            details=details)

