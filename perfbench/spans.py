"""Layer spans recorded from outside the matchdim package.

`install` replaces the public functions the harness calls into each layer
with wrappers that record a span per call: name, start, end, parent span and
the run id shared by every span of one experiment run, plus a work count
taken from the call's arguments (symbols, points or windows). Spans stay in
memory; the caller writes them out when the run ends.

A wrapped function that is missing at some commit is skipped and its layer
reported as unmeasured, so renaming or deleting one never breaks the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# (span name = layer.attribute path, work count from the bound arguments)
WRAPPED = (
    ("sources.sample", lambda a: a["n"]),
    ("encoders.encode", lambda a: a["n_out"]),
    ("encoders.ZeroInflation.mask", lambda a: a["n"]),
    ("matching.lcs_lengths_over_schedule", lambda a: 2 * max(a["schedule"])),
    ("matching.masked_window_lcs",
     lambda a: 2 * (max(a["schedule"]) if a["schedule"] is not None
                    else min(len(a["x"]), len(a["y"])))),
    ("dynamics.lebesgue_orbit", lambda a: a["n"]),
    ("dynamics.iterate_random", lambda a: a["n"]),
    ("dynamics.observe", lambda a: 0),
    ("geometry.distance_profile", lambda a: 0),
    ("geometry.shortest_distance_fast", lambda a: 2 * a["n"]),
    ("geometry.correlation_dimension", lambda a: len(a["points"])),
    ("entropy.empirical_plateau", lambda a: 0),
    ("entropy.renyi2_empirical", lambda a: len(a["seq"]) - a["k"] + 1),
)

LAYERS = ("sources", "encoders", "matching", "dynamics", "geometry", "entropy")

_NEAREST_CALL = "geometry.shortest_distance_fast"
_DIMENSION_CALL = "geometry.correlation_dimension"
_ORBIT_CALLS = ("dynamics.lebesgue_orbit", "dynamics.iterate_random")
_PLATEAU_STEP = "entropy.renyi2_empirical"


class Recorder:
    """Collects the spans of one experiment run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _wrap(self, name: str, fn, work):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = int(work(bound.arguments))
            except Exception:  # a changed signature loses the count, not the call
                amount = None
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": stack[-1] if stack else None, "work": amount}
            self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return wrapper


def install(recorder: Recorder, package: str = "matchdim") -> None:
    """Wrap every function of WRAPPED that exists; record the absent ones."""
    for name, work in WRAPPED:
        module_name, *owner_path, attr = name.split(".")
        owner = importlib.import_module(f"{package}.{module_name}")
        for part in owner_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            recorder.missing.append(name)
            continue
        setattr(owner, attr, recorder._wrap(name, fn, work))


def unmeasured_layers(missing) -> list[str]:
    """Layers none of whose wrapped functions exist."""
    names_by_layer: dict[str, set] = {}
    for name, _ in WRAPPED:
        names_by_layer.setdefault(name.split(".")[0], set()).add(name)
    return [layer for layer in LAYERS if names_by_layer[layer] <= set(missing)]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _rate(work: float, busy: float) -> float:
    return work / busy if busy > 0 else 0.0


def layer_metrics(spans: list[dict], wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced experiment run.

    Busy time counts top-level spans only, so a nested call (a nearest-pair
    query inside a distance profile) is not counted twice, and the top-level
    busy times plus `harness.self_s` add up to the run's wall time.
    """
    top = [s for s in spans if s["parent"] is None]

    def busy(pred) -> float:
        return sum(_duration(s) for s in top if pred(s["name"]))

    def work(names) -> float:
        return sum(s["work"] or 0 for s in spans if s["name"] in names)

    def calls(names) -> int:
        return sum(1 for s in spans if s["name"] in names)

    def layer_names(layer: str) -> tuple[str, ...]:
        return tuple(n for n, _ in WRAPPED if n.startswith(layer + "."))

    def in_layer(layer: str):
        return lambda name: name.startswith(layer + ".")

    m: dict[str, float] = {}
    for layer in ("sources", "encoders"):
        b = busy(in_layer(layer))
        m[f"{layer}.busy_s"] = b
        m[f"{layer}.symbols_per_s"] = _rate(work(layer_names(layer)), b)

    b = busy(in_layer("matching"))
    m["matching.busy_s"] = b
    m["matching.calls"] = sum(1 for s in top if s["name"].startswith("matching."))
    m["matching.symbols_per_s"] = _rate(work(layer_names("matching")), b)
    m["matching.share"] = b / wall_s

    b = busy(in_layer("dynamics"))
    points = work(_ORBIT_CALLS)
    m["dynamics.busy_s"] = b
    m["dynamics.points"] = points
    m["dynamics.points_per_s"] = _rate(points, b)
    m["dynamics.share"] = b / wall_s

    nearest = busy(lambda n: n.startswith("geometry.") and n != _DIMENSION_CALL)
    dimension = busy(lambda n: n == _DIMENSION_CALL)
    m["geometry.nearest_busy_s"] = nearest
    m["geometry.nearest_queries"] = calls((_NEAREST_CALL,))
    m["geometry.nearest_points_per_s"] = _rate(work((_NEAREST_CALL,)), nearest)
    m["geometry.dimension_busy_s"] = dimension
    m["geometry.share"] = (nearest + dimension) / wall_s

    b = busy(in_layer("entropy"))
    m["entropy.plateau_busy_s"] = b
    m["entropy.k_evaluated"] = calls((_PLATEAU_STEP,))
    m["entropy.windows_per_s"] = _rate(work((_PLATEAU_STEP,)), b)
    m["entropy.share"] = b / wall_s

    m["harness.self_s"] = wall_s - sum(_duration(s) for s in top)
    m["harness.cpu_per_wall"] = cpu_s / wall_s
    return m
