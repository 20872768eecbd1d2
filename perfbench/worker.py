"""One experiment run in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py '<json request>'

The request names a committed config plus overrides (seed, trials), whether
to stop once the plan is ready (`setup_only`) and whether to record layer
spans (`trace`). The reply carries the monotonic clock reading at which the
plan was ready, so the parent can time set-up from before it spawned this
interpreter, and the run's wall and CPU time, peak RSS, CSV digest, gate
verdict and, when traced, its spans.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _check_rows(plan, result) -> str | None:
    """Output invariants that hold for every seed; None when all hold."""
    by_trial: dict[int, list[float]] = {}
    for trial, _, stat in sorted(result.rows):
        by_trial.setdefault(trial, []).append(stat)
    if plan.kind == "entropy_check":
        stats = [v for vals in by_trial.values() for v in vals]
        if not stats or not all(math.isfinite(v) and v > 0 for v in stats):
            return "entropy estimates must be finite and positive"
        return None
    if sorted(by_trial) != list(range(plan.trials)):
        return "one row set per trial expected"
    for trial, vals in by_trial.items():
        if len(vals) != len(plan.schedule):
            return f"trial {trial}: one row per scheduled n expected"
        pairs = list(zip(vals, vals[1:]))
        if plan.kind in ("lcs_law", "scrabble_law"):
            ok = all(a <= b for a, b in pairs) and all(
                float(v).is_integer() and 0 <= v <= n for v, n in zip(vals, plan.schedule))
        else:
            ok = all(a >= b for a, b in pairs) and all(0 <= v <= 1 for v in vals)
        if not ok:
            return f"trial {trial}: statistic not monotone in n or out of range"
    return None


def main(request: dict) -> dict:
    import yaml
    sys.path.insert(0, str(ROOT / "src"))
    from matchdim import harness

    with open(ROOT / "configs" / f"{request['config']}.yaml") as fh:
        cfg = yaml.safe_load(fh)
    cfg.update(request.get("overrides", {}))
    plan = harness.plan_from_config(cfg)
    reply = {"ready_at": time.monotonic()}
    if request.get("setup_only"):
        return reply

    recorder = None
    if request.get("trace"):
        import spans
        recorder = spans.Recorder(request["run_id"])
        spans.install(recorder)
    cpu0 = os.times()
    t0 = time.perf_counter()
    try:
        result = harness.run(plan)
    except Exception as exc:  # a failed run is counted, not fatal
        reply["error"] = f"{type(exc).__name__}: {exc}"
        return reply
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    reply.update(
        wall_s=wall,
        cpu_s=sum(cpu1[:4]) - sum(cpu0[:4]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        csv_sha256=hashlib.sha256(result.to_csv().encode()).hexdigest(),
        passed=bool(result.passed),
        invariant_error=_check_rows(plan, result),
    )
    if recorder is not None:
        reply["spans"] = recorder.spans
        reply["missing"] = recorder.missing
    return reply


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
