"""matchdim benchmark: committed experiment configs run end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload lcs_markov [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record    # rewrite perfbench/references.json

Closed loop, one client: experiment runs go back to back, each in a fresh
interpreter (perfbench/worker.py) that imports matchdim, loads the config,
builds the plan with `harness.plan_from_config` and runs it with
`harness.run(plan)` at default arguments, as the CLI does. Runs continue
while the next one is predicted to finish within --seconds; at least one
run (one untraced and one traced run with --trace 1) is always made.

Every run's output is checked: its CSV sha256 and gate verdict must equal
the recorded reference for the workload's default seed, or, for any other
seed, the first run of the invocation; the rows must also satisfy
invariants that hold for every seed. An exception or mismatch counts as a
failed run.

With --trace 0 the last line reports the end-to-end metrics, with --trace 1
the per-layer metrics; earlier lines print each metric with its unit and
the run context. A record with every run (and its spans) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"

DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    overrides: dict = field(default_factory=dict)  # tests shrink plans here

    @property
    def config(self) -> Path:
        return ROOT / "configs" / f"{self.name}.yaml"


# Trials are cut so a run of 40 s on a 2-core machine holds two or more
# experiments; random_perturbed is cut to 2 so that its median is taken over
# six or more experiments, as its per-experiment time varies most on a shared
# host. Seeds come from (seed, trial, role), so trials 0..T-1 use
# exactly the inputs of the full config's first T trials; source, encoder,
# system and schedule stay as committed because the largest n sets the
# working set.
WORKLOADS = {w.name: w for w in (
    Workload("lcs_markov", trials=10),
    Workload("random_perturbed", trials=2),
    Workload("entropy_markov", trials=1),
)}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def default_seed(workload: Workload) -> int:
    import yaml
    with open(workload.config) as fh:
        return int(yaml.safe_load(fh).get("seed", 0))


def _spawn(request: dict, deadline: float) -> dict:
    """Run the worker in a fresh interpreter; time set-up from the spawn."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"error": "timed out", "elapsed_s": time.monotonic() - t0}
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0], "elapsed_s": elapsed}
    reply = json.loads(lines[-1])
    reply["setup_s"] = reply.pop("ready_at") - t0
    reply["elapsed_s"] = elapsed
    return reply


def _failure(run: dict, expected: tuple | None) -> str | None:
    if "error" in run:
        return run["error"]
    if run.get("setup_only"):
        return None
    if run["invariant_error"]:
        return run["invariant_error"]
    if expected is not None and (run["csv_sha256"], run["passed"]) != expected:
        return "CSV digest or gate verdict differs from the expected output"
    return None


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict | None = None) -> dict:
    """Run the closed loop for one workload; return runs, checks and metrics.

    `reference` holds the expected `csv_sha256` and `passed` for this seed;
    without one, every run must agree with the first.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    request = {"config": workload.name,
               "overrides": {**workload.overrides, "trials": workload.trials,
                             "seed": seed}}
    cycle = (False, True) if trace else (False,)
    runs: list[dict] = []
    while True:
        for traced in cycle:
            run_id = f"{workload.name}-{seed}-{len(runs)}"
            run = _spawn(dict(request, trace=traced, run_id=run_id), deadline)
            runs.append(dict(run, traced=traced, run_id=run_id))
        last = sum(r["elapsed_s"] for r in runs[-len(cycle):])
        # keep room for the set-up-only interpreters that still have to run
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        reserve = (0.0 if trace else
                   max(SETUP_SAMPLES - len(setups), 0) * max(setups, default=1.0))
        now = time.monotonic()
        if now - start + last + reserve > seconds or now + last > deadline:
            break
    if not trace:
        for _ in range(SETUP_SAMPLES - sum("setup_s" in r for r in runs)):
            if time.monotonic() + 10.0 > deadline:
                break
            runs.append(dict(_spawn(dict(request, setup_only=True), deadline),
                             setup_only=True))

    expected = None
    if reference is not None:
        expected = (reference["csv_sha256"], reference["passed"])
    else:
        first = next((r for r in runs if "csv_sha256" in r), None)
        if first is not None:
            expected = (first["csv_sha256"], first["passed"])
    for run in runs:
        run["failure"] = _failure(run, expected)
    timed = [r for r in runs if "wall_s" in r]
    if not timed:
        raise RuntimeError(f"no run completed: {runs[0].get('error')}")
    failed = sum(r["failure"] is not None for r in runs)
    report = {"attempted": len(runs), "failed": failed, "runs": runs,
              "unmeasured": [], "metrics": {}}
    if trace:
        report["metrics"], report["unmeasured"] = _layer_metrics(timed)
    else:
        report["metrics"] = {
            "trials_per_s": statistics.median(workload.trials / r["wall_s"] for r in timed),
            "setup_s": statistics.median(r["setup_s"] for r in runs if "setup_s" in r),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
    return report


def _layer_metrics(timed: list[dict]) -> tuple[dict, list]:
    """Means over the traced runs, so busy times still add up to the wall."""
    import spans
    traced = [r for r in timed if r["traced"]]
    untraced = [r for r in timed if not r["traced"]]
    if not traced or not untraced:
        raise RuntimeError("a traced and an untraced run are both needed")
    per_run = [spans.layer_metrics(r["spans"], r["wall_s"], r["cpu_s"]) for r in traced]
    metrics = {k: statistics.fmean(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.wall_s"] = statistics.fmean(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return metrics, spans.unmeasured_layers(traced[0]["missing"])


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # a plain source checkout has no .git


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_context(workload: Workload, seed: int) -> dict:
    """Not gated: what the numbers were measured on."""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"commit": _git_commit(), "workload": workload.name, "seed": seed,
            "trials": workload.trials, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "src_lines": src_lines}


def report_lines(report: dict, trace: bool) -> list[str]:
    """One line per metric: name, value, unit, and how it was obtained."""
    units = declared_units(trace)
    timed = [r for r in report["runs"] if "wall_s" in r]
    lines = []
    for name, unit in units.items():
        value = report["metrics"][name]
        layer = name.split(".")[0]
        if layer in report["unmeasured"]:
            note = "unmeasured: no wrapped function of this layer exists"
        elif name == "trace.overhead_frac":
            note = "median traced wall over median untraced wall, minus 1"
        elif trace:
            note = f"mean of {sum(r['traced'] for r in timed)} traced runs"
        elif name == "setup_s":
            note = f"median of {sum('setup_s' in r for r in report['runs'])} interpreters"
        else:
            note = f"median of {len(timed)} runs"
        lines.append(f"{name} {value:.6g} {unit}  ({note})")
    if not trace:
        frac = report["failed"] / report["attempted"]
        lines.append(f"fail_frac {frac:.6g} ratio  "
                     f"({report['failed']} of {report['attempted']} runs failed)")
    for run in report["runs"]:
        if run["failure"]:
            lines.append(f"failed run {run.get('run_id', 'setup')}: {run['failure']}")
    return lines


def result_line(report: dict, trace: bool) -> str:
    units = declared_units(trace)
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def record_references() -> int:
    """Run each workload twice at its default seed; store the agreed output."""
    refs = {}
    for workload in WORKLOADS.values():
        seed = default_seed(workload)
        reports = [measure(workload, seed, seconds=0.0, trace=False) for _ in range(2)]
        outputs = {(r["csv_sha256"], r["passed"]) for report in reports
                   for r in report["runs"] if "csv_sha256" in r}
        if any(report["failed"] for report in reports) or len(outputs) != 1:
            print(f"{workload.name}: runs failed or disagree", file=sys.stderr)
            return 1
        (sha, passed), = outputs
        refs[workload.name] = {"seed": seed, "trials": workload.trials,
                               "csv_sha256": sha, "passed": passed}
        print(f"{workload.name} seed={seed} trials={workload.trials} "
              f"sha256={sha} passed={passed}")
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference digests and exit")
    args = parser.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "matchdim" / "harness.py").is_file():
        print(f"matchdim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if not workload.config.is_file():
        print(f"config not found: {workload.config}", file=sys.stderr)
        return 2

    seed = default_seed(workload) if args.seed is None else args.seed
    ref = json.loads(REFERENCES.read_text()).get(workload.name)
    if ref is not None and (ref["seed"], ref["trials"]) != (seed, workload.trials):
        ref = None
    trace = bool(args.trace)
    try:
        report = measure(workload, seed, args.seconds, trace, ref)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    context = run_context(workload, seed)
    print("context " + " ".join(f"{k}={v!r}" for k, v in context.items()))
    for line in report_lines(report, trace):
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({"context": context, **report}, indent=1) + "\n")
    print(result_line(report, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
