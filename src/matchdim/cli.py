"""Command line front end.

Subcommands map one-to-one onto experiment kinds (`lcs-law`, `scrabble-law`,
`orbit-law`, `random-orbit-law`, `entropy`) plus `selftest`. Each experiment
reads a YAML config, writes the per-trial CSV to --out (or stdout) and a
one-line summary to stderr; the exit status is 0 exactly when every
configured tolerance gate passed, 1 when a gate failed, and 2 for a config
error (not a mapping, a kind that does not match the subcommand, or a bad,
missing or unknown key), which is reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from . import harness

_KIND_BY_COMMAND = {
    "lcs-law": "lcs_law",
    "scrabble-law": "scrabble_law",
    "orbit-law": "orbit_law",
    "random-orbit-law": "random_orbit_law",
    "entropy": "entropy_check",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchdim",
        description="Matching/distance statistics experiments and their limit checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, kind in _KIND_BY_COMMAND.items():
        p = sub.add_parser(cmd, help=f"run a {kind} experiment from a config file")
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads over trials (output is unaffected)")
    sub.add_parser("selftest", help="run the oracle-equivalence release gate")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        report = harness.selftest()
        for line in report.lines():
            print(line)
        return 0 if report.ok else 1

    with open(args.config) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        print(f"config {args.config!r} must be a YAML mapping, got "
              f"{type(cfg).__name__}", file=sys.stderr)
        return 2
    expected = _KIND_BY_COMMAND[args.command]
    cfg.setdefault("experiment", expected)
    if cfg["experiment"] != expected:
        print(f"config declares experiment={cfg['experiment']!r} but the "
              f"subcommand expects {expected!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        plan = harness.plan_from_config(cfg)
    except (ValueError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    result = harness.run(plan, threads=max(1, args.threads))
    csv_text = result.to_csv()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(result.summary(), file=sys.stderr)
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
