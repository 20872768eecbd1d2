"""Command line front end.

Subcommands map one-to-one onto experiment kinds (`lcs-law`, `scrabble-law`,
`orbit-law`, `random-orbit-law`, `entropy`). Each reads a YAML config, writes
the per-trial CSV to --out (or stdout) and a one-line summary to stderr; the
exit status is 0 exactly when every configured tolerance gate passed, 1 when
a gate failed, and 2 for a bad flag such as `--threads 0`, a config error
(a file that cannot be read or parsed, not a mapping, a kind that does not
match the subcommand, a bad, missing or unknown key, or specs that do not fit
together) or an --out path that cannot be written; a config or output error
is reported as one line on stderr, before any trial runs.
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
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")

    try:
        with open(args.config) as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as e:  # a parser message spans several lines
        print(f"config error: {' '.join(str(e).split())}", file=sys.stderr)
        return 2
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
    if args.out:
        try:  # fail before the trials run, not after
            open(args.out, "a").close()
        except OSError as e:
            print(f"output error: {e}", file=sys.stderr)
            return 2
    result = harness.run(plan, threads=args.threads)
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
