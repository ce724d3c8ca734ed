"""Command-line interface for the experiment harness.

``gibbslab run CONFIG [--out DIR] [--workers N]`` runs a configuration;
the configuration alone selects the theorems and the master seed.
Exit codes: 0 all assertions pass, 1 assertion failure, 2 configuration
error (also a usage error), 3 numerical/oracle error.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .errors import ConfigError, GibbslabError
from .harness import load_config, run_experiment
from .landscapes import BUILTIN_DATA_MODELS, BUILTIN_LANDSCAPES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Run bound-vs-oracle experiments from a JSON configuration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment configuration")
    run.add_argument("config", help="path to the JSON configuration file")
    run.add_argument("--out", help="output directory (default: the config's output_dir)")
    run.add_argument("--workers", type=int, default=1, help="concurrent sweep points")

    val = sub.add_parser("validate", help="validate a configuration and exit")
    val.add_argument("config", help="path to the JSON configuration file")

    sub.add_parser("list-landscapes", help="list built-in landscapes and data models")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg, out_dir=args.out, workers=max(1, args.workers))
    n_fail = sum(1 for r in result.rows if r["passed"] is False)
    print(f"wrote {result.run_dir} ({len(result.rows)} rows, {n_fail} failures)")
    for row in result.rows:
        if row["passed"] is False:
            print(f"  FAIL {row['theorem']} {row['key']}")
    return 0 if result.all_passed else 1


def _cmd_validate(args) -> int:
    load_config(args.config)
    print("configuration ok")
    return 0


def _cmd_list_landscapes() -> int:
    print("landscapes:")
    for name in sorted(BUILTIN_LANDSCAPES):
        factory = BUILTIN_DATA_MODELS.get(name, BUILTIN_LANDSCAPES[name])
        try:
            params = ", ".join(
                p
                for p, spec in inspect.signature(factory).parameters.items()
                if spec.kind is not inspect.Parameter.VAR_KEYWORD
            )
        except (TypeError, ValueError):
            params = "..."
        print(f"  {name}({params})")
    print("data models:")
    for name in sorted(BUILTIN_DATA_MODELS):
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list_landscapes()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GibbslabError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
