"""Command-line entry point.

Every subcommand runs the pipeline from a JSON experiment configuration up
to (and including) its own stage; ``run`` executes everything. Stages are
deterministic, so partial commands recompute earlier stages instead of
depending on previous invocations.

Exit codes: 0 success, 2 configuration/validation error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, KgPromptError
from .pipeline import STAGES, ExperimentConfig, MockBackend, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgprompt",
        description=(
            "Extract knowledge-graph structures for variable pairs, verbalize them, "
            "build prompts, and run the few-shot evaluation protocol."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in (*STAGES, "run"):  # "run" runs every stage
        p = sub.add_parser(command, help=f"run the pipeline through the {command} stage")
        p.add_argument("--config", required=True, help="experiment configuration JSON file")
        p.add_argument("--seed", type=int, default=None, help="override every stage seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--cache", default=None, help="override the remote query cache directory")
        p.add_argument(
            "--offline",
            action="store_true",
            help="serve remote queries from the cache only (read_only policy)",
        )
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if args.seed is not None:
        updates["folds"] = replace(config.folds, seed=args.seed)
        updates["selection_seed"] = args.seed
        updates["few_shot"] = replace(config.few_shot, seed=args.seed)
        if isinstance(config.backend, MockBackend):
            updates["backend"] = replace(config.backend, seed=args.seed)
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.cache is not None:
        updates["kg"] = replace(config.kg, cache_dir=args.cache)
    return replace(config, **updates) if updates else config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(ExperimentConfig.from_json(args.config), args)
        until = STAGES[-1] if args.command == "run" else args.command
        out = run_experiment(config, offline=args.offline, until=until)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KgPromptError as exc:  # a StageError or another failure past the config
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
