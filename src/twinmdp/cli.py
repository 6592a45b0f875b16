"""Command-line entry point for the workflow stages.

Every subcommand takes the same flags: --config (required), --out for the
artifact directory, and --seed to override the config's master seed. Exit
codes: 0 success, 2 invalid config, 3 missing upstream artifact, 4 stage
failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigInvalid, MissingArtifact, StageFailed, TwinMdpError
from .pipeline import STAGES, load_config, stage_reproduce, validate_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_STAGE = 4

_COMMANDS = {**STAGES, "reproduce": stage_reproduce}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinmdp",
        description="Offline policy improvement pipeline for exploration agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument("--config", required=True, help="pipeline config (YAML or JSON)")
        cmd.add_argument("--out", default="artifacts", help="artifact directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's master seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            raw = dict(cfg.raw)
            raw["master_seed"] = args.seed
            cfg = validate_config(raw)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result = _COMMANDS[args.command](cfg, out)
    except ConfigInvalid as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(exc, file=sys.stderr)
        return EXIT_MISSING
    except StageFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_STAGE
    except TwinMdpError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR

    if args.command == "reproduce":
        _print_summary(result)
    elif args.command == "evaluate":
        print(f"report written to {out / 'report.json'}")
    else:
        outputs = ", ".join(result.get("outputs", {}))
        print(f"{args.command}: wrote {outputs}")
    return EXIT_OK


def _print_summary(summary: dict) -> None:
    methods = summary["methods"]
    width = max(len(m) for m in methods)
    print(f"{'method'.ljust(width)}  recall@3  f1@3    p_adj      rank  explored")
    for name in sorted(methods):
        e = methods[name]
        p_adj = e.get("p_adjusted")
        p_text = f"{p_adj:.2e}" if p_adj is not None else "      -  "
        star = "*" if e.get("significant") else " "
        print(
            f"{name.ljust(width)}  {e['pass3_recall_mean']:.4f}    "
            f"{e['pass3_f1_mean']:.4f}  {p_text}{star}  "
            f"{e['avg_rank']:.2f}  {e['mean_entities_explored']:.2f}"
        )


if __name__ == "__main__":
    sys.exit(main())
