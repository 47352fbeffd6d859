"""Command-line front end.

Verbs:
    run <config>                         run one experiment
    sweep-failures <config> --p <list>   URE link-failure sweep
    compare <config_ggn> <config_diffusion>
    certify <config>                     print a convergence certificate

The GOSSIPGN_OUTPUT_DIR environment variable overrides output_dir from
the config. Exit codes: 0 ok, 2 config, 3 case parsing, 4 unsupported
feature, 5 numerical failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .errors import (
    CaseParseError,
    GossipGnError,
    PowerFlowError,
    SingularSystemError,
    UnsupportedFeatureError,
)
from .experiments import (
    compare_algorithms,
    run_experiment,
    run_failure_sweep,
    summary_line,
)

OUTPUT_DIR_ENV = "GOSSIPGN_OUTPUT_DIR"

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_CASE = 3
EXIT_UNSUPPORTED = 4
EXIT_NUMERIC = 5


def _env_output_dir() -> str | None:
    value = os.environ.get(OUTPUT_DIR_ENV, "")
    return value or None


def _parse_probs(text: str) -> list[float]:
    items = [piece for piece in text.replace(",", " ").split() if piece]
    if not items:
        raise ConfigError("--p needs at least one probability")
    try:
        return [float(piece) for piece in items]
    except ValueError as exc:
        raise ConfigError(f"--p: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_experiment(config, env_output_dir=_env_output_dir())
    print(f"wrote {len(result.rep_csv_paths)} repetition files to {result.output_dir}")
    print(f"mean metrics: {result.mean_csv_path}")
    print(f"summary: {result.summary_path}")
    return EXIT_OK


def cmd_sweep_failures(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    probs = _parse_probs(args.p)
    sweep = run_failure_sweep(config, probs, env_output_dir=_env_output_dir())
    print(f"degradation table: {sweep.table_path}")
    for row in sweep.table_rows:
        print(
            f"p={row['p']:g} final_mse_v_mean={row['final_mse_v_mean']:.6e} "
            f"agents_below_100x_floor={row['agents_below_100x_floor']}/{row['n_agents']} "
            f"max_disagreement={row['max_disagreement_final']:.6e}"
        )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config_a = load_config(args.config_ggn)
    config_b = load_config(args.config_diffusion)
    result = compare_algorithms(config_a, config_b, env_output_dir=_env_output_dir())
    print(f"comparison table: {result.table_path}")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_experiment(config, env_output_dir=_env_output_dir())
    for key, value in result.summary.items():
        if key.startswith("certificate.") or key.startswith("constants."):
            print(summary_line(key, value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipgn",
        description="Distributed Gauss-Newton over gossip protocols: experiment runner.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config", help="path to a YAML config file")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep-failures", help="repeat a URE experiment over link-failure probabilities"
    )
    p_sweep.add_argument("config", help="path to a YAML config file (algorithm=ggn, protocol=ure)")
    p_sweep.add_argument("--p", required=True, help="comma-separated failure probabilities")
    p_sweep.set_defaults(func=cmd_sweep_failures)

    p_cmp = sub.add_parser("compare", help="run GGN and the diffusion baseline on one instance")
    p_cmp.add_argument("config_ggn", help="config with algorithm=ggn")
    p_cmp.add_argument("config_diffusion", help="config with algorithm=diffusion")
    p_cmp.set_defaults(func=cmd_compare)

    p_cert = sub.add_parser("certify", help="run and print the convergence certificate")
    p_cert.add_argument("config", help="path to a YAML config file")
    p_cert.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CaseParseError as exc:
        print(f"case error: {exc}", file=sys.stderr)
        return EXIT_CASE
    except UnsupportedFeatureError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (PowerFlowError, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GossipGnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    except MemoryError as exc:
        # e.g. records for a diffusion.total_exchanges too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
