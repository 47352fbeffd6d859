"""Cold set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <gossipgn argv...>

Times from before ``import gossipgn`` until the workload's ProblemSetup is
built: package import, CLI argument parsing, config loading, case parsing,
power flow and partitioning. Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time

from bootstrap import import_gossipgn, pin_threads


def main(argv: list[str]) -> int:
    pin_threads()
    t0 = time.perf_counter()
    import_gossipgn()
    from gossipgn.cli import build_parser
    from gossipgn.config import load_config
    from gossipgn.experiments import build_problem

    args = build_parser().parse_args(argv)
    paths = [args.config_ggn, args.config_diffusion] if args.verb == "compare" else [args.config]
    configs = [load_config(path) for path in paths]
    build_problem(configs[0])
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
