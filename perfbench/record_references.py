"""Record reference CSV digests and summary values for given seeds.

Usage: python3 perfbench/record_references.py --seeds 1 2

Runs every workload once per seed, untraced, under the same thread pinning
as the benchmark, and merges the result into perfbench/references.json.
Run it only on a commit whose outputs are the intended reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from bootstrap import ROOT, environment, import_gossipgn, pin_threads
from metrics import WORKLOADS

REFERENCES = Path(__file__).resolve().parent / "references.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    pin_threads()
    import_gossipgn()
    from gossipgn.config import load_config
    import workloads as wl

    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    env = environment()
    references["recorded_from"] = {"src_sha256": env["src_sha256"], "src_git": env["src_git"]}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=tmp_root))
    try:
        for workload in WORKLOADS:
            for seed in args.seeds:
                seed_dir = work / f"{workload}-{seed}"
                seed_dir.mkdir()
                configs = [load_config(p) for p in wl.write_configs(workload, seed, seed_dir)]
                wl.call_verb(workload, configs, seed_dir / "out")
                outputs = wl.collect_outputs(workload, seed_dir / "out")
                if outputs.problems:
                    raise SystemExit(f"{workload} seed {seed}: {outputs.problems}")
                references.setdefault(workload, {})[str(seed)] = {
                    "csv_sha256": outputs.csv_sha256, "values": outputs.values,
                }
                print(f"recorded {workload} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
