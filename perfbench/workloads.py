"""The three benchmark workloads: configs from a seed, the verb call, outputs.

Every workload runs on case30 (59 unknowns, 224 measurements). The seed is
the config's ``seed``, so it fixes the measurement noise, the URE draws and
the certificate's sample points; the amount of work does not depend on it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

URE_FAILURE_PROB = 0.3

# verb, config overrides per config file, directory of the GGN run's CSVs,
# and the summary files with the prefix their values are reported under.
SPECS = {
    "cse3_certify": {
        "verb": "run",
        "configs": [{"repetitions": 5}],
        "ggn_dir": ".",
        "summaries": {"summary.txt": ""},
    },
    "ure30_lossy": {
        "verb": "sweep-failures",
        "configs": [
            {
                "sites": 30,
                "protocol": {"kind": "ure", "beta": 0.5},
                "exchanges": {"kind": "constant", "base": 30},
                "max_updates": 40,
                "ridge": 1.0e-4,
                "repetitions": 1,
            }
        ],
        "ggn_dir": f"p_{URE_FAILURE_PROB:g}",
        "summaries": {f"p_{URE_FAILURE_PROB:g}/summary.txt": ""},
    },
    "diffusion900_compare": {
        "verb": "compare",
        "configs": [
            {"repetitions": 1},
            {"repetitions": 1, "algorithm": "diffusion", "diffusion": {"total_exchanges": 900}},
        ],
        "ggn_dir": "ggn",
        "summaries": {"ggn/summary.txt": "ggn.", "diffusion/summary.txt": "diffusion."},
    },
}

# Summary values compared against the reference. The constants exist only
# where a certificate was computed.
RESULT_KEYS = (
    "final_val_global_mean",
    "final_grad_global_mean",
    "final_mse_v_mean",
    "final_max_disagreement_mean",
    "final_error_to_reference_mean",
)
CONSTANT_KEYS = ("constants.omega", "constants.sigma_min", "constants.sigma_max", "constants.epsilon_max")


def config_mappings(workload: str, seed: int) -> list[dict]:
    base = {"case_path": "case30", "seed": seed, "output_dir": "out"}
    return [{**base, **overrides} for overrides in SPECS[workload]["configs"]]


def write_configs(workload: str, seed: int, directory: Path) -> list[Path]:
    paths = []
    for i, mapping in enumerate(config_mappings(workload, seed)):
        path = directory / f"{workload}_{i}.yaml"
        path.write_text(yaml.safe_dump(mapping, sort_keys=True))
        paths.append(path)
    return paths


def cli_argv(workload: str, config_paths: list[Path]) -> list[str]:
    """The gossipgn command line that runs this workload."""
    verb = SPECS[workload]["verb"]
    argv = [verb, *map(str, config_paths)]
    if verb == "sweep-failures":
        argv += ["--p", f"{URE_FAILURE_PROB:g}"]
    return argv


def call_verb(workload: str, configs: list, out_dir: Path) -> None:
    """The verb-level call, with output sent to out_dir.

    Functions are looked up on the module at call time, so a traced run's
    wrappers are the ones called.
    """
    from gossipgn import experiments

    verb = SPECS[workload]["verb"]
    if verb == "run":
        experiments.run_experiment(configs[0], env_output_dir=str(out_dir))
    elif verb == "sweep-failures":
        experiments.run_failure_sweep(configs[0], [URE_FAILURE_PROB], env_output_dir=str(out_dir))
    else:
        experiments.compare_algorithms(configs[0], configs[1], env_output_dir=str(out_dir))


@dataclass
class Outputs:
    """What one call wrote, reduced to the numbers the benchmark checks."""

    csv_sha256: dict[str, str]
    values: dict[str, float]
    exchanges_to_2x_floor: int | None
    csv_bytes: int
    problems: list[str] = field(default_factory=list)

    def as_reference(self) -> dict:
        """These outputs in the shape of a recorded reference."""
        return {"csv_sha256": self.csv_sha256, "values": self.values}


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def first_exchange_within(metrics_mean: Path, target: float) -> int | None:
    """First cumulative exchange whose sum of val over agents is <= target."""
    sums: dict[tuple[int, int], float] = {}
    with open(metrics_mean, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["snapshot"]), int(row["exchange"]))
            sums[key] = sums.get(key, 0.0) + float(row["val"])
    for (_, exchange), total in sorted(sums.items()):
        if total <= target:
            return exchange
    return None


def collect_outputs(workload: str, out_dir: Path) -> Outputs:
    spec = SPECS[workload]
    digests = {}
    csv_bytes = 0
    for path in sorted(out_dir.rglob("*.csv")):
        data = path.read_bytes()
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
        csv_bytes += len(data)

    values: dict[str, float] = {}
    for rel, prefix in spec["summaries"].items():
        summary = read_summary(out_dir / rel)
        for key in RESULT_KEYS + CONSTANT_KEYS:
            if key in summary:
                values[prefix + key] = float(summary[key])

    problems = [f"{key} is not finite" for key, v in values.items() if not math.isfinite(v)]
    ggn_dir = out_dir / spec["ggn_dir"]
    noise_floor = float(read_summary(ggn_dir / "summary.txt")["noise_floor"])
    reached = first_exchange_within(ggn_dir / "metrics_mean.csv", 2.0 * noise_floor)
    if reached is None:
        problems.append("the GGN run never reached 2x the noise floor")
    return Outputs(digests, values, reached, csv_bytes, problems)


def compare_to_reference(outputs: Outputs, reference: dict) -> tuple[float, float]:
    """(share of CSV digests equal to the reference, largest relative difference)."""
    expected = reference["csv_sha256"]
    names = set(expected) | set(outputs.csv_sha256)
    matches = sum(outputs.csv_sha256.get(n) == expected.get(n) for n in names)
    rel_err = 0.0
    for key, ref in reference["values"].items():
        got = outputs.values.get(key, math.nan)
        diff = abs(got - ref) / abs(ref) if ref != 0.0 else abs(got)
        rel_err = max(rel_err, diff) if math.isfinite(diff) else math.inf
    return matches / len(names), rel_err
