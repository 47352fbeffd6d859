"""gossipgn benchmark: one workload, end-to-end timings or a traced run.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Repeats the workload's verb-level call, untraced, for about --seconds
seconds and checks every call's outputs. With --trace 0 it also times the
cold set-up in fresh interpreters between the calls and reports the
end-to-end metrics; with --trace 1 it makes one extra traced call and
reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object.
A detailed record (environment, samples, span table) is written to
.perfbench_out/ and the spans of a traced call next to it.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from bootstrap import ROOT, BootstrapError, environment, import_gossipgn, pin_threads
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, layer_metrics, missing_coverage

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
REFERENCES = Path(__file__).resolve().parent / "references.json"
TMP_ROOT = ROOT / ".perfbench_tmp"
RECORD_DIR = ROOT / ".perfbench_out"
SETUP_PROBES_PER_CALL = 2
PROBE_TIMEOUT_S = 60
# A reference within this relative difference counts as correct; the exact
# distance is reported as result_agree_digits.
CORRECT_REL_TOL = 1e-6
MAX_DIGITS = 17.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def agree_digits(rel_err: float) -> float:
    """Decimal digits of agreement, capped at MAX_DIGITS for an exact match."""
    if rel_err == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(rel_err)) if math.isfinite(rel_err) else 0.0


def setup_time(argv: list[str]) -> float:
    """Cold set-up time of one fresh interpreter running setup_probe.py."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), *argv],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin_threads()
        import_gossipgn()
    except BootstrapError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def run(args, work: Path) -> int:
    # Imported here: numpy must load after pin_threads().
    from gossipgn.config import load_config
    from tracing import Tracer, instrumented, span_table
    import workloads as wl

    workload, seed = args.workload, args.seed
    config_paths = wl.write_configs(workload, seed, work)
    configs = [load_config(p) for p in config_paths]
    problems: list[str] = []

    probe_argv = None if args.trace else wl.cli_argv(workload, config_paths)
    if probe_argv:
        setup_time(probe_argv)  # warms the file caches; not counted

    # Timed, untraced calls. The loop stops when one more median-length
    # round (call, checks and set-up probes) would overrun --seconds; there
    # is always at least one call.
    walls, cpus, rounds, setups, attempted, failed = [], [], [], [], 0, 0
    first, repeats = None, []
    t_begin = time.perf_counter()
    while True:
        out_dir = work / f"call{attempted}"
        attempted += 1
        t_round = time.perf_counter()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            wl.call_verb(workload, configs, out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            break
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        outputs = wl.collect_outputs(workload, out_dir)
        shutil.rmtree(out_dir)
        problems += outputs.problems
        if first is None:
            first = outputs
        else:
            repeats.append(wl.compare_to_reference(outputs, first.as_reference()))
            if outputs.csv_sha256 != first.csv_sha256:
                problems.append(f"call {attempted} wrote different CSVs than call 1 (same seed)")
        if probe_argv:
            # Probes are spread between the calls, so their median covers the
            # same stretch of the machine's drifting speed as run_s does.
            setups += [setup_time(probe_argv) for _ in range(SETUP_PROBES_PER_CALL)]
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() - t_begin + statistics.median(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    reference = references.get(workload, {}).get(str(seed))
    record = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "reference": "recorded" if reference else "none: outputs checked for self-consistency only",
    }

    traced = None
    if args.trace and first is not None:
        tracer = Tracer()
        out_dir = work / "traced"
        attempted += 1
        try:
            with instrumented(tracer):
                t0 = time.perf_counter()
                wl.call_verb(workload, configs, out_dir)
                traced_s = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            outputs = wl.collect_outputs(workload, out_dir)
            if outputs.csv_sha256 != first.csv_sha256:
                problems.append("the traced call wrote different CSVs than the untraced calls")
            table = span_table(tracer.spans)
            problems += [f"span coverage: {m}" for m in missing_coverage(workload, table, tracer.counts)]
            traced = layer_metrics(
                table, tracer.counts, len(tracer.spans), outputs.csv_bytes,
                traced_s - statistics.median(walls),
            )
            record["traced_run_s"] = traced_s
            record["span_table"] = table
            record["counts"] = dict(tracer.counts)
            write_spans(tracer.spans, workload, seed)

    if reference and first is not None:
        outputs_match, rel_err = wl.compare_to_reference(first, reference)
        if rel_err > CORRECT_REL_TOL:
            problems.append(f"result differs from the recorded reference by {rel_err:.3e}")
    else:
        # Not applicable without a reference. The result line carries every
        # end-to-end metric, so these two then measure how well the later
        # calls repeated the first one, and the record marks them.
        outputs_match = min((share for share, _ in repeats), default=1.0)
        rel_err = max((err for _, err in repeats), default=0.0)
        record["not_applicable"] = ["outputs_match", "result_agree_digits"]

    metrics, units = {}, {}
    if first is not None and not args.trace:
        run_s, cpu_s, setup_s = quartiles(walls), quartiles(cpus), quartiles(setups)
        record.update(run_s=run_s, cpu_s=cpu_s, setup_s=setup_s, result_rel_err=rel_err,
                      csv_sha256=first.csv_sha256, values=first.values)
        metrics = {
            "run_s": run_s["median"],
            "cpu_s": cpu_s["median"],
            "setup_s": setup_s["median"],
            "peak_rss_mb": peak_rss_mb,
            "outputs_match": outputs_match,
            "result_agree_digits": agree_digits(rel_err),
            "exchanges_to_2x_floor": first.exchanges_to_2x_floor or 0,
            "ok_runs_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    elif traced is not None:
        metrics = traced
        units = PER_LAYER_UNITS

    correct = bool(metrics) and failed == 0 and not problems
    record.update(correct=correct, attempted=attempted, failed=failed, problems=problems, metrics=metrics)
    RECORD_DIR.mkdir(exist_ok=True)
    record_path = RECORD_DIR / f"{workload}-seed{seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {workload} seed {seed}: {attempted} calls, {failed} failed, "
          f"reference {record['reference']}; record {record_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        detail = ""
        if name in ("run_s", "cpu_s", "setup_s"):
            spread = record[name]
            detail = f"  (median of {spread['n']}, q1 {spread['q1']:.4f}, q3 {spread['q3']:.4f})"
        elif name in ("outputs_match", "result_agree_digits") and not reference:
            detail = "  (not applicable: no recorded reference for this seed; repeats of call 1 only)"
        print(f"{name} = {value} {units[name]}{detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(spans: list[list], workload: str, seed: int) -> None:
    """Spans as JSON lines [name, start, end, parent index], gzip-compressed."""
    RECORD_DIR.mkdir(exist_ok=True)
    with gzip.open(RECORD_DIR / f"{workload}-seed{seed}-spans.jsonl.gz", "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
