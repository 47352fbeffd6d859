"""Process set-up shared by every benchmark entry point.

BLAS threads are pinned to one before numpy loads, so a run measures one
core's work and summation order (hence every CSV byte) does not depend on
the machine's core count. gossipgn is imported from this checkout's src/
and from nowhere else.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BootstrapError(RuntimeError):
    """The checkout cannot be benchmarked (no src/ or a foreign gossipgn)."""


def pin_threads() -> None:
    """Set the BLAS thread variables to 1 for this process and its children.

    Must run before numpy is imported; a numpy already loaded keeps its pool.
    """
    if "numpy" in sys.modules:
        raise BootstrapError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_gossipgn():
    """Import gossipgn from ROOT/src and fail unless it resolved there."""
    if not (SRC / "gossipgn" / "__init__.py").is_file():
        raise BootstrapError(f"no gossipgn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gossipgn

    where = Path(gossipgn.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BootstrapError(f"gossipgn resolved to {where}, not under {SRC}")
    return gossipgn


def environment() -> dict:
    """Interpreter, numpy, BLAS, CPU and the identity of the src/ tree measured."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        def run_git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True, timeout=30)

        head = run_git("rev-parse", "HEAD")
        status = run_git("status", "--porcelain", "--", "src")
        if head.returncode == 0 and status.returncode == 0:
            git = {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_git": git,
        "src_sha256": src_hash.hexdigest(),
    }
