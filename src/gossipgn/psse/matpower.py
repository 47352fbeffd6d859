"""Reader for the MATPOWER case subset this package understands.

Read content: `mpc.baseMVA` and the `mpc.bus`, `mpc.gen`, `mpc.branch`
matrices, with MATLAB `%` comments. Rows are whitespace-separated numbers,
optionally ending in `;`. Every other line (the `function mpc = <name>`
header, `mpc.version`, `mpc.gencost`) is ignored. Anything the electrical
model cannot represent (phase-shifting transformers) is rejected by the grid
builder, not silently dropped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ..errors import CaseParseError

BUS_COLS = 13
GEN_COLS = 10
BRANCH_COLS = 11

# column offsets (MATPOWER v2 layout)
BUS_I, BUS_TYPE, BUS_PD, BUS_QD, BUS_GS, BUS_BS = 0, 1, 2, 3, 4, 5
GEN_BUS, GEN_PG, GEN_QG, GEN_VG, GEN_STATUS = 0, 1, 2, 5, 7
BR_F, BR_T, BR_R, BR_X, BR_B, BR_TAP, BR_SHIFT, BR_STATUS = 0, 1, 2, 3, 4, 8, 9, 10


@dataclass(frozen=True)
class MatpowerCase:
    """Raw numeric tables of one case, still in MATPOWER units."""

    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray

    def __post_init__(self):
        for label, table, min_cols in (
            ("bus", self.bus, BUS_COLS),
            ("gen", self.gen, GEN_COLS),
            ("branch", self.branch, BRANCH_COLS),
        ):
            if table.ndim != 2 or table.shape[1] < min_cols:
                raise CaseParseError(
                    f"{label} table needs at least {min_cols} columns, got shape {table.shape}"
                )
        if self.base_mva <= 0:
            raise CaseParseError("baseMVA must be positive")


_SCALAR_RE = re.compile(r"mpc\.baseMVA\s*=\s*([^;\s]+)\s*;?")
_TABLE_RE = re.compile(r"mpc\.(bus|gen|branch)\s*=\s*\[")


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def parse_matpower_text(text: str) -> MatpowerCase:
    base_mva = None
    tables: dict[str, list[list[float]]] = {}
    current: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is not None:
            closed = False
            body = line
            if "]" in line:
                body = line[: line.index("]")]
                closed = True
            body = body.strip().rstrip(";").strip()
            if body:
                parts = body.replace(",", " ").split()
                try:
                    row = [float(p) for p in parts]
                except ValueError as exc:
                    raise CaseParseError(f"bad number in {current} row: {exc}", line_no)
                if not all(map(math.isfinite, row)):
                    raise CaseParseError(f"non-finite number in {current} row", line_no)
                rows = tables[current]
                if rows and len(rows[0]) != len(row):
                    raise CaseParseError(
                        f"{current} row has {len(row)} columns, expected {len(rows[0])}",
                        line_no,
                    )
                rows.append(row)
            if closed:
                current = None
            continue

        m = _SCALAR_RE.search(line)
        if m:
            try:
                base_mva = float(m.group(1))
            except ValueError as exc:
                raise CaseParseError(f"bad baseMVA: {exc}", line_no)
            if not math.isfinite(base_mva):
                raise CaseParseError("baseMVA must be finite", line_no)
            continue
        m = _TABLE_RE.search(line)
        if m:
            key = m.group(1)
            if key in tables:
                raise CaseParseError(f"duplicate mpc.{key} table", line_no)
            tables[key] = []
            current = key
            # rows may start on the same line after the bracket
            rest = line[m.end() :]
            if rest.strip():
                raise CaseParseError("table rows must start on the following line", line_no)
            continue

    if current is not None:
        raise CaseParseError(f"unterminated mpc.{current} table (missing ])")
    if base_mva is None:
        raise CaseParseError("missing mpc.baseMVA")
    for key in ("bus", "gen", "branch"):
        if key not in tables:
            raise CaseParseError(f"missing mpc.{key} table")
        if not tables[key]:
            if key != "branch":
                raise CaseParseError(f"empty mpc.{key} table")

    def as_array(rows: list[list[float]], width_hint: int) -> np.ndarray:
        if not rows:
            return np.zeros((0, width_hint))
        return np.asarray(rows, dtype=float)

    return MatpowerCase(
        base_mva=base_mva,
        bus=as_array(tables["bus"], BUS_COLS),
        gen=as_array(tables["gen"], GEN_COLS),
        branch=as_array(tables["branch"], BRANCH_COLS),
    )


def load_case(source: str | Path) -> MatpowerCase:
    """Load a case from a file path, or by packaged name ('case30', 'case2')."""
    path = Path(source)
    if not path.suffix and not path.exists():
        candidate = resources.files("gossipgn.psse").joinpath(f"data/{source}.m")
        if candidate.is_file():
            return parse_matpower_text(candidate.read_text(encoding="utf-8"))
        raise CaseParseError(f"unknown case {source!r} (no file and no packaged case)")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CaseParseError(f"case file not found: {path}") from None
    except OSError as exc:
        raise CaseParseError(f"cannot read case file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CaseParseError(f"case file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_matpower_text(text)
