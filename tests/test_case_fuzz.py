"""Property test: malformed case text fails at the parser with a toolkit error.

Mutated case2/case30 text, and case text with non-finite numbers, either
raises CaseParseError or UnsupportedFeatureError, or parses into a grid
model that holds what the model code takes without a check: at least two
buses, a slack index in range, a finite and exactly symmetric admittance
matrix, branch arrays of the bus count with every end in range, bus types
1 to 3, a voltage setpoint at every PV bus and at the slack bus, and
read-only arrays. The CLI maps the two errors to exits 3 and 4. A numpy
RuntimeWarning (overflow, invalid cast) escaping parse and build fails the
property too: it marks a value that slipped past the checks.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gossipgn.psse
from gossipgn.cli import main
from gossipgn.errors import CaseParseError, UnsupportedFeatureError

from conftest import parse_matpower_case

DATA = Path(gossipgn.psse.__file__).resolve().parent / "data"
CASE_TEXTS = [(DATA / name).read_text() for name in ("case2.m", "case30.m")]
TOOLKIT_ERRORS = (CaseParseError, UnsupportedFeatureError)
EXIT_CODES = {CaseParseError: 3, UnsupportedFeatureError: 4}

NON_FINITE = ["nan", "NaN", "inf", "-inf", "Inf", "1e400", "-1e999"]
TOKENS = NON_FINITE + ["", "0", "-1", "1e-300", "x", "1..0", "[", "];", ";", "%", "=", "1 2"]
CHARS = "0123456789.-+eE;[]=% \tnaifx\n"
CASE2 = CASE_TEXTS[0]
PHASE_SHIFTED = CASE2.replace("\t0\t0\t1\t-360", "\t0\t30\t1\t-360")
UNTERMINATED = CASE2.rsplit("];", 1)[0]
SLACK_GEN_OUT = CASE2.replace("\t100\t1\t200\t", "\t100\t0\t200\t")


def _numeric_fields(lines: list[str]) -> list[tuple[int, int]]:
    """(line, token) positions of the table numbers and of baseMVA."""
    fields, in_table = [], False
    for i, line in enumerate(lines):
        code = line.split("%")[0].strip()
        if code.startswith("mpc.baseMVA"):
            fields.append((i, len(line.split()) - 1))
        elif code.endswith("["):
            in_table = True
        elif code.startswith("]"):
            in_table = False
        elif in_table and code:
            fields += [(i, j) for j in range(len(line.split()))]
    return fields


@st.composite
def mutated_case(draw):
    """One case text with one line-, field-, token- or character-level mutation."""
    lines = draw(st.sampled_from(CASE_TEXTS)).split("\n")
    kind = draw(st.sampled_from(["drop", "duplicate", "truncate", "swap", "field", "token", "char"]))
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, line)
    elif kind == "truncate":
        lines[at] = line[: draw(st.integers(0, len(line)))]
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], line
    elif kind == "field":
        at, pos = draw(st.sampled_from(_numeric_fields(lines)))
        tokens = lines[at].split()
        tokens[pos] = draw(st.one_of(st.sampled_from(TOKENS), st.floats().map(repr)))
        lines[at] = " ".join(tokens)
    elif kind == "token":
        tokens = line.split(" ")
        pos = draw(st.integers(0, len(tokens) - 1))
        tokens[pos] = draw(st.sampled_from(TOKENS))
        lines[at] = " ".join(tokens)
    else:
        pos = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 1))
        lines[at] = line[:pos] + draw(st.text(CHARS, max_size=3)) + line[pos + cut :]
    return "\n".join(lines)


@st.composite
def non_finite_case(draw):
    """A case text with one table number or baseMVA replaced by a non-finite value."""
    lines = draw(st.sampled_from(CASE_TEXTS)).split("\n")
    i, j = draw(st.sampled_from(_numeric_fields(lines)))
    tokens = lines[i].split()
    tokens[j] = draw(st.sampled_from(NON_FINITE)) + (";" if tokens[j].endswith(";") else "")
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _parse_outcome(text: str):
    """None when the text parses into a model that holds the invariants, else
    the toolkit error class raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grid = parse_matpower_case(text)
    except TOOLKIT_ERRORS as exc:
        return type(exc)
    n, br = grid.n_buses, grid.branches
    assert n >= 2 and 0 <= grid.slack_bus < n
    assert np.isfinite(grid.ybus).all() and np.array_equal(grid.ybus, grid.ybus.T)
    assert br.yf.shape == br.yt.shape == (grid.n_branches, n)
    assert np.all((br.f >= 0) & (br.f < n) & (br.t >= 0) & (br.t < n))
    assert set(grid.bus_types.tolist()) <= {1, 2, 3}
    assert np.isfinite(grid.gen_v_setpoint[grid.bus_types == 2]).all()
    assert np.isfinite(grid.gen_v_setpoint[grid.slack_bus])
    arrays = [*vars(br).values(), *(v for v in vars(grid).values() if isinstance(v, np.ndarray))]
    assert not any(arr.flags.writeable for arr in arrays)
    return None


@settings(max_examples=300, deadline=None)
@given(mutated_case())
@example(text=SLACK_GEN_OUT)
def test_mutated_case_text_raises_only_toolkit_errors(text):
    _parse_outcome(text)


@settings(max_examples=150, deadline=None)
@given(non_finite_case())
def test_non_finite_fields_raise_case_parse_error(text):
    assert _parse_outcome(text) is CaseParseError


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(mutated_case(), non_finite_case()))
@example(text=PHASE_SHIFTED)
@example(text=UNTERMINATED)
def test_cli_maps_case_errors_to_exit_codes(tmp_path, capsys, text):
    error = _parse_outcome(text)
    if error is None:
        return
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    case_path = work / "mutated.m"
    case_path.write_text(text)
    config = work / "c.yaml"
    config.write_text(yaml.safe_dump({
        "case_path": str(case_path), "sites": 2, "max_updates": 1, "repetitions": 1,
        "output_dir": str(work / "out"),
    }))
    assert main(["run", str(config)]) == EXIT_CODES[error]
    assert "Traceback" not in capsys.readouterr().err


def test_pinned_examples_reach_both_error_classes():
    assert _parse_outcome(PHASE_SHIFTED) is UnsupportedFeatureError
    assert _parse_outcome(UNTERMINATED) is CaseParseError
    assert _parse_outcome(SLACK_GEN_OUT) is UnsupportedFeatureError
