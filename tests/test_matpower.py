import re
import warnings

import numpy as np
import pytest

from gossipgn.errors import CaseParseError, UnsupportedFeatureError
from gossipgn.psse.grid import build_grid_model
from gossipgn.psse.matpower import (
    load_case,
    parse_matpower_text,
    MatpowerCase,
)

from conftest import CASE2_TEXT, grids_equal, parse_matpower_case


def _fmt(x: float) -> str:
    # repr round-trips exactly, keeping serialize -> parse lossless
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def serialize_case(case: MatpowerCase) -> str:
    out = ["function mpc = serialized", "mpc.version = '2';", ""]
    out.append(f"mpc.baseMVA = {_fmt(case.base_mva)};")
    for key in ("bus", "gen", "branch"):
        table = getattr(case, key)
        out.append("")
        out.append(f"mpc.{key} = [")
        for row in table:
            out.append("\t" + "\t".join(_fmt(v) for v in row) + ";")
        out.append("];")
    out.append("")
    return "\n".join(out)


def _edited(old: str, new: str) -> str:
    assert old in CASE2_TEXT, f"fixture text changed, {old!r} not found"
    return CASE2_TEXT.replace(old, new)


def test_roundtrip_preserves_grid(grid30):
    case = load_case("case30")
    text = serialize_case(case)
    again = build_grid_model(parse_matpower_text(text))
    assert grids_equal(again, grid30)


def test_roundtrip_two_bus():
    case = parse_matpower_text(CASE2_TEXT)
    assert grids_equal(parse_matpower_case(serialize_case(case)), parse_matpower_case(CASE2_TEXT))


def test_packaged_cases():
    assert load_case("case30").bus.shape[0] == 30
    assert load_case("case2").bus.shape[0] == 2
    with pytest.raises(CaseParseError, match="unknown case"):
        load_case("case9999")
    with pytest.raises(CaseParseError, match="not found"):
        load_case("/nonexistent/path/case.m")


def test_ieee30_model_shape(grid30):
    assert grid30.n_buses == 30
    assert grid30.n_branches == 41
    assert grid30.n_unknowns == 59
    assert grid30.slack_bus == 0
    assert np.allclose(grid30.ybus, grid30.ybus.T)


def test_packaged_two_bus_ybus_oracle(grid2):
    # packaged case2 line: r=0.01, x=0.1, b=0.02
    ys = 1.0 / (0.01 + 0.1j)
    assert grid2.ybus[0, 1] == pytest.approx(-ys)
    assert grid2.ybus[1, 0] == pytest.approx(-ys)
    assert grid2.ybus[0, 0] == pytest.approx(ys + 0.01j)
    assert grid2.ybus[1, 1] == pytest.approx(ys + 0.01j)
    assert grid2.branches.sh_f[0] == pytest.approx(0.01j)


def test_charging_split_onto_diagonal():
    # fixture text has b=0.02, half at each end
    grid = parse_matpower_case(CASE2_TEXT)
    ys = 1.0 / (0.01 + 0.1j)
    assert grid.ybus[0, 0] == pytest.approx(ys + 0.01j)
    assert grid.ybus[1, 1] == pytest.approx(ys + 0.01j)
    assert grid.ybus[0, 1] == pytest.approx(-ys)
    br = grid.branches
    assert br.ys[0] == pytest.approx(ys)
    assert br.sh_f[0] == pytest.approx(0.01j)
    assert br.sh_t[0] == pytest.approx(0.01j)


def test_tap_transformer_admittances():
    grid = parse_matpower_case(_edited("130 0 0 1 -360", "130 0.9 0 1 -360"))
    ys = 1.0 / (0.01 + 0.1j)
    tau = 0.9
    assert grid.ybus[0, 0] == pytest.approx((ys + 0.01j) / tau**2)
    assert grid.ybus[0, 1] == pytest.approx(-ys / tau)
    assert grid.ybus[1, 0] == pytest.approx(-ys / tau)
    assert grid.ybus[1, 1] == pytest.approx(ys + 0.01j)


def test_out_of_service_branch_dropped():
    text = _edited(
        "1 -360 360;\n];",
        "1 -360 360;\n    1 2 0.05 0.4 0 130 130 130 0 0 0 -360 360;\n];",
    )
    grid = parse_matpower_case(text)
    assert grid.n_branches == 1


THIRD_BUS = "    3 1 10 5 0 0 1 1.0 0 135 1 1.1 0.9;\n"
SELF_LOOP = "    3 3 0.01 0.1 0.02 130 130 130 0 0 1 -360 360;\n"


@pytest.mark.parametrize(
    "text, bus",
    [
        (_edited("0.9;\n];", "0.9;\n" + THIRD_BUS + "];"), 3),
        (_edited("130 0 0 1 -360", "130 0 0 0 -360"), 1),
        (
            _edited("0.9;\n];", "0.9;\n" + THIRD_BUS + "];").replace("360;\n];", "360;\n" + SELF_LOOP + "];"),
            3,
        ),
    ],
    ids=["third_bus", "branch_out_of_service", "self_loop"],
)
def test_a_bus_no_branch_reaches_is_rejected(text, bus):
    # a bus outside the network has no power flow: the parser says so, not a singular solve
    with pytest.raises(UnsupportedFeatureError, match=f"^bus {bus}: no in-service branch joins it"):
        parse_matpower_case(text)


def test_an_island_without_the_slack_bus_is_rejected():
    # buses 3 and 4 reach each other but neither reaches the slack bus 1
    fourth_bus = THIRD_BUS.replace("    3 ", "    4 ", 1)
    joined = SELF_LOOP.replace("    3 3 ", "    3 4 ", 1)
    text = _edited("0.9;\n];", "0.9;\n" + THIRD_BUS + fourth_bus + "];")
    text = text.replace("360;\n];", "360;\n" + joined + "];")
    message = "^bus 3: its island of 2 buses has no in-service branch path to the slack bus$"
    with pytest.raises(UnsupportedFeatureError, match=message):
        parse_matpower_case(text)
    # one more branch from bus 2 to bus 4 joins the island to the network
    parse_matpower_case(text.replace("360;\n];", "360;\n" + joined.replace("    3 4 ", "    2 4 ") + "];"))


def test_a_slack_bus_without_an_in_service_generator_is_rejected():
    # with no generator the slack bus has no voltage setpoint to hold
    gen_out = _edited("1.0 100 1 80", "1.0 100 0 80")
    message = "^bus 1: the slack bus has no in-service generator$"
    with pytest.raises(UnsupportedFeatureError, match=message):
        parse_matpower_case(gen_out)
    # it comes after every case error and before the type-4 and island checks
    with pytest.raises(CaseParseError, match="zero impedance"):
        parse_matpower_case(gen_out.replace("0.01 0.1 0.02", "0 0 0.02"))
    with pytest.raises(UnsupportedFeatureError, match=message):
        parse_matpower_case(gen_out.replace("2 1 21.7", "2 4 21.7"))
    with pytest.raises(UnsupportedFeatureError, match=message):
        parse_matpower_case(gen_out.replace("130 0 0 1 -360", "130 0 0 0 -360"))


def test_phase_shift_rejected():
    with pytest.raises(UnsupportedFeatureError, match="phase-shifting"):
        parse_matpower_case(_edited("130 0 0 1 -360", "130 0 30 1 -360"))


def test_zero_impedance_rejected():
    with pytest.raises(CaseParseError, match="zero impedance"):
        parse_matpower_case(_edited("0.01 0.1 0.02", "0 0 0.02"))


def test_parse_error_carries_line_number():
    bad = _edited("0.01 0.1 0.02", "0.0x1 0.1 0.02")
    with pytest.raises(CaseParseError, match="bad number") as exc:
        parse_matpower_text(bad)
    # the branch row sits on line 12 of the fixture text
    assert exc.value.line_no == 12
    assert "line 12:" in str(exc.value)


NON_FINITE_EDITS = {
    "x_nan": (("0.01 0.1 0.02", "0.01 nan 0.02"), 12),
    "x_inf": (("0.01 0.1 0.02", "0.01 inf 0.02"), 12),
    "pd_nan": (("2 1 21.7", "2 1 nan"), 6),
    "base_mva_inf": (("mpc.baseMVA = 100;", "mpc.baseMVA = inf;"), 3),
}


@pytest.mark.parametrize("edit", NON_FINITE_EDITS.values(), ids=list(NON_FINITE_EDITS))
def test_non_finite_numbers_rejected_with_line(edit):
    (old, new), line_no = edit
    with pytest.raises(CaseParseError, match="finite") as exc:
        parse_matpower_text(_edited(old, new))
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "impedance", ["5e-324 0 0.02", "1e-310 1e-310 0.02"], ids=["r_subnormal", "rx_subnormal"]
)
def test_overflowing_admittance_rejected(impedance):
    with pytest.raises(CaseParseError, match="admittance is not finite"):
        parse_matpower_case(_edited("0.01 0.1 0.02", impedance))


def test_tiny_tap_ratio_rejected_without_a_warning():
    # tau**2 underflows to zero, so the from-end shunt divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CaseParseError, match="branch row 1: admittance is not finite"):
            parse_matpower_case(_edited("130 130 130 0 0 1", "130 130 130 3.8e-234 0 1"))


def test_unparseable_base_mva_rejected():
    with pytest.raises(CaseParseError, match="bad baseMVA") as exc:
        parse_matpower_text(_edited("mpc.baseMVA = 100;", "mpc.baseMVA = 1..0;"))
    assert exc.value.line_no == 3


def test_nonpositive_generator_setpoint_rejected():
    with pytest.raises(CaseParseError, match="Vg must be positive"):
        parse_matpower_case(_edited("50 -40 1.0 100", "50 -40 0 100"))


def test_ragged_row_rejected():
    text = _edited("12.7 0 0 1 1.0", "12.7 0 0 1 1.0 7 7")
    with pytest.raises(CaseParseError, match="columns"):
        parse_matpower_text(text)


def test_duplicate_table_rejected():
    text = CASE2_TEXT + "\nmpc.gen = [\n\t1\t0\t0\t10\t-10\t1\t100\t1\t50\t-50;\n];\n"
    with pytest.raises(CaseParseError, match="duplicate"):
        parse_matpower_text(text)


def test_unterminated_table_rejected():
    text = CASE2_TEXT.rsplit("];", 1)[0]
    with pytest.raises(CaseParseError, match="unterminated"):
        parse_matpower_text(text)


def test_missing_pieces_rejected():
    with pytest.raises(CaseParseError, match="baseMVA"):
        parse_matpower_text("function mpc = t\nmpc.bus = [\n1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;\n];\nmpc.gen = [\n1 0 0 10 -10 1 100 1 50 -50;\n];\nmpc.branch = [\n];")
    with pytest.raises(CaseParseError, match="missing mpc.gen"):
        parse_matpower_text("function mpc = t\nmpc.baseMVA = 100;\nmpc.bus = [\n1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;\n];\nmpc.branch = [\n];")


def test_duplicate_bus_ids_rejected():
    with pytest.raises(CaseParseError, match="duplicate bus ids"):
        parse_matpower_case(_edited("2 1 21.7 12.7", "1 1 21.7 12.7"))


def test_slack_count_enforced():
    with pytest.raises(CaseParseError, match="exactly one slack"):
        parse_matpower_case(_edited("2 1 21.7", "2 3 21.7"))


def test_comments_and_extras_ignored():
    text = (
        CASE2_TEXT
        + "\n% trailing comment\nmpc.version = '2';\n"
        + "mpc.gencost = [\n\t2\t0\t0\t3\t0.01\t40\t0;\n];\n"
    )
    grid = parse_matpower_case(text)
    assert grid.n_buses == 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("2 1 21.7", "2 1e30 21.7", "bus row 2: bus type 1e+30"),
        ("2 1 21.7", "2 1.5 21.7", "bus row 2: bus type 1.5"),
        ("1 2 0.01 0.1", "1.9 2 0.01 0.1", "branch row 1: bus 1.9"),
    ],
    ids=["type-1e30", "type-1.5", "from-bus-1.9"],
)
def test_integer_fields_must_be_integers_in_range(old, new, message):
    # these used to be cast silently: 1e30 to -2**63 with a RuntimeWarning,
    # 1.5 to type 1, and from-bus 1.9 to bus 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CaseParseError, match=re.escape(message)):
            parse_matpower_case(_edited(old, new))


def test_integer_field_ranges():
    with pytest.raises(CaseParseError, match=r"bus type 5\.0 is not an integer in 1\.\.4"):
        parse_matpower_case(_edited("2 1 21.7", "2 5 21.7"))
    with pytest.raises(CaseParseError, match="bus row 2: bus number 0.0"):
        parse_matpower_case(_edited("2 1 21.7", "0 1 21.7"))
    with pytest.raises(CaseParseError, match="generator row 1: bus 1.5"):
        parse_matpower_case(_edited("1 40 0", "1.5 40 0"))
    with pytest.raises(UnsupportedFeatureError, match=r"^bus 2: bus type 4 \(isolated\) is not supported"):
        parse_matpower_case(_edited("2 1 21.7", "2 4 21.7"))


def test_subnormal_base_mva_fails_as_case_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CaseParseError, match="per unit is not finite"):
            parse_matpower_case(_edited("mpc.baseMVA = 100", "mpc.baseMVA = 5e-324"))
