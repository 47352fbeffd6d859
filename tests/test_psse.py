import numpy as np
import pytest

from gossipgn.core import finite_diff_jacobian, stationarity_residual
from gossipgn.errors import InvalidArgumentError
from gossipgn.psse import build_grid_model, load_case
from gossipgn.psse.grid import (
    GridModel,
    PowerState,
    flat_start_vector,
    load_true_state,
    make_box,
    newton_power_flow,
    save_true_state,
    state_to_vector,
    vector_to_state,
)
from gossipgn.psse.measurements import (
    build_nlls_sites,
    full_measurement_jacobian,
    full_measurement_vector,
    generate_measurements,
    line_flows,
    measurement_count,
    mse_metrics,
    partition_sites,
    power_injections,
    psse_jacobian,
    streaming_snapshots,
)

from conftest import oracle_flows, oracle_injections, random_states


# --- measurement functions against the complex-arithmetic oracles -----------


@pytest.mark.parametrize("which", ["case30", "case2"])
def test_injections_match_complex_oracle(which, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    for state in random_states(grid, 8, seed=3):
        got = power_injections(grid, state)
        want = oracle_injections(grid, state)
        assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("which", ["case30", "case2"])
def test_flows_match_complex_oracle(which, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    for state in random_states(grid, 8, seed=4):
        got = line_flows(grid, state)
        want = oracle_flows(grid, state)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_cached_model_results_are_read_only(grid30, true30):
    for evaluate in (full_measurement_vector, full_measurement_jacobian):
        first = evaluate(grid30, true30)
        original = first.copy()
        first[0] = 1e6
        assert np.array_equal(evaluate(grid30, true30), original)


def test_branch_arrays_are_read_only_and_match_a_fresh_grid(grid30, true30):
    fresh = build_grid_model(load_case("case30"))
    assert fresh == grid30
    for name, cached in vars(grid30.branch_arrays).items():
        assert not cached.flags.writeable, name
        with pytest.raises(ValueError):
            cached[0] = 0
        assert np.array_equal(cached, getattr(fresh.branch_arrays, name)), name
    br = grid30.branch_arrays
    assert br.f.tolist() == [b.from_bus for b in grid30.branches]
    assert br.t.tolist() == [b.to_bus for b in grid30.branches]
    v = true30.complex_voltages()
    want_from = [b.y_series * (v[b.from_bus] - v[b.to_bus]) + b.shunt_from * v[b.from_bus]
                 for b in grid30.branches]
    assert np.allclose(br.yf @ v, want_from, rtol=1e-13, atol=1e-13)
    # the model on the long-lived fixture equals the model on the fresh grid, bit for bit
    for state in [true30] + random_states(grid30, 3, seed=8):
        for evaluate in (full_measurement_vector, full_measurement_jacobian):
            assert np.array_equal(evaluate(grid30, state), evaluate(fresh, state))


def test_sites_share_a_one_iterate_memo(grid30, true30):
    plan = partition_sites(grid30, 3)
    meas = generate_measurements(grid30, true30, plan, sigma2=1e-4, rng_seed=5)
    sites = build_nlls_sites(grid30, plan, meas)
    x = state_to_vector(true30, grid30.slack_bus)
    y = flat_start_vector(grid30)

    def fresh(point, i):
        state = vector_to_state(point, grid30.n_buses, grid30.slack_bus)
        rows = plan.site_rows(i)
        return (
            meas.site_values[i] - full_measurement_vector(grid30, state)[rows],
            -full_measurement_jacobian(grid30, state)[rows],
        )

    # x, then y, then x again, interleaved across sites
    for point, i in [(x, 0), (y, 0), (x, 1), (y, 2), (y, 1), (x, 2), (x, 0), (y, 0)]:
        want_res, want_jac = fresh(point, i)
        res = sites[i].eval_residual(point)
        jac = sites[i].eval_jacobian(point)
        assert np.array_equal(res, want_res)
        assert np.array_equal(jac, want_jac)
        res[:] = 1e6
        jac[:] = 1e6
        assert np.array_equal(sites[i].eval_residual(point), want_res)
        assert np.array_equal(sites[i].eval_jacobian(point), want_jac)


def test_shared_model_memo_is_read_only(grid30, true30):
    plan = partition_sites(grid30, 3)
    sites = build_nlls_sites(grid30, plan, generate_measurements(grid30, true30, plan, 1e-4, 5))
    x = state_to_vector(true30, grid30.slack_bus)
    want = sites[0].eval_residual(x)
    for arr in sites[0].batch.model(x):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:] = 0
    assert np.array_equal(sites[0].eval_residual(x), want)


def test_full_vector_is_injections_then_flows(grid30, true30):
    full = full_measurement_vector(grid30, true30)
    n, n_br = grid30.n_buses, grid30.n_branches
    assert full.size == 2 * n + 4 * n_br == measurement_count(grid30)
    assert np.array_equal(full[: 2 * n], power_injections(grid30, true30))
    assert np.array_equal(full[2 * n :], line_flows(grid30, true30))


def test_measurement_count_ieee30(grid30):
    assert measurement_count(grid30) == 2 * 30 + 4 * 41 == 224


# --- hand-checkable special cases --------------------------------------------


def _bare_grid(ybus: np.ndarray, branches=()) -> GridModel:
    n = ybus.shape[0]
    return GridModel(
        name="toy", n_buses=n, branches=tuple(branches), slack_bus=0,
        bus_types=np.array([3] + [1] * (n - 1)),
        loads=np.zeros(n, dtype=complex), bus_shunts=np.zeros(n, dtype=complex),
        gen_v_setpoint=np.full(n, np.nan), gen_p=np.zeros(n), ybus=ybus,
    )


def test_zero_admittance_grid_all_zero():
    grid = _bare_grid(np.zeros((2, 2), dtype=complex))
    state = PowerState(theta=np.array([0.0, 0.4]), v=np.array([1.1, 0.7]))
    assert np.array_equal(power_injections(grid, state), np.zeros(4))
    assert np.array_equal(full_measurement_jacobian(grid, state), np.zeros((4, 3)))


def test_flat_profile_no_charging_carries_nothing():
    from gossipgn.psse.grid import parse_matpower_case

    from conftest import CASE2_TEXT

    grid = parse_matpower_case(CASE2_TEXT.replace("0.01 0.1 0.02", "0.01 0.1 0"))
    flat = PowerState(theta=np.zeros(2), v=np.ones(2))
    assert np.max(np.abs(power_injections(grid, flat))) <= 1e-15
    assert np.max(np.abs(line_flows(grid, flat))) <= 1e-15
    # with charging the flat profile produces reactive power, keeping the
    # estimation jacobian full rank at the flat start
    grid_b = parse_matpower_case(CASE2_TEXT)
    jac = full_measurement_jacobian(grid_b, flat)
    assert np.linalg.matrix_rank(jac, tol=1e-9) == 3


def test_open_branch_shunt_only_flow():
    from gossipgn.psse.grid import Branch

    b_half = 0.05
    br = Branch(from_bus=0, to_bus=1, y_series=0j, shunt_from=1j * b_half,
                shunt_to=1j * b_half)
    ybus = np.diag([1j * b_half, 1j * b_half])
    grid = _bare_grid(ybus, branches=(br,))
    state = PowerState(theta=np.array([0.0, 0.3]), v=np.array([1.2, 0.9]))
    flows = line_flows(grid, state)
    # open series path: active flow vanishes, each end sees only its own
    # charging, Q = -V^2 * b_half
    assert flows[0] == pytest.approx(0.0, abs=1e-15)
    assert flows[1] == pytest.approx(0.0, abs=1e-15)
    assert flows[2] == pytest.approx(-1.2**2 * b_half)
    assert flows[3] == pytest.approx(-0.9**2 * b_half)
    assert np.allclose(flows, oracle_flows(grid, state), atol=1e-12)


def test_flow_rows_touch_only_endpoint_columns(grid30, true30):
    jac = full_measurement_jacobian(grid30, true30)
    n, slack = grid30.n_buses, grid30.slack_bus
    keep = [b for b in range(n) if b != slack]
    ang_col = {b: i for i, b in enumerate(keep)}
    for l, br in enumerate(grid30.branches):
        allowed = set()
        for b in (br.from_bus, br.to_bus):
            if b in ang_col:
                allowed.add(ang_col[b])
            allowed.add(n - 1 + b)
        for row in (2 * n + 2 * l, 2 * n + 2 * l + 1,
                    2 * n + 2 * grid30.n_branches + 2 * l,
                    2 * n + 2 * grid30.n_branches + 2 * l + 1):
            nz = set(np.flatnonzero(np.abs(jac[row]) > 1e-14).tolist())
            assert nz <= allowed


def test_jacobian_matches_finite_differences(grid30, true30):
    plan = partition_sites(grid30, 3)
    meas = generate_measurements(grid30, true30, plan, sigma2=0.0, rng_seed=0)
    sites = build_nlls_sites(grid30, plan, meas)
    states = random_states(grid30, 2, seed=11)
    points = [state_to_vector(s, grid30.slack_bus) for s in states]
    points.append(flat_start_vector(grid30))
    for site in sites:
        for x in points:
            analytic = site.eval_jacobian(x)
            fd = finite_diff_jacobian(site, x, 1e-6)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - fd)) / scale <= 1e-6


def test_jacobian_defined_at_zero_voltage(grid30):
    x = flat_start_vector(grid30)
    x[grid30.n_buses - 1 :] = 0.0  # every magnitude at the box floor
    jac = full_measurement_jacobian(
        grid30, vector_to_state(x, grid30.n_buses, grid30.slack_bus)
    )
    assert np.all(np.isfinite(jac))


# --- partitioning -------------------------------------------------------------


def test_partition_single_site(grid30):
    plan = partition_sites(grid30, 1)
    assert plan.n_sites == 1
    assert plan.total_selected == measurement_count(grid30)
    assert np.array_equal(np.sort(plan.site_rows(0)), np.arange(224))


def test_partition_one_site_per_bus(grid30):
    plan = partition_sites(grid30, 30)
    assert plan.n_sites == 30
    for i in range(30):
        assert np.array_equal(plan.site_buses[i], [i])
    assert plan.total_selected == measurement_count(grid30)


@pytest.mark.parametrize("n_sites", [1, 3, 7, 30])
def test_partition_covers_every_measurement_once(grid30, n_sites):
    plan = partition_sites(grid30, n_sites)
    rows = np.concatenate([plan.site_rows(i) for i in range(plan.n_sites)])
    assert np.array_equal(np.sort(rows), np.arange(measurement_count(grid30)))


def test_partition_tie_break_to_lower_site(grid2):
    plan = partition_sites(grid2, 2)
    # the single branch spans both sites: all four flow entries go to site 0
    assert plan.flow_idx[0].size == 4
    assert plan.flow_idx[1].size == 0


def test_partition_rejects_bad_counts(grid30):
    with pytest.raises(InvalidArgumentError):
        partition_sites(grid30, 0)
    with pytest.raises(InvalidArgumentError):
        partition_sites(grid30, 31)


def test_site_jacobian_is_minus_selected_rows(grid30, true30):
    plan = partition_sites(grid30, 3)
    full = full_measurement_jacobian(grid30, true30)
    for i in range(3):
        got = psse_jacobian(grid30, true30, plan, i)
        assert np.array_equal(got, -full[plan.site_rows(i)])


# --- noisy measurement generation ---------------------------------------------


def test_noise_free_measurements_exact(grid30, true30):
    plan = partition_sites(grid30, 5)
    meas = generate_measurements(grid30, true30, plan, sigma2=0.0, rng_seed=7)
    full = full_measurement_vector(grid30, true30)
    for i in range(5):
        assert np.array_equal(meas.site_values[i], full[plan.site_rows(i)])
    sites = build_nlls_sites(grid30, plan, meas)
    x_true = state_to_vector(true30, grid30.slack_bus)
    for s in sites:
        assert np.array_equal(s.eval_residual(x_true), np.zeros(s.residual_dim))
    assert stationarity_residual(sites, x_true) <= 1e-10


def test_measurement_seed_determinism(grid30, true30):
    plan = partition_sites(grid30, 3)
    a = generate_measurements(grid30, true30, plan, sigma2=1e-4, rng_seed=42)
    b = generate_measurements(grid30, true30, plan, sigma2=1e-4, rng_seed=42)
    c = generate_measurements(grid30, true30, plan, sigma2=1e-4, rng_seed=43)
    for i in range(3):
        assert np.array_equal(a.site_values[i], b.site_values[i])
    assert any(
        not np.array_equal(a.site_values[i], c.site_values[i]) for i in range(3)
    )


def test_noise_variance_close(grid2):
    state = PowerState(theta=np.array([0.0, -0.05]), v=np.array([1.0, 0.98]))
    plan = partition_sites(grid2, 1)
    truth = full_measurement_vector(grid2, state)
    sigma2 = 0.04
    snaps = streaming_snapshots(grid2, state, plan, sigma2, 12500, rng_seed=5)
    devs = np.concatenate([s.site_values[0] - truth for s in snaps])
    assert devs.size == 100000
    assert abs(np.var(devs) - sigma2) <= 0.05 * sigma2
    assert abs(np.mean(devs)) <= 3 * np.sqrt(sigma2 / devs.size) * 2


def test_streaming_single_snapshot_matches_generate(grid30, true30):
    plan = partition_sites(grid30, 4)
    one = streaming_snapshots(grid30, true30, plan, 1e-4, 1, rng_seed=9)
    direct = generate_measurements(grid30, true30, plan, 1e-4, rng_seed=9)
    assert len(one) == 1
    for i in range(4):
        assert np.array_equal(one[0].site_values[i], direct.site_values[i])


def test_streaming_noise_free_snapshots_identical(grid30, true30):
    plan = partition_sites(grid30, 2)
    snaps = streaming_snapshots(grid30, true30, plan, 0.0, 4, rng_seed=1)
    assert [s.snapshot_index for s in snaps] == [0, 1, 2, 3]
    for s in snaps[1:]:
        for i in range(2):
            assert np.array_equal(s.site_values[i], snaps[0].site_values[i])
    with pytest.raises(InvalidArgumentError):
        streaming_snapshots(grid30, true30, plan, 0.0, 0, rng_seed=1)


# --- power flow, state helpers, error metrics ---------------------------------


def test_newton_power_flow_balances_loads(grid30, true30):
    inj = power_injections(grid30, true30)
    n = grid30.n_buses
    for i in range(n):
        if grid30.bus_types[i] == 1:  # load bus: injection equals -demand
            net_p = grid30.gen_p[i] - grid30.loads[i].real
            assert inj[i] == pytest.approx(net_p, abs=1e-8)
            assert inj[n + i] == pytest.approx(-grid30.loads[i].imag, abs=1e-8)
        elif not np.isnan(grid30.gen_v_setpoint[i]):
            assert true30.v[i] == pytest.approx(grid30.gen_v_setpoint[i], abs=1e-10)
    assert true30.theta[grid30.slack_bus] == 0.0
    assert np.all(true30.v > 0.9) and np.all(true30.v < 1.12)
    assert np.max(np.abs(true30.theta)) < 0.5


def test_state_vector_roundtrip(grid30, true30):
    x = state_to_vector(true30, grid30.slack_bus)
    assert x.size == grid30.n_unknowns
    back = vector_to_state(x, grid30.n_buses, grid30.slack_bus)
    assert np.array_equal(back.theta, true30.theta)
    assert np.array_equal(back.v, true30.v)


def test_box_and_flat_start(grid30):
    box = make_box(grid30.n_buses)
    x0 = flat_start_vector(grid30)
    assert box.contains(x0)
    assert np.all(box.lower[: grid30.n_buses - 1] == -np.pi / 2)
    assert np.all(box.lower[grid30.n_buses - 1 :] == 0.0)
    assert np.all(box.upper[grid30.n_buses - 1 :] == 1.5)
    assert np.array_equal(x0[: grid30.n_buses - 1], np.zeros(29))
    assert np.array_equal(x0[grid30.n_buses - 1 :], np.ones(30))


def test_true_state_roundtrip(tmp_path, true30, grid30):
    path = tmp_path / "truth.csv"
    save_true_state(path, true30)
    back = load_true_state(path, grid30.n_buses)
    assert np.array_equal(back.theta, true30.theta)
    assert np.array_equal(back.v, true30.v)


@pytest.mark.parametrize("column", [0, 1, 2], ids=["bus", "theta", "v"])
@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_true_state_rejects_bad_fields(tmp_path, true30, grid30, column, bad):
    path = tmp_path / "truth.csv"
    save_true_state(path, true30)
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    fields[column] = bad
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidArgumentError, match="line 5"):
        load_true_state(path, grid30.n_buses)


@pytest.mark.parametrize(
    "rows, line",
    [
        (["1.9,0.0,1.0", "2,0.1,0.9"], 2),  # a fractional bus id
        (["1,0.0,1.0", "2,0.1,0.9", "2,0.2,0.8"], 4),  # a repeated bus
    ],
    ids=["fractional", "repeated"],
)
def test_true_state_rejects_bad_bus_ids(tmp_path, rows, line):
    path = tmp_path / "truth.csv"
    path.write_text("\n".join(["bus,theta,v"] + rows) + "\n")
    with pytest.raises(InvalidArgumentError, match=f"line {line}"):
        load_true_state(path, 2)


def test_mse_metrics_examples(grid30, true30):
    x_true = state_to_vector(true30, grid30.slack_bus)
    mv, mt, gv, gt = mse_metrics(x_true, true30, grid30.slack_bus)
    assert mv[0] == 0.0 and mt[0] == 0.0 and gv == 0.0 and gt == 0.0

    shifted = x_true.copy()
    shifted[grid30.n_buses - 1 :] += 0.1
    stack = np.vstack([x_true, shifted])
    mv, mt, gv, gt = mse_metrics(stack, true30, grid30.slack_bus)
    assert mv[1] == pytest.approx(0.01)
    assert mt[1] == 0.0
    assert gv == pytest.approx(0.005)
    with pytest.raises(InvalidArgumentError):
        mse_metrics(x_true[:-1], true30, grid30.slack_bus)


@pytest.mark.parametrize("which", ["case30", "case2"])
def test_mse_metrics_rows_equal_per_agent_means_bitwise(which, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    rng = np.random.default_rng(9)
    truth = random_states(grid, 1, seed=5)[0]
    box = make_box(grid.n_buses)
    for n_agents in (1, 3, 30):
        stack = rng.uniform(box.lower, box.upper, (n_agents, box.dim))
        mv, mt, gv, gt = mse_metrics(stack, truth, grid.slack_bus)
        # the oracle: one state and two 1-D means per agent
        want_v, want_t = np.empty(n_agents), np.empty(n_agents)
        for i, x in enumerate(stack):
            st = vector_to_state(x, grid.n_buses, grid.slack_bus)
            want_v[i] = float(np.mean((st.v - truth.v) ** 2))
            want_t[i] = float(np.mean((st.theta - truth.theta) ** 2))
        assert np.array_equal(mv.view(np.int64), want_v.view(np.int64))
        assert np.array_equal(mt.view(np.int64), want_t.view(np.int64))
        assert (gv, gt) == (float(want_v.mean()), float(want_t.mean()))
    with pytest.raises(InvalidArgumentError):
        mse_metrics(np.zeros((2, box.dim + 1)), truth, grid.slack_bus)
