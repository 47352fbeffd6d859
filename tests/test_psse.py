import csv

import numpy as np
import pytest

from gossipgn.core import evaluate, site_terms, stationarity_residual
from gossipgn.errors import InvalidArgumentError
from gossipgn.psse import build_grid_model, load_case
from gossipgn.psse.grid import (
    BranchArrays,
    GridModel,
    PowerState,
    flat_start_vector,
    load_true_state,
    make_box,
    newton_power_flow,
    state_to_vector,
    vector_to_state,
)
from gossipgn.psse.measurements import (
    build_nlls_sites,
    full_measurement_jacobian,
    full_measurement_vector,
    line_flows,
    measurement_count,
    mse_metrics,
    partition_sites,
    power_injections,
    streaming_snapshots,
)

from conftest import (
    finite_diff_jacobian,
    grids_equal,
    oracle_flows,
    oracle_injections,
    random_states,
    terms_at,
)


def save_true_state(path, state: PowerState) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bus", "theta", "v"])
        for i in range(state.n_buses):
            writer.writerow([i + 1, repr(float(state.theta[i])), repr(float(state.v[i]))])


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
    assert grids_equal(fresh, grid30)
    for name, cached in vars(grid30.branches).items():
        assert not cached.flags.writeable, name
        with pytest.raises(ValueError):
            cached[0] = 0
        assert np.array_equal(cached, getattr(fresh.branches, name)), name
    br = grid30.branches
    v = true30.complex_voltages()
    want_from = br.ys * (v[br.f] - v[br.t]) + br.sh_f * v[br.f]
    assert np.allclose(br.yf @ v, want_from, rtol=1e-13, atol=1e-13)
    # the branch arrays assemble the bus admittance matrix: Cf' Yf + Ct' Yt + diag(shunts)
    ends = np.eye(grid30.n_buses)
    assembled = ends[br.f].T @ br.yf + ends[br.t].T @ br.yt + np.diag(grid30.bus_shunts)
    assert np.allclose(assembled, grid30.ybus, rtol=0.0, atol=1e-12)
    # the model on the long-lived fixture equals the model on the fresh grid, bit for bit
    for state in [true30] + random_states(grid30, 3, seed=8):
        for evaluate in (full_measurement_vector, full_measurement_jacobian):
            assert np.array_equal(evaluate(grid30, state), evaluate(fresh, state))


def test_site_outputs_are_fresh_copies(grid30, true30):
    site_rows = partition_sites(grid30, 3)
    z = streaming_snapshots(grid30, true30, 1e-4, 1, 5)[0]
    sites = build_nlls_sites(grid30, site_rows, z)
    x = state_to_vector(true30, grid30.slack_bus)
    y = flat_start_vector(grid30)
    evaluations = {}
    for name, point in (("x", x), ("y", y)):
        ((_, f, jac),) = evaluate(sites, point[None])
        evaluations[name] = f, jac
    want = {}
    for name, point in (("x", x), ("y", y)):
        state = vector_to_state(point, grid30.n_buses, grid30.slack_bus)
        f, jac = full_measurement_vector(grid30, state), full_measurement_jacobian(grid30, state)
        want[name] = [(z[rows] - f[rows], -jac[rows]) for rows in site_rows]

    # x, then y, then x again, interleaved across sites: a write to one read
    # changes neither the evaluated arrays nor any later read
    for name, i in [("x", 0), ("y", 0), ("x", 1), ("y", 2), ("y", 1), ("x", 2), ("x", 0), ("y", 0)]:
        f, jac = evaluations[name]
        res, jac_i = site_terms(sites[i], f, jac)
        assert np.array_equal(res, want[name][i][0])
        assert np.array_equal(jac_i, want[name][i][1])
        assert not np.shares_memory(res, f) and not np.shares_memory(jac_i, jac)
        res[:] = 1e6
        jac_i[:] = 1e6
        assert np.array_equal(sites[i].eval_residual(f), want[name][i][0])
        assert np.array_equal(sites[i].eval_jacobian(jac), want[name][i][1])


def test_shared_model_is_pure(grid30, true30):
    # the sites' model holds no state: each call returns fresh arrays, and a
    # write to them changes no later call
    z = streaming_snapshots(grid30, true30, 1e-4, 1, 5)[0]
    sites = build_nlls_sites(grid30, partition_sites(grid30, 3), z)
    x = state_to_vector(true30, grid30.slack_bus)
    model = sites[0].batch.model
    first = model(x)
    want = [arr.copy() for arr in first]
    for arr in first:
        arr[:] = 0.0
    second = model(x)
    for got, arr, expected in zip(second, first, want):
        assert not np.shares_memory(got, arr)
        assert np.array_equal(got, expected)


def test_full_vector_is_injections_then_flows(grid30, true30):
    full = full_measurement_vector(grid30, true30)
    n, n_br = grid30.n_buses, grid30.n_branches
    assert full.size == 2 * n + 4 * n_br == measurement_count(grid30)
    assert np.array_equal(full[: 2 * n], power_injections(grid30, true30))
    assert np.array_equal(full[2 * n :], line_flows(grid30, true30))


def test_measurement_count_ieee30(grid30):
    assert measurement_count(grid30) == 2 * 30 + 4 * 41 == 224


# --- hand-checkable special cases --------------------------------------------


def _bare_grid(ybus: np.ndarray, branches: BranchArrays | None = None) -> GridModel:
    n = ybus.shape[0]
    if branches is None:
        branches = BranchArrays.of((), (), (), (), (), n)
    return GridModel(
        name="toy", n_buses=n, branches=branches, slack_bus=0,
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
    b_half = 0.05
    br = BranchArrays.of([0], [1], [0j], [1j * b_half], [1j * b_half], n_buses=2)
    ybus = np.diag([1j * b_half, 1j * b_half])
    grid = _bare_grid(ybus, branches=br)
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
    for l, ends in enumerate(zip(grid30.branches.f.tolist(), grid30.branches.t.tolist())):
        allowed = set()
        for b in ends:
            if b in ang_col:
                allowed.add(ang_col[b])
            allowed.add(n - 1 + b)
        for row in (2 * n + 2 * l, 2 * n + 2 * l + 1,
                    2 * n + 2 * grid30.n_branches + 2 * l,
                    2 * n + 2 * grid30.n_branches + 2 * l + 1):
            nz = set(np.flatnonzero(np.abs(jac[row]) > 1e-14).tolist())
            assert nz <= allowed


def test_jacobian_matches_finite_differences(grid30, true30):
    z = streaming_snapshots(grid30, true30, 0.0, 1, 0)[0]
    sites = build_nlls_sites(grid30, partition_sites(grid30, 3), z)
    states = random_states(grid30, 2, seed=11)
    points = [state_to_vector(s, grid30.slack_bus) for s in states]
    points.append(flat_start_vector(grid30))
    for site in sites:
        for x in points:
            analytic = terms_at(site, x)[1]
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


def _loop_partition(grid, n_sites):
    """The partition as a loop over buses and branches: the oracle for partition_sites."""
    n, n_br = grid.n_buses, grid.n_branches
    groups = np.array_split(np.arange(n), n_sites)
    site_of = np.empty(n, dtype=int)
    for s, buses in enumerate(groups):
        site_of[buses] = s
    flow_lists = [[] for _ in range(n_sites)]
    for l in range(n_br):
        owner = min(site_of[grid.branches.f[l]], site_of[grid.branches.t[l]])
        flow_lists[owner].extend([2 * l, 2 * l + 1, 2 * n_br + 2 * l, 2 * n_br + 2 * l + 1])
    return [
        np.concatenate([buses, n + buses, 2 * n + np.array(sorted(flows), dtype=int)]).astype(int)
        for buses, flows in zip(groups, flow_lists)
    ]


@pytest.mark.parametrize("which", ["case30", "case2"])
def test_partition_equals_the_loop_oracle(which, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    m = measurement_count(grid)
    for n_sites in range(1, grid.n_buses + 1):
        site_rows = partition_sites(grid, n_sites)
        want = _loop_partition(grid, n_sites)
        assert len(site_rows) == n_sites
        for got, rows in zip(site_rows, want):
            assert got.dtype == rows.dtype == np.dtype(int)
            assert np.array_equal(got, rows), n_sites
        # disjoint, and together every row of the measurement vector once
        assert np.array_equal(np.sort(np.concatenate(site_rows)), np.arange(m)), n_sites


def test_partition_single_site(grid30):
    site_rows = partition_sites(grid30, 1)
    assert len(site_rows) == 1
    assert np.array_equal(site_rows[0], np.arange(measurement_count(grid30)))


def test_partition_one_site_per_bus(grid30):
    site_rows = partition_sites(grid30, 30)
    assert len(site_rows) == 30
    for i, rows in enumerate(site_rows):
        assert rows[:2].tolist() == [i, 30 + i]
        assert np.all(rows[2:] >= 60)
    assert sum(rows.size for rows in site_rows) == measurement_count(grid30)


@pytest.mark.parametrize("n_sites", [1, 3, 7, 30])
def test_partition_covers_every_measurement_once(grid30, n_sites):
    rows = np.concatenate(partition_sites(grid30, n_sites))
    assert np.array_equal(np.sort(rows), np.arange(measurement_count(grid30)))


def test_partition_tie_break_to_lower_site(grid2):
    site_rows = partition_sites(grid2, 2)
    # the single branch spans both sites: all four flow rows go to site 0
    assert site_rows[0].tolist() == [0, 2, 4, 5, 6, 7]
    assert site_rows[1].tolist() == [1, 3]


def test_partition_rejects_bad_counts(grid30):
    with pytest.raises(InvalidArgumentError):
        partition_sites(grid30, 0)
    with pytest.raises(InvalidArgumentError):
        partition_sites(grid30, 31)


def test_site_jacobian_is_minus_selected_rows(grid30, true30):
    site_rows = partition_sites(grid30, 3)
    z = streaming_snapshots(grid30, true30, 1e-4, 1, 0)[0]
    sites = build_nlls_sites(grid30, site_rows, z)
    x = state_to_vector(true30, grid30.slack_bus)
    full = full_measurement_jacobian(grid30, true30)
    for site, rows in zip(sites, site_rows):
        assert np.array_equal(terms_at(site, x)[1], -full[rows])


def test_sites_reject_a_measurement_vector_of_the_wrong_length(grid30, true30):
    z = streaming_snapshots(grid30, true30, 1e-4, 2, 0)
    for bad in (z, z[0, :-1]):
        with pytest.raises(InvalidArgumentError, match="measurement vector"):
            build_nlls_sites(grid30, partition_sites(grid30, 3), bad)


def test_sites_reject_rows_that_do_not_partition_the_measurements(grid30, true30):
    z = streaming_snapshots(grid30, true30, 1e-4, 1, 0)[0]
    good = partition_sites(grid30, 3)
    for site_rows, match in (
        ([np.arange(-3, 221)], "site 0: rows must be 1-D integers"),  # would wrap
        ([*good[:2], np.append(good[2], 500)], "site 2: rows must be 1-D integers"),
        ([good[0].astype(float), *good[1:]], "site 0: rows must be 1-D integers"),
        ([np.arange(224).reshape(2, 112)], "site 0: rows must be 1-D integers"),
        ([np.arange(120), np.arange(100, 224)], "site 1: a row of z is counted twice"),
        ([np.append(np.arange(224), 7)], "site 0: a row of z is counted twice"),
        ([good[0], good[2]], f"z: row {good[1][0]} belongs to no site"),
        ([], "z: row 0 belongs to no site"),
    ):
        with pytest.raises(InvalidArgumentError, match=match):
            build_nlls_sites(grid30, site_rows, z)
    for bad in (np.nan, np.inf):
        z_bad = z.copy()
        z_bad[5] = bad
        with pytest.raises(InvalidArgumentError, match="z: need a finite measurement vector"):
            build_nlls_sites(grid30, good, z_bad)


# --- noisy measurement generation ---------------------------------------------


def test_noise_free_measurements_exact(grid30, true30):
    z = streaming_snapshots(grid30, true30, 0.0, 1, 7)[0]
    assert np.array_equal(z, full_measurement_vector(grid30, true30))
    site_rows = partition_sites(grid30, 5)
    sites = build_nlls_sites(grid30, site_rows, z)
    x_true = state_to_vector(true30, grid30.slack_bus)
    for s, rows in zip(sites, site_rows):
        assert np.array_equal(terms_at(s, x_true)[0], np.zeros(rows.size))
    assert stationarity_residual(sites, x_true) <= 1e-10


def test_measurement_seed_determinism(grid30, true30):
    a = streaming_snapshots(grid30, true30, 1e-4, 2, 42)
    b = streaming_snapshots(grid30, true30, 1e-4, 2, 42)
    c = streaming_snapshots(grid30, true30, 1e-4, 2, 43)
    assert np.array_equal(a, b)
    assert not np.any(a == c)


def test_noise_variance_close(grid2):
    state = PowerState(theta=np.array([0.0, -0.05]), v=np.array([1.0, 0.98]))
    truth = full_measurement_vector(grid2, state)
    sigma2 = 0.04
    snaps = streaming_snapshots(grid2, state, sigma2, 12500, rng_seed=5)
    devs = (snaps - truth).ravel()
    assert devs.size == 100000
    assert abs(np.var(devs) - sigma2) <= 0.05 * sigma2
    assert abs(np.mean(devs)) <= 3 * np.sqrt(sigma2 / devs.size) * 2


def test_streaming_snapshots_draw_one_noise_vector_each(grid30, true30):
    snaps = streaming_snapshots(grid30, true30, 1e-4, 3, rng_seed=9)
    full = full_measurement_vector(grid30, true30)
    rng = np.random.default_rng(9)
    assert snaps.shape == (3, full.size)
    for z in snaps:
        assert np.array_equal(z, full + rng.normal(0.0, np.sqrt(1e-4), size=full.size))


def test_streaming_noise_free_snapshots_identical(grid30, true30):
    snaps = streaming_snapshots(grid30, true30, 0.0, 4, rng_seed=1)
    assert snaps.shape == (4, measurement_count(grid30))
    for z in snaps[1:]:
        assert np.array_equal(z, snaps[0])
    with pytest.raises(InvalidArgumentError):
        streaming_snapshots(grid30, true30, 0.0, 0, rng_seed=1)


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
def test_streaming_rejects_a_negative_or_non_finite_sigma2(grid30, true30, sigma2):
    with pytest.raises(InvalidArgumentError, match="sigma2"):
        streaming_snapshots(grid30, true30, sigma2, 1, rng_seed=0)


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
