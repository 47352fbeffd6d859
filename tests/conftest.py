"""Shared fixtures and the independent complex-arithmetic oracles.

The oracles below deliberately recompute injections and flows from
complex phasor algebra, separate from the package's trigonometric
evaluators, so agreement between the two is meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest

from gossipgn.core import BoxSet, SiteModel
from gossipgn.psse import (
    GridModel,
    PowerState,
    build_grid_model,
    load_case,
    newton_power_flow,
)


def oracle_injections(grid: GridModel, state: PowerState) -> np.ndarray:
    """S_n = V_n e^{j th_n} * conj(sum_m Ybus[n,m] V_m e^{j th_m}), stacked [P; Q]."""
    v = state.v * np.exp(1j * state.theta)
    s = v * np.conj(grid.ybus @ v)
    return np.concatenate([s.real, s.imag])


def oracle_flows(grid: GridModel, state: PowerState) -> np.ndarray:
    """Per-branch complex flows from each end's equivalent pi parameters.

    Layout matches the package convention: P block then Q block, branches
    in case order, forward direction before reverse within each branch.
    """
    v = state.v * np.exp(1j * state.theta)
    p_rows = []
    q_rows = []
    br = grid.branches
    for l in range(grid.n_branches):
        vf, vt = v[br.f[l]], v[br.t[l]]
        s_fwd = vf * np.conj(br.ys[l] * (vf - vt) + br.sh_f[l] * vf)
        s_rev = vt * np.conj(br.ys[l] * (vt - vf) + br.sh_t[l] * vt)
        p_rows += [s_fwd.real, s_rev.real]
        q_rows += [s_fwd.imag, s_rev.imag]
    return np.asarray(p_rows + q_rows)


def random_states(grid: GridModel, n: int, seed: int) -> list[PowerState]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta = rng.uniform(-np.pi / 3, np.pi / 3, grid.n_buses)
        theta[grid.slack_bus] = 0.0
        v = rng.uniform(0.5, 1.4, grid.n_buses)
        out.append(PowerState(theta=theta, v=v))
    return out


CASE2_TEXT = """\
function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0    0    0 0 1 1.0  0 135 1 1.1 0.9;
    2 1 21.7 12.7 0 0 1 1.0  0 135 1 1.1 0.9;
];
mpc.gen = [
    1 40 0 50 -40 1.0 100 1 80 0;
];
mpc.branch = [
    1 2 0.01 0.1 0.02 130 130 130 0 0 1 -360 360;
];
"""


@pytest.fixture(scope="session")
def grid30() -> GridModel:
    return build_grid_model(load_case("case30"))


@pytest.fixture(scope="session")
def true30(grid30) -> PowerState:
    return newton_power_flow(grid30)


@pytest.fixture(scope="session")
def grid2() -> GridModel:
    return build_grid_model(load_case("case2"))


def make_toy_sites(n_unknowns: int = 3, n_sites: int = 3, seed: int = 0):
    """Small smooth NLLS testbed: g_i(x) = A_i x - b_i + 0.1 sin(x) slice.

    Mild nonlinearity keeps Gauss-Newton from being one-shot exact while
    the analytic Jacobian A_i + 0.1 diag(cos x) rows stay easy to verify.
    """
    rng = np.random.default_rng(seed)
    sites = []
    for i in range(n_sites):
        a = rng.normal(size=(n_unknowns + 1, n_unknowns))
        b = rng.normal(size=n_unknowns + 1)

        def residual(x, a=a, b=b):
            return a @ x - b + 0.1 * np.sin(a @ x)

        def jacobian(x, a=a):
            return a + 0.1 * np.cos(a @ x)[:, None] * a

        sites.append(
            SiteModel(
                site_id=i,
                n_unknowns=n_unknowns,
                residual_dim=n_unknowns + 1,
                eval_residual=residual,
                eval_jacobian=jacobian,
            )
        )
    return sites


@pytest.fixture
def toy_sites():
    return make_toy_sites()


@pytest.fixture
def toy_box():
    return BoxSet.cube(3, 10.0)
