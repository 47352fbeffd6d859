"""Nonlinear least squares core: problem abstraction, box projection,
centralized Gauss-Newton, and the numerical oracles used to certify it.

A problem instance is a list of :class:`SiteModel` objects. Site ``i`` owns a
residual block ``g_i(x)`` of length ``M_i`` and its Jacobian ``G_i(x)``; the
network objective is ``sum_i ||g_i(x)||^2``. The Gauss-Newton direction is

    d = (G^T G)^-1 G^T g

with ``G`` and ``g`` the stacked Jacobian/residual, assembled here by summing
per-site normal-equation contributions so that any row partition of the same
problem yields the same direction. Sites built over one shared model carry a
:class:`SiteBatch`, which lets the sum read every site's rows from that model
at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, SingularSystemError

# Condition-number cap for normal-equation solves. A well-posed instance
# (full-rank stacked Jacobian over the box) stays far below this; crossing it
# is treated as rank deficiency rather than silently returning garbage.
COND_CAP = 1e12


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box ``{x : lower <= x <= upper}`` used as the constraint
    set. Bounds must be finite (the set is compact)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InvalidArgumentError("box bounds must be 1-D vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise InvalidArgumentError("box bounds must be finite")
        if np.any(lower > upper):
            raise InvalidArgumentError("box lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    @staticmethod
    def cube(dim: int, half_width: float) -> "BoxSet":
        """Symmetric box [-half_width, half_width]^dim."""
        h = float(half_width) * np.ones(dim)
        return BoxSet(-h, h)


@dataclass(frozen=True)
class SiteModel:
    """One site's residual block.

    eval_residual maps a state vector to the local residual g_i(x) (length
    residual_dim); eval_jacobian returns the residual's Jacobian, an
    (residual_dim x n_unknowns) matrix. Both must be pure functions: the
    analytic Jacobian is held to the central-difference oracle by the tests.
    """

    site_id: int
    n_unknowns: int
    residual_dim: int
    eval_residual: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    eval_jacobian: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    batch: "SiteBatch | None" = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class SiteBatch:
    """Rows of a whole site list over one shared model (f, J) = model(x).

    Site i's residual is z[rows_i] - f[rows_i] and its Jacobian -J[rows_i];
    model also evaluates an (I, N_u) stack in one call, see stack_rows. The
    sites are grouped by residual_dim, and each group holds its sites' (k, m)
    row indices and their (k, m) values of z, so one fancy index gathers the
    group's blocks. slot_of_site[i] is site i's place in that group order.
    Every site of the list carries the same batch, and site_id equals its
    position.

    products holds normal_system's (I, n, n) and (I, n, 1) stacks of per-site
    products in group order. Each call overwrites all of it before reading
    it, and no result aliases it. Allocating the stacks on every call
    instead costs page faults whenever the allocator returns them to the
    system in between.
    """

    n_sites: int
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    groups: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    slot_of_site: np.ndarray = field(repr=False)
    products: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @staticmethod
    def of(
        model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        site_rows: Sequence[np.ndarray],
        z: np.ndarray,
        n_unknowns: int,
    ) -> "SiteBatch":
        """The batch of sites whose rows are given in site order; site i's
        values are z[site_rows[i]]."""
        positions = _positions_by_size([rows.size for rows in site_rows])
        stacked = [np.stack([site_rows[i] for i in p]) for p in positions]
        groups = tuple((rows, z[rows]) for rows in stacked)
        slot_of_site = _slot_of_site(positions)
        for arr in (slot_of_site, *(arr for group in groups for arr in group)):
            arr.setflags(write=False)
        products = _product_stacks(len(site_rows), n_unknowns)
        return SiteBatch(len(site_rows), model, groups, slot_of_site, products)

    def serves(self, sites: list[SiteModel]) -> bool:
        """Whether sites is the whole site list this batch was built for, in order."""
        return self.n_sites == len(sites) and all(
            site.batch is self and site.site_id == i for i, site in enumerate(sites)
        )


# States per model call in stack_rows: a case30 state's temporaries take
# about 0.45 MB, so small slices keep the peak memory near one state's.
MODEL_SLICE = 3


def stack_rows(sites: list[SiteModel], xs: np.ndarray):
    """Yield the row indices of the (I, N_u) stack xs. Sites sharing a SiteBatch
    have its model evaluated at each MODEL_SLICE rows in one call before those
    rows are yielded, so reading the sites there hits the model's memo."""
    batch = sites[0].batch
    for start in range(0, len(xs), MODEL_SLICE):
        stop = min(start + MODEL_SLICE, len(xs))
        if batch is not None and batch.serves(sites):
            batch.model(xs[start:stop])
        yield from range(start, stop)


def _positions_by_size(sizes: list[int]) -> list[list[int]]:
    """The positions of each distinct size, sizes in order of first appearance."""
    positions: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        positions.setdefault(size, []).append(i)
    return list(positions.values())


def _slot_of_site(positions: list[list[int]]) -> np.ndarray:
    """Each site's place when the groups' positions are laid end to end."""
    return np.argsort(np.concatenate(positions))


def _product_stacks(n_sites: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized (I, n, n) and (I, n, 1) stacks for the per-site products."""
    return np.empty((n_sites, n, n)), np.empty((n_sites, n, 1))


@dataclass(frozen=True)
class ProblemConstants:
    """Empirical estimates of the smoothness/curvature constants that the
    convergence certificates consume.

    epsilon_max bounds the stacked residual norm over the sampled region;
    epsilon_min is the residual norm at the reference fixed point (supplied
    separately, since sampling cannot find it); sigma_min/sigma_max bracket
    the singular values of the stacked Jacobian; omega is the Jacobian's
    Lipschitz constant estimate; nu_delta and nu_Delta are the mismatch
    slopes of the averaged info vector and info matrix, set to their
    analytic lower bounds omega*(epsilon_max + sigma_max) and
    2*sigma_max*omega.
    """

    epsilon_max: float
    epsilon_min: float
    sigma_min: float
    sigma_max: float
    omega: float
    nu_delta: float
    nu_Delta: float
    rank_deficient_sample: bool = False

    def assumption_holds(self) -> bool:
        """Full-column-rank condition over the sampled region."""
        return not self.rank_deficient_sample and self.sigma_min > 0.0


def project(x: np.ndarray, box: BoxSet) -> np.ndarray:
    """Euclidean projection onto the box (componentwise clamp)."""
    x = np.asarray(x, dtype=float)
    if x.shape != box.lower.shape:
        raise InvalidArgumentError(
            f"state length {x.shape} does not match box dimension {box.lower.shape}"
        )
    return np.clip(x, box.lower, box.upper)


def _check_state(sites: list[SiteModel], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not sites:
        raise InvalidArgumentError("need at least one site")
    if x.ndim != 1 or x.size != sites[0].n_unknowns:
        raise InvalidArgumentError(
            f"state length {x.size} does not match problem unknowns {sites[0].n_unknowns}"
        )
    return x


def site_terms(site: SiteModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The site's residual g_i(x) and Jacobian G_i(x) as float arrays."""
    return (
        np.asarray(site.eval_residual(x), dtype=float),
        np.asarray(site.eval_jacobian(x), dtype=float),
    )


def normal_system(sites: list[SiteModel], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assemble A = sum_i G_i^T G_i and b = sum_i G_i^T g_i at x.

    The sites are grouped by residual size, and each group's products are
    taken in one stacked matmul. They are summed in site order, so the
    result is bit-identical to accumulating G_i^T G_i and G_i^T g_i site by
    site. That holds because every slice of the stacks is C-contiguous with
    the site's own shape: padded, compressed or strided blocks round
    differently. A site list carrying its SiteBatch gathers the blocks
    straight from the shared model; any other list (a subset, a reordering,
    sites without a batch) stacks site_terms.
    """
    x = _check_state(sites, x)
    batch = sites[0].batch
    if batch is not None and batch.serves(sites):
        f, jac = batch.model(x)
        blocks = [(values - f[rows], -jac[rows]) for rows, values in batch.groups]
        slot_of_site, stacks = batch.slot_of_site, batch.products
    else:
        terms = [site_terms(site, x) for site in sites]
        positions = _positions_by_size([res.shape[0] for res, _ in terms])
        blocks = [
            (np.stack([terms[i][0] for i in p]), np.stack([terms[i][1] for i in p]))
            for p in positions
        ]
        slot_of_site, stacks = _slot_of_site(positions), _product_stacks(len(sites), x.size)
    products_a, products_b = stacks
    start = 0
    for res, jac in blocks:
        stop = start + len(jac)
        jac_t = jac.transpose(0, 2, 1)
        np.matmul(jac_t, jac, out=products_a[start:stop])
        np.matmul(jac_t, res[..., None], out=products_b[start:stop])
        start = stop
    # Both sums add in site order from +0.0: a in place, which needs no
    # (I, n, n) copy, and b over its small gathered copy.
    a = np.zeros((x.size, x.size))
    for slot in slot_of_site.tolist():
        a += products_a[slot]
    return a, np.add.reduce(products_b[slot_of_site, :, 0], axis=0, initial=0.0)


def _cholesky_shift(n: int) -> float:
    """c in tau = c ||sym||_F / COND_CAP for the conditioning certificate.

    A Cholesky factor of M = fl(sym - tau I) that completes in floating point
    is exact for M + E with ||E||_2 <= gamma_{n+1} trace(M) / (1 - gamma_{n+1})
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), and
    trace(M) <= sqrt(n) ||sym||_F. With the rounding of the shift, the error
    stays below 4 n^1.5 u ||sym||_F, so this c leaves lambda_min(sym) above
    ||sym||_F / COND_CAP >= lambda_max(sym) / COND_CAP.
    """
    unit_roundoff = np.finfo(float).eps / 2.0
    return 2.0 + 4.0 * n**1.5 * unit_roundoff * COND_CAP


def solve_normal(a: np.ndarray, b: np.ndarray, context: str = "normal equations") -> np.ndarray:
    """Solve the (symmetric PSD) system a d = b with a condition-number cap.

    a is one (n, n) matrix or an (..., n, n) stack, b the matching (n,) or
    (..., n) right-hand sides. Assumption-style problems keep the normal
    matrix far from the cap, so hitting it signals rank deficiency and raises
    SingularSystemError instead of returning noise. So does a non-finite
    entry of a or b. Errors in a stack name the system's index after the
    context.

    Conditioning is certified without a spectrum. With sym = (a + a^T) / 2
    and tau = c ||sym||_F / COND_CAP (see _cholesky_shift, c > 2), a Cholesky
    factorization of sym - tau I that succeeds proves lambda_min(sym) above
    lambda_max(sym) / COND_CAP (Golub & Van Loan, Matrix Computations, sec.
    4.2). Only the systems it cannot certify are decided by their spectrum,
    with eigvalsh. The solution is np.linalg.solve(a, b) either way.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def label(idx: tuple) -> str:
        return f"{context} {','.join(map(str, idx))}" if idx else context

    finite = np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(b).all(axis=-1)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise SingularSystemError(f"{label(idx)}: normal matrix or right-hand side is not finite")

    shifted = (a + np.swapaxes(a, -1, -2)) / 2.0
    tau = _cholesky_shift(a.shape[-1]) * np.linalg.norm(shifted, axis=(-2, -1)) / COND_CAP
    diagonal = np.einsum("...ii->...i", shifted)  # a writeable view
    diagonal -= tau[..., None]
    try:
        np.linalg.cholesky(shifted)
        uncertified = []
    except np.linalg.LinAlgError:
        uncertified = [idx for idx in np.ndindex(a.shape[:-2]) if not _factorizes(shifted[idx])]
    for idx in uncertified:
        eigvals = np.linalg.eigvalsh((a[idx] + a[idx].T) / 2.0)
        lo, hi = float(eigvals[0]), float(eigvals[-1])
        if hi <= 0.0 or lo <= 0.0 or hi / lo > COND_CAP:
            raise SingularSystemError(
                f"{label(idx)}: normal matrix singular or condition number above "
                f"{COND_CAP:.0e} (spectrum [{lo:.3e}, {hi:.3e}])"
            )
    return np.linalg.solve(a, b[..., None])[..., 0]


def _factorizes(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def exact_descent(sites: list[SiteModel], x: np.ndarray) -> np.ndarray:
    """Gauss-Newton direction d = (G^T G)^-1 G^T g with all sites summed."""
    a, b = normal_system(sites, x)
    return solve_normal(a, b, context="exact descent")


def centralized_gn_step(
    sites: list[SiteModel], x: np.ndarray, alpha: float, box: BoxSet
) -> np.ndarray:
    """One projected Gauss-Newton update P[x - alpha * d]."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1], got {alpha}")
    d = exact_descent(sites, x)
    return project(x - alpha * d, box)


def objective(sites: list[SiteModel], x: np.ndarray) -> float:
    """sum_i ||g_i(x)||^2, summed over the sites in order."""
    return float(sum(float(res @ res) for res, _ in (site_terms(s, x) for s in sites)))


def stationarity_residual(sites: list[SiteModel], x: np.ndarray) -> float:
    """||G^T(x) g(x)||; zero exactly at first-order stationary points."""
    return float(np.linalg.norm(normal_system(sites, x)[1]))


def finite_diff_jacobian(site: SiteModel, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian (g(x + h e_j) - g(x - h e_j)) / 2h."""
    if h <= 0:
        raise InvalidArgumentError("step h must be positive")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        gp = np.asarray(site.eval_residual(x + step), dtype=float)
        gm = np.asarray(site.eval_residual(x - step), dtype=float)
        cols.append((gp - gm) / (2.0 * h))
    return np.column_stack(cols)


def centralized_gn_solve(
    sites: list[SiteModel],
    box: BoxSet,
    x0: np.ndarray,
    alpha: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, bool]:
    """Iterate centralized GN until stationarity_residual <= tol.

    Returns (x, converged). Used to produce the reference fixed point for
    certificates and error-to-reference metrics.
    """
    x = project(np.asarray(x0, dtype=float), box)
    for _ in range(max_iter):
        if stationarity_residual(sites, x) <= tol:
            return x, True
        x = centralized_gn_step(sites, x, alpha, box)
    return x, stationarity_residual(sites, x) <= tol


def _spectral_bound(d: np.ndarray) -> float:
    """||d^T d||_F^(1/2), an upper bound on ||d||_2 that costs one product
    (Golub & Van Loan, Matrix Computations, sec. 2.3)."""
    return float(np.sqrt(np.linalg.norm(d.T @ d)))


def estimate_constants(
    sites: list[SiteModel],
    box: BoxSet,
    n_samples: int,
    rng_seed,
    reference_x: np.ndarray | None = None,
    extra_points: list[np.ndarray] | None = None,
) -> ProblemConstants:
    """Sample the box to estimate the certificate constants.

    epsilon_max and omega are maxima over the sample set, hence lower bounds
    on the true suprema; sigma_min/sigma_max bracket the observed singular
    values. epsilon_min is evaluated at reference_x when given (otherwise
    the smallest sampled residual norm stands in). extra_points are appended
    to the sample set so callers can pin trajectory iterates into the
    estimate. A rank-deficient sampled Jacobian is reported as sigma_min = 0
    with a warning flag rather than an error.

    omega comes from an exact pruned sweep over all pairs of points rather
    than one SVD per pair. Since ||D||_2 <= ||D^T D||_F^(1/2) for D = J_i - J_j,
    pairs are visited by that bound (over ||x_i - x_j||), largest first, and
    the sweep stops at the first pair whose bound is below the running
    maximum: no later pair can exceed it. The visited ratios use the same
    expression as a brute-force sweep, so omega is bit-identical to the
    brute-force maximum.
    """
    if n_samples < 2:
        raise InvalidArgumentError("need at least 2 samples")
    rng = np.random.default_rng(rng_seed)
    points = list(rng.uniform(box.lower, box.upper, size=(n_samples, box.dim)))
    if extra_points is not None and len(extra_points):
        points.extend(np.asarray(p, dtype=float) for p in extra_points)

    eps_max = 0.0
    eps_min_seen = np.inf
    sigma_min = np.inf
    sigma_max = 0.0
    rank_deficient = False
    jacobians = []
    for x in points:
        res_norm_sq = 0.0
        blocks = []
        for site in sites:
            res, jac = site_terms(site, x)
            res_norm_sq += float(res @ res)
            blocks.append(jac)
        g_norm = float(np.sqrt(res_norm_sq))
        eps_max = max(eps_max, g_norm)
        eps_min_seen = min(eps_min_seen, g_norm)
        jac = np.vstack(blocks)
        jacobians.append(jac)
        svals = np.linalg.svd(jac, compute_uv=False)
        sigma_max = max(sigma_max, float(svals[0]))
        smallest = float(svals[-1]) if jac.shape[0] >= jac.shape[1] else 0.0
        if smallest <= svals[0] * 1e-12:
            rank_deficient = True
            smallest = 0.0
        sigma_min = min(sigma_min, smallest)

    if rank_deficient:
        sigma_min = 0.0
        warnings.warn(
            "sampled Jacobian is rank deficient; full-column-rank assumption "
            "violated on this box",
            stacklevel=2,
        )

    # Pruned omega sweep (see the docstring). The slack absorbs rounding when
    # D has rank one and the bound is tight; coincident points keep a -inf
    # bound and are never visited.
    pair_i, pair_j = np.triu_indices(len(points), k=1)
    dxs = np.empty(pair_i.size)
    bounds = np.full(pair_i.size, -np.inf)
    for k, (i, j) in enumerate(zip(pair_i.tolist(), pair_j.tolist())):
        dxs[k] = float(np.linalg.norm(points[i] - points[j]))
        if dxs[k] != 0.0:
            bounds[k] = _spectral_bound(jacobians[i] - jacobians[j]) / dxs[k]
    omega = 0.0
    for k in np.argsort(-bounds, kind="stable").tolist():
        if bounds[k] * (1.0 + 1e-9) < omega:
            break
        dj = float(np.linalg.norm(jacobians[pair_i[k]] - jacobians[pair_j[k]], 2))
        omega = max(omega, dj / dxs[k])

    if reference_x is not None:
        eps_min = float(np.sqrt(objective(sites, np.asarray(reference_x, dtype=float))))
    else:
        eps_min = float(eps_min_seen)

    return ProblemConstants(
        epsilon_max=float(eps_max),
        epsilon_min=eps_min,
        sigma_min=float(sigma_min),
        sigma_max=float(sigma_max),
        omega=float(omega),
        nu_delta=float(omega * (eps_max + sigma_max)),
        nu_Delta=float(2.0 * sigma_max * omega),
        rank_deficient_sample=rank_deficient,
    )
