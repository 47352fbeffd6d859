"""Nonlinear least squares core: problem abstraction, box projection,
centralized Gauss-Newton, and the problem constants that certify it.

A problem instance is a list of :class:`SiteModel` objects. Site ``i`` owns a
residual block ``g_i(x)`` of length ``M_i`` and its Jacobian ``G_i(x)``; the
network objective is ``sum_i ||g_i(x)||^2``. The Gauss-Newton direction is

    d = (G^T G)^-1 G^T g

with ``G`` and ``g`` the stacked Jacobian/residual, assembled here by summing
per-site normal-equation contributions so that any row partition of the same
problem yields the same direction. Sites built over one shared model carry a
:class:`SiteBatch`, which lets the sum read every site's rows from that model
at once; agent_systems gives every gossiping agent its exact system and its
own site's terms together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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
    sites are grouped by residual_dim, and each group holds its sites'
    positions in the list, their (k, m) row indices and their (k, m) values
    of z, all read-only, so one fancy index gathers the group's blocks.
    Every site of the list carries the same batch, and site_id equals its
    position.
    """

    n_sites: int
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(repr=False)

    @staticmethod
    def of(
        model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        site_rows: Sequence[np.ndarray],
        z: np.ndarray,
    ) -> "SiteBatch":
        """The batch of sites whose rows are given in site order; site i's
        values are z[site_rows[i]]. Groups follow the sizes' first appearance."""
        sizes = [rows.size for rows in site_rows]
        groups = []
        for size in dict.fromkeys(sizes):
            positions = np.flatnonzero(np.equal(sizes, size))
            rows = np.stack([site_rows[i] for i in positions])
            groups.append((positions, rows, z[rows]))
        for arr in (arr for group in groups for arr in group):
            arr.setflags(write=False)
        return SiteBatch(len(site_rows), model, tuple(groups))

    def serves(self, sites: list[SiteModel]) -> bool:
        """Whether sites is the whole site list this batch was built for, in order."""
        return self.n_sites == len(sites) and all(
            site.batch is self and site.site_id == i for i, site in enumerate(sites)
        )


# Distinct states per model call in stack_rows: a case30 state's temporaries
# take about 0.45 MB, so small slices keep the peak memory near one state's.
MODEL_SLICE = 3


def stack_rows(sites: list[SiteModel], xs: np.ndarray):
    """Yield the row indices of the (I, N_u) stack xs, in order. Sites sharing
    a SiteBatch have its model evaluated in one call at each run of rows
    holding at most MODEL_SLICE distinct states before those rows are
    yielded, so reading the sites there hits the model's memo.

    Rows are told apart by their bytes, the memo's key: a row equal byte for
    byte to one before it in its run is evaluated once for both, and rows
    that differ only in the sign of a zero are evaluated separately. The
    agents' shared start is so evaluated once, not once per agent.
    """
    batch = sites[0].batch
    if batch is None or not batch.serves(sites):
        yield from range(len(xs))
        return
    start = 0
    while start < len(xs):
        firsts: dict[bytes, int] = {}
        stop = start
        while stop < len(xs):
            key = xs[stop].tobytes()
            if key not in firsts:
                if len(firsts) == MODEL_SLICE:
                    break
                firsts[key] = stop
            stop += 1
        batch.model(xs[list(firsts.values())])
        yield from range(start, stop)
        start = stop


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


def _site_products(
    sites: list[SiteModel], x: np.ndarray, products: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> None:
    """Write every site's G_i^T G_i, G_i^T g_i and ||g_i||^2 at x into the
    (I, n, n), (I, n) and (I,) stacks of products, in site order.

    A site list carrying its SiteBatch takes each group's products in one
    stacked matmul on blocks gathered from the shared model, which gives the
    bits of a site-by-site loop since each block is C-contiguous with the
    site's own shape (padded or strided blocks round differently). Any other
    list (a subset, a reordering, sites without a batch) loops over site_terms.
    """
    gram, grad, sq = products
    batch = sites[0].batch
    if batch is not None and batch.serves(sites):
        f, jac = batch.model(x)
        for positions, rows, values in batch.groups:
            # -g_i and -G_i: negation is exact, so their products are G_i's
            res, blocks = f[rows] - values, jac[rows]
            blocks_t = blocks.transpose(0, 2, 1)
            gram[positions] = blocks_t @ blocks
            grad[positions] = (blocks_t @ res[..., None])[..., 0]
            sq[positions] = (res[:, None, :] @ res[..., None])[:, 0, 0]
        return
    for i, site in enumerate(sites):
        res, jac = site_terms(site, x)
        gram[i], grad[i], sq[i] = jac.T @ jac, jac.T @ res, res @ res


def normal_system(sites: list[SiteModel], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assemble A = sum_i G_i^T G_i and b = sum_i G_i^T g_i at x.

    The per-site products (_site_products) are summed in site order from
    +0.0, so the result is bit-identical to accumulating G_i^T G_i and
    G_i^T g_i site by site.
    """
    x = _check_state(sites, x)
    gram, grad = np.empty((len(sites), x.size, x.size)), np.empty((len(sites), x.size))
    _site_products(sites, x, (gram, grad, np.empty(len(sites))))
    return np.add.reduce(gram, axis=0, initial=0.0), np.add.reduce(grad, axis=0, initial=0.0)


def agent_systems(
    sites: list[SiteModel], xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each agent's exact normal system at its own iterate, and its own
    site's products there.

    Agent i holds site i and iterate xs[i], a row of the (I, N_u) stack xs.
    Returns the (I, n, n) and (I, n) stacks of A_i and b_i, each equal to
    normal_system(sites, xs[i]) bit for bit, then site i's G_i^T G_i,
    G_i^T g_i and ||g_i||^2 at xs[i] as (I, n, n), (I, n) and (I,) stacks.
    The rows are read through stack_rows, so a shared model is evaluated
    once per distinct row, and an agent at the previous agent's iterate,
    byte for byte, reuses its sums. Every iterate's per-site products go
    into one set of stacks allocated for the call; no result aliases them.
    """
    xs = np.asarray(xs, dtype=float)
    if not sites or xs.ndim != 2 or len(xs) != len(sites):
        raise InvalidArgumentError(f"need one iterate per site, got shape {xs.shape}")
    n_sites, n = len(sites), _check_state(sites, xs[0]).size
    a, b = np.empty((n_sites, n, n)), np.empty((n_sites, n))
    gram, grad, sq = np.empty((n_sites, n, n)), np.empty((n_sites, n)), np.empty(n_sites)
    products = np.empty((n_sites, n, n)), np.empty((n_sites, n)), np.empty(n_sites)
    last_key = None
    for i in stack_rows(sites, xs):
        key = xs[i].tobytes()
        if key == last_key:
            a[i], b[i] = a[i - 1], b[i - 1]
        else:
            _site_products(sites, xs[i], products)
            np.add.reduce(products[0], axis=0, initial=0.0, out=a[i])
            np.add.reduce(products[1], axis=0, initial=0.0, out=b[i])
            last_key = key
        gram[i], grad[i], sq[i] = products[0][i], products[1][i], products[2][i]
    return a, b, gram, grad, sq


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
    4.2). Only the systems it cannot certify (_uncertified) are decided by
    their spectrum, with eigvalsh. The solution is np.linalg.solve(a, b)
    either way, so tau only picks which systems eigvalsh decides: its bits
    reach no output.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def label(idx: tuple) -> str:
        return f"{context} {','.join(map(str, idx))}" if idx else context

    finite = np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(b).all(axis=-1)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise SingularSystemError(f"{label(idx)}: normal matrix or right-hand side is not finite")

    for idx in _uncertified(a):
        eigvals = np.linalg.eigvalsh((a[idx] + a[idx].T) / 2.0)
        lo, hi = float(eigvals[0]), float(eigvals[-1])
        if hi <= 0.0 or lo <= 0.0 or hi / lo > COND_CAP:
            raise SingularSystemError(
                f"{label(idx)}: normal matrix singular or condition number above "
                f"{COND_CAP:.0e} (spectrum [{lo:.3e}, {hi:.3e}])"
            )
    return np.linalg.solve(a, b[..., None])[..., 0]


def _uncertified(a: np.ndarray) -> list[tuple]:
    """The indices of the systems in a whose Cholesky factorization of
    sym - tau I fails (see solve_normal). sym is formed in one (..., n, n)
    buffer, tau from one fused sum of squares, and the buffer is freed
    before solve_normal solves."""
    shifted = np.add(a, np.swapaxes(a, -1, -2))
    shifted *= 0.5
    frobenius = np.sqrt(np.einsum("...ij,...ij->...", shifted, shifted))
    diagonal = np.einsum("...ii->...i", shifted)  # a writeable view
    diagonal -= (_cholesky_shift(a.shape[-1]) * frobenius / COND_CAP)[..., None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return [idx for idx in np.ndindex(a.shape[:-2]) if not _factorizes(shifted[idx])]
    return []


def _factorizes(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def objective(sites: list[SiteModel], x: np.ndarray) -> float:
    """sum_i ||g_i(x)||^2, added left to right from 0.0 over the sites in order
    (the builtin sum compensates its additions from Python 3.12 on)."""
    total = 0.0
    for site in sites:
        res, _ = site_terms(site, x)
        total += float(res @ res)
    return total


def stationarity_residual(sites: list[SiteModel], x: np.ndarray) -> float:
    """||G^T(x) g(x)||; zero exactly at first-order stationary points."""
    return float(np.linalg.norm(normal_system(sites, x)[1]))


def gauss_newton_iterates(
    sites: list[SiteModel], box: BoxSet, x0: np.ndarray, alpha: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the projected centralized GN iterates x <- P[x - alpha d] from
    P[x0], each with b = G^T g of its normal system.

    One normal system per iterate gives both b and the step d, which is
    solved only when the next iterate is asked for.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1], got {alpha}")
    x = project(x0, box)
    while True:
        a, b = normal_system(sites, x)
        yield x, b
        x = project(x - alpha * solve_normal(a, b, context="exact descent"), box)


def centralized_gn_solve(
    sites: list[SiteModel],
    box: BoxSet,
    x0: np.ndarray,
    alpha: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, float]:
    """Iterate centralized GN until the stationarity residual ||G^T g|| is
    within tol, or for max_iter steps.

    Returns x and its stationarity residual (converged when within tol).
    Used to produce the reference fixed point for certificates and
    error-to-reference metrics.
    """
    for step, (x, b) in enumerate(gauss_newton_iterates(sites, box, x0, alpha)):
        stationarity = float(np.linalg.norm(b))
        if stationarity <= tol or step == max_iter:
            return x, stationarity


# Pairs per chunk of _spectral_bounds. On case30 (1,090 pattern entries,
# 3,692 same-row products) its buffers take about 2.6 MB at this size; from
# 16 to 256 pairs the bound's time barely moves.
BOUND_CHUNK = 32


def _nonzeros(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices and the values of jac's nonzero entries."""
    flat = np.flatnonzero(jac)
    return flat, jac.ravel()[flat]


def _same_row_products(
    rows: np.ndarray, cols: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The products that form the upper triangle of D^T D on a pattern.

    rows and cols give the pattern's entries in row-major order. Returns
    the positions (left, right) of every pair of entries in one row with
    left <= right, sorted by their column pair (a, b); the start of each
    column pair's run; and its weight in ||D^T D||_F^2, 2 off the diagonal
    and 1 on it.
    """
    row_end = np.cumsum(np.bincount(rows))[rows]
    per_entry = row_end - np.arange(rows.size)
    left = np.repeat(np.arange(rows.size), per_entry)
    block_start = np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
    right = left + np.arange(left.size) - block_start
    key = cols[left] * n_cols + cols[right]
    order = np.argsort(key, kind="stable")
    left, right, key = left[order], right[order], key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    weights = np.where(left[starts] == right[starts], 1.0, 2.0)
    return left, right, starts, weights


def _spectral_bounds(
    nonzeros: list[tuple[np.ndarray, np.ndarray]],
    n_cols: int,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
) -> np.ndarray:
    """||D^T D||_F^(1/2) for D = J_i - J_j of each pair (pair_i[k], pair_j[k]),
    an upper bound on ||D||_2 (Golub & Van Loan, Matrix Computations, sec.
    2.3). nonzeros[i] is J_i's _nonzeros, and every J_i has n_cols columns.

    The J_i are compressed to the union of their nonzero patterns, and
    (D^T D)[a, b] is the sum of D[r, a] D[r, b] over the rows r holding both
    a and b in that pattern, so only same-row products are formed. Pairs go
    BOUND_CHUNK at a time through buffers allocated once: fresh temporaries
    for every chunk cost page faults.
    """
    pattern = np.unique(np.concatenate([flat for flat, _ in nonzeros]))
    values = np.zeros((len(nonzeros), pattern.size))
    for row, (flat, vals) in zip(values, nonzeros):
        row[np.searchsorted(pattern, flat)] = vals
    bounds = np.zeros(pair_i.size)
    if not pattern.size:
        return bounds
    left, right, starts, weights = _same_row_products(*np.divmod(pattern, n_cols), n_cols)
    chunk = min(BOUND_CHUNK, pair_i.size)
    diff, other = np.empty((chunk, pattern.size)), np.empty((chunk, pattern.size))
    products, factors = np.empty((chunk, left.size)), np.empty((chunk, left.size))
    gram = np.empty((chunk, starts.size))
    for start in range(0, pair_i.size, chunk):
        stop = min(start + chunk, pair_i.size)
        n = stop - start
        # mode="clip" lets take write into out unbuffered; every index is valid
        np.take(values, pair_i[start:stop], axis=0, out=diff[:n], mode="clip")
        np.take(values, pair_j[start:stop], axis=0, out=other[:n], mode="clip")
        np.subtract(diff[:n], other[:n], out=diff[:n])
        np.take(diff[:n], left, axis=1, out=products[:n], mode="clip")
        np.take(diff[:n], right, axis=1, out=factors[:n], mode="clip")
        np.multiply(products[:n], factors[:n], out=products[:n])
        np.add.reduceat(products[:n], starts, axis=1, out=gram[:n])
        np.multiply(gram[:n], gram[:n], out=gram[:n])
        np.matmul(gram[:n], weights, out=bounds[start:stop])
    return np.sqrt(np.sqrt(bounds, out=bounds), out=bounds)


def _stacked_jacobian(sites: list[SiteModel], x: np.ndarray) -> np.ndarray:
    return np.vstack([site_terms(site, x)[1] for site in sites])


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
    and rank_deficient_sample = True rather than as an error.

    omega comes from an exact pruned sweep over all pairs of points rather
    than one SVD per pair. Since ||D||_2 <= ||D^T D||_F^(1/2) for D = J_i - J_j,
    pairs are visited by that bound (over ||x_i - x_j||), largest first, and
    the sweep stops at the first pair whose bound is at most the running
    maximum: no later pair can exceed it. The bound is taken on the sampled
    Jacobians' nonzeros (see _spectral_bounds), which are all the sweep
    keeps of them; each visited point's Jacobian is evaluated again, once.
    The visited ratios use the same expression as a brute-force sweep, so
    omega is bit-identical to the brute-force maximum.
    """
    if n_samples < 2:
        raise InvalidArgumentError("need at least 2 samples")
    rng = np.random.default_rng(rng_seed)
    points = rng.uniform(box.lower, box.upper, size=(n_samples, box.dim))
    if extra_points is not None and len(extra_points):
        points = np.vstack([points, np.asarray(extra_points, dtype=float)])

    eps_max = 0.0
    eps_min_seen = np.inf
    sigma_min = np.inf
    sigma_max = 0.0
    rank_deficient = False
    nonzeros = []
    for k in stack_rows(sites, points):
        res_norm_sq = 0.0
        blocks = []
        for site in sites:
            res, jac = site_terms(site, points[k])
            res_norm_sq += float(res @ res)
            blocks.append(jac)
        g_norm = float(np.sqrt(res_norm_sq))
        eps_max = max(eps_max, g_norm)
        eps_min_seen = min(eps_min_seen, g_norm)
        jac = np.vstack(blocks)
        nonzeros.append(_nonzeros(jac))
        svals = np.linalg.svd(jac, compute_uv=False)
        sigma_max = max(sigma_max, float(svals[0]))
        smallest = float(svals[-1]) if jac.shape[0] >= jac.shape[1] else 0.0
        if smallest <= svals[0] * 1e-12:
            rank_deficient = True
            smallest = 0.0
        sigma_min = min(sigma_min, smallest)

    # Pruned omega sweep (see the docstring). The slack absorbs rounding when
    # D has rank one and the bound is tight, and the bound's distances, taken
    # a row of pairs at a time, may differ from the exact ones in the last
    # ulps. Coincident points keep a -inf bound and are never visited.
    pair_i, pair_j = np.triu_indices(len(points), k=1)
    dxs = np.concatenate(
        [np.linalg.norm(points[i + 1:] - points[i], axis=1) for i in range(len(points) - 1)]
    )
    bounds = np.divide(
        _spectral_bounds(nonzeros, jac.shape[1], pair_i, pair_j), dxs,
        out=np.full(pair_i.size, -np.inf), where=dxs != 0.0,
    )
    jacobian_at = functools.cache(lambda i: _stacked_jacobian(sites, points[i]))
    omega = 0.0
    for k in np.argsort(-bounds, kind="stable").tolist():
        if bounds[k] * (1.0 + 1e-9) <= omega:
            break
        i, j = int(pair_i[k]), int(pair_j[k])
        dj = float(np.linalg.norm(jacobian_at(i) - jacobian_at(j), 2))
        omega = max(omega, dj / float(np.linalg.norm(points[i] - points[j])))

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
