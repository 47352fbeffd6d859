"""Nonlinear least squares core: problem abstraction, box projection,
centralized Gauss-Newton, and the problem constants that certify it.

A problem instance is a list of :class:`SiteModel` objects. Site ``i`` owns a
residual block ``g_i(x)`` of length ``M_i`` and its Jacobian ``G_i(x)``; the
network objective is ``sum_i ||g_i(x)||^2``. The Gauss-Newton direction is

    d = (G^T G)^-1 G^T g

with ``G`` and ``g`` the stacked Jacobian/residual, assembled here by summing
per-site normal-equation contributions so that any row partition of the same
problem yields the same direction. build_sites makes every site list, as rows
of one shared model; evaluate hands out that model's f and J at each state, and
every per-site quantity is a slice of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

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
    """One site's residual block, from a build_sites list: eval_residual slices
    g_i from the model's f at a state and eval_jacobian G_i from its J, as
    fresh float arrays. They are init fields so that dataclasses.replace can
    wrap them, as perfbench's tracer does."""

    site_id: int
    n_unknowns: int
    eval_residual: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    eval_jacobian: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    batch: "SiteBatch" = field(repr=False)


@dataclass(frozen=True, eq=False)
class SiteBatch:
    """Rows of a whole build_sites list over its pure model (f, J) = model(x),
    which also evaluates an (I, N_u) stack in one call (see evaluate).
    Each group of sites with one row count holds their positions in the
    list, their (k, m) row indices and their (k, m) values of z, read-only,
    so one fancy index gathers the group's blocks. Every site of the list
    carries the batch, and site_id equals its position."""

    n_sites: int
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(repr=False)


def build_sites(
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    n_unknowns: int,
    site_rows: Sequence[np.ndarray],
    z: np.ndarray,
) -> list[SiteModel]:
    """The sites over one pure model, which maps x or an (I, N_u) stack to
    fresh float arrays f (..., M) and J (..., M, N_u): site i's residual is
    z[rows_i] - f[rows_i] and its Jacobian -J[rows_i], for f and J at one
    state. The rows must be 1-D integer arrays holding each of 0..M-1 once,
    M = z.size, and z finite."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or not np.isfinite(z).all():
        raise InvalidArgumentError(f"z: need a finite measurement vector, got shape {z.shape}")
    site_rows, counts = [np.asarray(rows) for rows in site_rows], np.zeros(z.size, dtype=int)
    for i, rows in enumerate(site_rows):
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or not np.all((rows >= 0) & (rows < z.size)):
            raise InvalidArgumentError(f"site {i}: rows must be 1-D integers in 0..{z.size - 1}")
        np.add.at(counts, rows, 1)
        if np.any(counts[rows] > 1):
            raise InvalidArgumentError(f"site {i}: a row of z is counted twice")
    if not counts.all():
        raise InvalidArgumentError(f"z: row {np.argmin(counts)} belongs to no site")

    # groups follow the sizes' first appearance
    sizes = [rows.size for rows in site_rows]
    groups = []
    for size in dict.fromkeys(sizes):
        positions = np.flatnonzero(np.equal(sizes, size))
        rows = np.stack([site_rows[i] for i in positions])
        groups.append((positions, rows, z[rows]))
    for arr in (arr for group in groups for arr in group):
        arr.setflags(write=False)
    batch = SiteBatch(len(site_rows), model, tuple(groups))

    return [
        SiteModel(
            i, n_unknowns, lambda f, z_i=z[rows], rows=rows: z_i - f[rows],
            lambda jac, rows=rows: -jac[rows], batch,
        )
        for i, rows in enumerate(site_rows)
    ]


# Distinct states per model call in evaluate: a case30 state's temporaries
# take about 0.45 MB, so small slices keep the peak memory near one state's.
MODEL_SLICE = 3


def evaluate(sites: list[SiteModel], xs: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (i, f_i, J_i), the sites' model output at xs[i], for each row of
    the nonempty (I, N_u) stack xs, in order. The model is evaluated in one
    call at each run of rows holding at most MODEL_SLICE distinct states.

    Rows are told apart by their bytes: a row equal byte for byte to one
    before it in its run shares its evaluation, and rows that differ only in
    the sign of a zero are evaluated apart. The agents' shared start is so
    evaluated once, not once per agent. f_i and J_i are read-only views,
    since rows that share an evaluation share them.
    """
    xs = np.asarray(xs, dtype=float)
    model = _check_sites(sites).model
    if xs.ndim != 2 or not len(xs) or xs.shape[1] != sites[0].n_unknowns:
        raise InvalidArgumentError(f"need a nonempty stack of states of length {sites[0].n_unknowns}")
    start = 0
    while start < len(xs):
        slots: dict[bytes, int] = {}  # each distinct row's place in the call
        firsts, run = [], []
        for i in range(start, len(xs)):
            slot = slots.setdefault(xs[i].tobytes(), len(slots))
            if slot == MODEL_SLICE:
                break
            if slot == len(firsts):
                firsts.append(i)
            run.append(slot)
        f, jac = model(xs[firsts])
        f.setflags(write=False)
        jac.setflags(write=False)
        yield from ((i, f[slot], jac[slot]) for i, slot in enumerate(run, start))
        start += len(run)


def _evaluate_at(sites: list[SiteModel], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sites' model output (f, J) at the one state x."""
    return next(evaluate(sites, np.asarray(x, dtype=float)[None]))[1:]


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


def component_roots(n_nodes: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Each node's connected component in the graph of n_nodes nodes and the
    (a, b) edges, labelled by the component's union-find root node."""
    root = list(range(n_nodes))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in edges:
        root[find(a)] = find(b)
    return np.array([find(i) for i in range(n_nodes)])


def _check_sites(sites: list[SiteModel]) -> SiteBatch:
    """The sites' SiteBatch; the sites must be one whole build_sites list, in order."""
    if not sites or sites[0].batch.n_sites != len(sites) or any(
        site.batch is not sites[0].batch or site.site_id != i for i, site in enumerate(sites)
    ):
        raise InvalidArgumentError("sites must be one whole site list from build_sites, in order")
    return sites[0].batch


def site_terms(site: SiteModel, f: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The site's residual g_i and Jacobian G_i at the state of the model's f and J."""
    return site.eval_residual(f), site.eval_jacobian(jac)


def normal_system(sites: list[SiteModel], f: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assemble A = sum_i G_i^T G_i and b = sum_i G_i^T g_i at the state of
    the model's f and J.

    Each group of the batch takes its sites' products in one stacked matmul
    on blocks gathered from f and J, which gives the bits of a site-by-site
    loop since each block is C-contiguous with the site's own shape (padded
    or strided blocks round differently). The products are summed in site
    order from +0.0, so the result is bit-identical to accumulating
    G_i^T G_i and G_i^T g_i site by site.
    """
    batch, n = _check_sites(sites), sites[0].n_unknowns
    gram, grad = np.empty((len(sites), n, n)), np.empty((len(sites), n))
    for positions, rows, values in batch.groups:
        # -g_i and -G_i: negation is exact, so their products are G_i's
        res, blocks = f[rows] - values, jac[rows]
        blocks_t = blocks.transpose(0, 2, 1)
        gram[positions] = blocks_t @ blocks
        grad[positions] = (blocks_t @ res[..., None])[..., 0]
    return np.add.reduce(gram, axis=0, initial=0.0), np.add.reduce(grad, axis=0, initial=0.0)


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
    4.2). Each system is certified on its own (_factorizes), so no stack
    of sym or of factors is held beside a. Only the systems it cannot
    certify are decided by their spectrum, with eigvalsh. The solution is
    np.linalg.solve(a, b) either way, so tau only picks which systems
    eigvalsh decides: its bits reach no output.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def label(idx: tuple) -> str:
        return f"{context} {','.join(map(str, idx))}" if idx else context

    finite = np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(b).all(axis=-1)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise SingularSystemError(f"{label(idx)}: normal matrix or right-hand side is not finite")

    shift = _cholesky_shift(a.shape[-1])
    for idx in np.ndindex(a.shape[:-2]):
        if _factorizes(a[idx], shift):
            continue
        eigvals = np.linalg.eigvalsh((a[idx] + a[idx].T) / 2.0)
        lo, hi = float(eigvals[0]), float(eigvals[-1])
        if hi <= 0.0 or lo <= 0.0 or hi / lo > COND_CAP:
            raise SingularSystemError(
                f"{label(idx)}: normal matrix singular or condition number above "
                f"{COND_CAP:.0e} (spectrum [{lo:.3e}, {hi:.3e}])"
            )
    return np.linalg.solve(a, b[..., None])[..., 0]


def _factorizes(m: np.ndarray, shift: float) -> bool:
    """Whether sym - tau I factorizes, with sym = (m + m^T) / 2 formed in one
    (n, n) buffer and tau = shift ||sym||_F / COND_CAP from one fused sum of
    squares."""
    shifted = np.add(m, m.T)
    shifted *= 0.5
    frobenius = np.sqrt(np.einsum("ij,ij->", shifted, shifted))
    diagonal = np.einsum("ii->i", shifted)  # a writeable view
    diagonal -= shift * frobenius / COND_CAP
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def objective(sites: list[SiteModel], f: np.ndarray) -> float:
    """sum_i ||g_i||^2 at the state of the model's f, added left to right from
    0.0 over the sites in order (the builtin sum compensates from Python 3.12 on)."""
    total = 0.0
    for site in sites:
        res = site.eval_residual(f)
        total += float(res @ res)
    return total


def stationarity_residual(sites: list[SiteModel], x: np.ndarray) -> float:
    """||G^T(x) g(x)||; zero exactly at first-order stationary points."""
    return float(np.linalg.norm(normal_system(sites, *_evaluate_at(sites, x))[1]))


def gauss_newton_iterates(
    sites: list[SiteModel], box: BoxSet, x0: np.ndarray, alpha: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the projected centralized GN iterates x <- P[x - alpha d] from
    P[x0], each with the model's f there and b = G^T g of its normal system.

    One evaluation and one normal system per iterate give f, b and the step
    d, which is solved only when the next iterate is asked for.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1], got {alpha}")
    x = project(x0, box)
    while True:
        f, jac = _evaluate_at(sites, x)
        a, b = normal_system(sites, f, jac)
        yield x, f, b
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
    for step, (x, _, b) in enumerate(gauss_newton_iterates(sites, box, x0, alpha)):
        stationarity = float(np.linalg.norm(b))
        if stationarity <= tol or step == max_iter:
            return x, stationarity


# Pairs per chunk of _spectral_bounds. On case30 (1,090 pattern entries)
# each of a chunk's temporaries takes about 0.3 MB at this size. The bound
# over 6,555 case30 pairs takes about the same time from 16 to 64 pairs per
# chunk, and about twice as long at 8 or 256.
BOUND_CHUNK = 32


def _add_nonzeros(
    values: np.ndarray, pattern: np.ndarray, k: int, jac: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Write jac's nonzeros into row k of values, whose columns are the sorted flat
    indices in pattern, after widening both by a zero column per new nonzero."""
    flat = np.flatnonzero(jac)
    new = flat[np.isin(flat, pattern, assume_unique=True, invert=True)]
    if new.size:
        at = np.searchsorted(pattern, new)
        values, pattern = np.insert(values, at, 0.0, axis=1), np.insert(pattern, at, new)
    values[k, np.searchsorted(pattern, flat)] = jac.ravel()[flat]
    return values, pattern


def _spectral_bounds(
    values: np.ndarray, pattern: np.ndarray, n_cols: int, pair_i: np.ndarray, pair_j: np.ndarray
) -> np.ndarray:
    """max_a ((|D|^T |D| 1)_a)^(1/2) for D = J_i - J_j of each pair (pair_i[k],
    pair_j[k]), an upper bound on ||D||_2 since ||D||_2^2 = rho(D^T D) <=
    || |D|^T |D| ||_inf (Horn & Johnson, Matrix Analysis, Thms 5.6.9 and
    6.1.1). Every J_i has n_cols columns and its nonzeros at flat indices in
    the sorted pattern; values[i] holds its entries there (see _add_nonzeros).

    (|D|^T |D| 1)_a is the sum over D's column a of each entry times its
    row's sum, so each chunk of BOUND_CHUNK pairs takes two segment sums over
    the pattern: its rows in row-major order, then its columns.
    """
    bounds = np.zeros(pair_i.size)
    if not pattern.size:
        return bounds
    rows, cols = np.divmod(pattern, n_cols)
    new_row = np.diff(rows, prepend=-1) != 0
    by_col = np.argsort(cols, kind="stable")
    row_of = (np.cumsum(new_row) - 1)[by_col]
    row_starts = np.flatnonzero(new_row)
    col_starts = np.flatnonzero(np.diff(cols[by_col], prepend=-1))
    for start in range(0, pair_i.size, BOUND_CHUNK):
        stop = start + BOUND_CHUNK
        d = np.abs(values[pair_i[start:stop]] - values[pair_j[start:stop]])
        row_sums = np.add.reduceat(d, row_starts, axis=1)
        weighted = d[:, by_col] * row_sums[:, row_of]
        bounds[start:stop] = np.add.reduceat(weighted, col_starts, axis=1).max(axis=1)
    return np.sqrt(bounds, out=bounds)


# estimate_constants treats two points as one when they lie within this
# distance of each other relative to the larger norm. A Jacobian difference
# carries the model's rounding error, about eps ||J||, so over a distance d its
# ratio carries about eps ||J|| / d: below sqrt(eps) ||x|| that error can pass
# sqrt(eps) ||J|| / ||x||, the scale of the ratios themselves (the step-size
# argument of finite differences; Nocedal & Wright, Numerical Optimization, 8.1).
COINCIDENT_DISTANCE = float(np.sqrt(np.finfo(float).eps))


def _stacked_jacobian(sites: list[SiteModel], jac: np.ndarray) -> np.ndarray:
    return np.vstack([site.eval_jacobian(jac) for site in sites])


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
    and rank_deficient_sample = True rather than as an error. Before any
    point is evaluated, every point within COINCIDENT_DISTANCE of an earlier
    one, relative to the larger of the two norms, is dropped: its ratios
    would be rounding noise over a vanishing distance.

    omega comes from an exact pruned sweep over all pairs of points rather
    than one SVD per pair. Pairs are visited by a row-sum bound on ||D||_2
    for D = J_i - J_j (over ||x_i - x_j||), largest first, and the sweep
    stops at the first pair whose bound is at most the running maximum: no
    later pair can exceed it. The sweep keeps only the sampled Jacobians'
    nonzeros, gathered as each point is evaluated (see _add_nonzeros): the
    bound is taken on them, and a visited pair's dense D is scattered from
    them, equal to J_i - J_j but for the sign of zeros. D takes its SVD only
    if the tighter ||D^T D||_F^(1/2) exceeds the running maximum too. The
    ratios use the same expression as a brute-force sweep, so omega is
    bit-identical to the brute-force maximum.
    """
    if n_samples < 2:
        raise InvalidArgumentError("need at least 2 samples")
    rng = np.random.default_rng(rng_seed)
    points = rng.uniform(box.lower, box.upper, size=(n_samples, box.dim))
    if extra_points is not None and len(extra_points):
        points = np.vstack([points, np.asarray(extra_points, dtype=float)])
    pair_i, pair_j = np.triu_indices(len(points), k=1)
    dxs = np.concatenate(
        [np.linalg.norm(points[i + 1:] - points[i], axis=1) for i in range(len(points) - 1)]
    )
    norms = np.linalg.norm(points, axis=1)
    keep = np.ones(len(points), dtype=bool)
    keep[pair_j[dxs <= COINCIDENT_DISTANCE * np.maximum(norms[pair_i], norms[pair_j])]] = False
    kept_pairs, renumber = keep[pair_i] & keep[pair_j], np.cumsum(keep) - 1
    points, dxs = points[keep], dxs[kept_pairs]
    pair_i, pair_j = renumber[pair_i[kept_pairs]], renumber[pair_j[kept_pairs]]

    eps_max = 0.0
    eps_min_seen = np.inf
    sigma_min = np.inf
    sigma_max = 0.0
    rank_deficient = False
    values, pattern = np.zeros((len(points), 0)), np.zeros(0, dtype=np.intp)
    for k, f, jac in evaluate(sites, points):
        g_norm = float(np.sqrt(objective(sites, f)))
        eps_max = max(eps_max, g_norm)
        eps_min_seen = min(eps_min_seen, g_norm)
        jac = _stacked_jacobian(sites, jac)
        values, pattern = _add_nonzeros(values, pattern, k, jac)
        svals = np.linalg.svd(jac, compute_uv=False)
        sigma_max = max(sigma_max, float(svals[0]))
        smallest = float(svals[-1]) if jac.shape[0] >= jac.shape[1] else 0.0
        if smallest <= svals[0] * 1e-12:
            rank_deficient = True
            smallest = 0.0
        sigma_min = min(sigma_min, smallest)

    # Pruned omega sweep (see the docstring). The slack absorbs rounding when
    # a bound is tight (D's nonzeros in one column for the row-sum bound, D
    # of rank one for the Frobenius one), and the bound's distances, taken a
    # row of pairs at a time, may differ from the exact ones in the last
    # ulps. No distance is 0: coincident points are gone.
    bounds = _spectral_bounds(values, pattern, jac.shape[1], pair_i, pair_j) / dxs
    d = np.zeros(jac.shape)  # every entry outside pattern stays 0
    omega = 0.0
    for k in np.argsort(-bounds, kind="stable").tolist():
        if bounds[k] * (1.0 + 1e-9) <= omega:
            break
        i, j = int(pair_i[k]), int(pair_j[k])
        d.put(pattern, values[i] - values[j])
        dx = float(np.linalg.norm(points[i] - points[j]))
        if np.sqrt(np.linalg.norm(d.T @ d)) * (1.0 + 1e-9) <= omega * dx:
            continue
        omega = max(omega, float(np.linalg.norm(d, 2)) / dx)

    if reference_x is not None:
        eps_min = float(np.sqrt(objective(sites, _evaluate_at(sites, reference_x)[0])))
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
