"""Scalar and spectral kernels shared by every stability certificate.

Houses the concentration function kappa_{b,d} and its inverse at 1, the
spectral abscissa eta, the matrix measure mu, the c^- clip, and bounded 1-D
maximization with a certified-lower-bound contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceFailure, DivergenceDetected, DomainError, EmptyInterval, NumericalFailure

_DENSE_FALLBACK_DIM = 64
_POWER_MAX_ITER = 100_000
_POWER_TOL = 1e-10
_ARPACK_TOL = 1e-12
_CERTIFY_RTOL = 1e-10
_POLISH_STEPS = 40      # shifted power steps from a positive Ritz vector whose bracket is wide
_DIVERGENCE_CAP = 1e15  # an objective value above this counts as divergence
_REFINE_BRACKETS = 3    # zoomed brackets around the best grid points
_GRID = np.geomspace(1e-9, 1.0, 4096)     # the maximizer's grid, built once
_ZOOM_STEPS = np.linspace(0.0, 1.0, 257)  # a bracket's points in one zoom pass
_ZOOM_PASSES = 8        # each pass shrinks a bracket 128-fold; 7 reach the stop width if lo >= 0


@dataclass(frozen=True)
class KappaParams:
    """Parameters of kappa_{b,d}: deviation bound b, variance proxy d, dimension n."""

    b: float
    d: float
    n: int

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError(f"b must be positive, got {self.b}")
        if self.d < 0:
            raise DomainError(f"d must be nonnegative, got {self.d}")
        if self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")


def kappa(params: KappaParams, s):
    """kappa_{b,d}(s) = n exp(s/b) ((bs+d)/d)^(-(bs+d)/b^2), evaluated in log space.

    Strictly decreasing in s for d > 0, with kappa(0) = n.  The d = 0 limit
    is the pointwise one: n at s = 0, 0 for s > 0.  Vectorized over s.
    """
    s_arr = np.asarray(s, dtype=float)
    if (s_arr < 0).any():
        raise DomainError("kappa is defined for s >= 0")
    b, d, n = params.b, params.d, params.n
    if d == 0:
        out = np.where(s_arr == 0, float(n), 0.0)
        return out if s_arr.ndim else float(out)
    out = np.exp(_log_kappa(params, s_arr))
    return out if s_arr.ndim else float(out)


def _log_kappa(params: KappaParams, s):
    """log kappa_{b,d}(s) for d > 0; the one formula of kappa and its inverse."""
    b, d, n = params.b, params.d, params.n
    z = (b * s + d) / (b * b)
    return np.log(n) + s / b - z * np.log1p(b * s / d)


def kappa_inv_at_one(params: KappaParams) -> float:
    """The point s0 >= 0 with kappa(s0) = 1 (bisection on log kappa).

    kappa maps [0, inf) onto (0, n], so the root exists and is unique for
    every n >= 1 with d > 0; n = 1 gives s0 = 0 exactly.  Bisects on floats
    with _log_kappa's formula and numpy's log1p: the same root, bit for bit.
    """
    if params.d == 0:
        raise DomainError("kappa_inv_at_one needs d > 0 (d = 0 is routed upstream)")
    if params.n == 1:
        return 0.0
    b, d, log_n = float(params.b), float(params.d), float(np.log(params.n))
    positive = lambda s: log_n + s / b - (b * s + d) / (b * b) * float(np.log1p(b * s / d)) > 0
    hi = b
    while positive(hi):
        hi *= 2.0
        if hi > 1e300:
            raise NumericalFailure("kappa inverse bracket exploded")
    lo = 0.0
    for _ in range(120):  # bisection to machine precision; monotone objective
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def c_minus(c: float) -> float:
    """Negative part (|c| - c)/2 = max(-c, 0)."""
    return max(-float(c), 0.0)


def _is_symmetric(m: np.ndarray) -> bool:
    if np.array_equal(m, m.T):  # exact symmetry, as of every AMEI mean, needs no tolerance
        return True
    scale = np.abs(m).max() if m.size else 0.0
    return np.abs(m - m.T).max() <= 1e-12 * max(1.0, scale)


def _is_metzler(m: np.ndarray) -> bool:
    # every entry that is not >= 0 (a NaN included) lies on the diagonal
    return np.count_nonzero(m >= 0) == m.size - np.count_nonzero(~(m.diagonal() >= 0))


def power_iteration_abscissa(m) -> float:
    """Spectral abscissa of a Metzler matrix by shifted power iteration.

    Iterates on M + cI with c = max_i |M_ii| plus a small positive margin;
    the margin keeps the diagonal strictly positive so every irreducible
    block is primitive and the iteration cannot cycle on periodic supports.
    Convergence is certified by the Collatz-Wielandt bracket
    min_i (Ax)_i/x_i <= rho <= max_i (Ax)_i/x_i for positive x.
    Accepts dense arrays or scipy sparse matrices.
    """
    sparse = sp.issparse(m)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0]) if not sparse else float(m.tocsr()[0, 0])
    diag = m.diagonal()
    scale = max(float(np.abs(diag).max()),
                float(abs(m).max() if not sparse else np.abs(m.tocoo().data).max(initial=0.0)))
    scale = max(scale, 1.0)
    shift = float(np.abs(diag).max()) + 0.05 * scale
    ident = sp.identity(n, format="csr") if sparse else np.eye(n)
    a = (m + shift * ident)
    if sparse:
        a = a.tocsr()
    x = np.full(n, 1.0 / np.sqrt(n))
    bracket = (np.nan, np.nan)
    width_checkpoint = np.inf
    for it in range(1, _POWER_MAX_ITER + 1):
        y = a @ x
        ymax = y.max()
        if ymax <= 0:
            return -shift if not y.any() else float(y.max()) - shift
        pos = x > 0
        ratios = y[pos] / x[pos]
        lo, hi = float(ratios.min()), float(ratios.max())
        bracket = (lo - shift, hi - shift)
        width = hi - lo
        if width <= _POWER_TOL * max(1.0, abs(hi)):
            return 0.5 * (lo + hi) - shift
        if it % 500 == 0:
            # reducible inputs (e.g. disjoint blocks with distinct roots) keep
            # the bracket frozen forever: bail out early for the dense fallback
            if width > 0.9 * width_checkpoint:
                raise ConvergenceFailure(
                    f"Collatz-Wielandt bracket stagnant after {it} iterations",
                    iterations=it, bracket=bracket)
            width_checkpoint = width
        x = y / np.linalg.norm(y)
        x[x < 0] = 0.0  # round-off guard; iterates of a nonnegative matrix stay >= 0
    raise ConvergenceFailure(
        f"power iteration did not converge in {_POWER_MAX_ITER} iterations",
        iterations=_POWER_MAX_ITER, bracket=bracket)


def _collatz_wielandt_bracket(m, x: np.ndarray):
    """(min, max) of (Mx)_i / x_i for a strictly positive x.

    For Metzler M the bracket holds the spectral abscissa.
    """
    ratios = (m @ x) / x
    return float(ratios.min()), float(ratios.max())


def _certified_abscissa(m) -> float:
    """Spectral abscissa of a Metzler matrix or operator by one certified ARPACK solve.

    ARPACK returns the rightmost Ritz vector; with its sign fixed so its sum
    is positive and every entry positive, the Collatz-Wielandt bracket
    bounds the true root and its midpoint is returned once the bracket is
    narrower than 1e-10 relative.  A positive vector whose bracket is wider
    takes up to _POLISH_STEPS steps x <- (M + cI) x, c = max(0, -min M_ii),
    which damp the far eigencomponents the Ritz vector still carries.  All
    of it takes matvecs and the diagonal only.  The start vector is fixed:
    ARPACK's default one is random, which would move the result in its last
    bits.  Otherwise an operator is materialized by its ``tocsr``,
    and the matrix, block-triangular in the order of the strongly connected
    components of its support, gives the largest abscissa of its diagonal
    blocks; only an irreducible one takes the power iteration, and one of
    dimension up to 1024 whose bracket stalls is solved densely.
    """
    try:
        _, vecs = spla.eigs(m, k=1, which="LR", tol=_ARPACK_TOL, v0=np.ones(m.shape[0]))
    except spla.ArpackError:
        pass
    else:
        x = vecs[:, 0].real
        if x.sum() < 0:
            x = -x
        shift = None
        for _ in range(_POLISH_STEPS + 1):
            if not x.min() > 0:
                break
            lo, hi = _collatz_wielandt_bracket(m, x)
            if hi - lo <= _CERTIFY_RTOL * max(1.0, abs(hi)):
                return 0.5 * (lo + hi)
            if shift is None:  # M + shift I is nonnegative
                shift = max(0.0, -float(m.diagonal().min()))
            x = m @ x + shift * x
            x /= np.linalg.norm(x)
    if isinstance(m, spla.LinearOperator):
        m = m.tocsr()
    count, labels = connected_components(m != 0, directed=True, connection="strong")
    if count == 1:
        try:
            return power_iteration_abscissa(m)
        except ConvergenceFailure:  # a spectral gap too small for the iteration
            if m.shape[0] > 1024:
                raise
        return float(np.linalg.eigvals(m.toarray() if sp.issparse(m) else m).real.max())
    return max(spectral_abscissa(m[nodes][:, nodes])
               for nodes in (np.flatnonzero(labels == c) for c in range(count)))


def spectral_abscissa(m) -> float:
    """Maximum real part of the eigenvalues (the Perron root for Metzler input).

    Sparse input must be Metzler, or ValueError is raised.  A
    ``LinearOperator`` with ``tocsr`` and ``diagonal`` methods is taken to be
    Metzler on its caller's word.  Sparse input and operators above 2x2 and
    dense Metzler input above 64x64 take one ARPACK solve certified by the
    Collatz-Wielandt bracket; when that fails, an operator is materialized,
    reducible input is split into its irreducible diagonal blocks and
    irreducible input takes the shifted power iteration.  Every other dense
    matrix is solved densely, by the symmetric eigensolver where it is
    symmetric.
    """
    if isinstance(m, spla.LinearOperator):
        return _certified_abscissa(m) if m.shape[0] > 2 else spectral_abscissa(m.tocsr())
    if sp.issparse(m):
        m = m.tocsr()
        # a negative entry off the diagonal has a column other than its row
        neg = np.flatnonzero(m.data < 0)
        rows = np.searchsorted(m.indptr, neg, side="right") - 1
        if (m.indices[neg] != rows).any():
            raise ValueError("sparse input to spectral_abscissa must be Metzler")
        if m.shape[0] > 2:  # ARPACK needs k = 1 < n - 1
            return _certified_abscissa(m)
        m = m.toarray()
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_abscissa needs a square matrix")
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    if n > _DENSE_FALLBACK_DIM and _is_metzler(m):
        return _certified_abscissa(m)
    if _is_symmetric(m):
        return float(np.linalg.eigvalsh(m)[-1])
    return float(np.linalg.eigvals(m).real.max())


def matrix_measure(m) -> float:
    """mu(A) = eta(A + A^T)/2, via the symmetric eigensolver."""
    if sp.issparse(m):
        m = m.toarray()
    m = np.asarray(m, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])


@dataclass
class ScalarMaximizeResult:
    s_star: float
    value: float
    interval: tuple

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo < self.s_star <= hi):
            raise ValueError("maximizer must lie in (lo, hi]")


def maximize_on_interval(objective, lo: float, hi: float) -> ScalarMaximizeResult:
    """Maximize a scalar objective on the half-open interval (lo, hi].

    Dense grid of 4,096 points, geometrically clustered towards lo
    (first point at lo + (hi-lo)*1e-9) because certificate objectives can
    diverge there, followed by a zoom around the best brackets: each pass
    evaluates every open bracket at once on 255 evenly spaced interior
    points and shrinks it to the two neighbours of its best point, until it
    is no wider than 1e-14*max(1, |a|, |b|).  The reported value is attained
    at the reported point, hence a certified lower bound on the supremum.
    ``objective`` must accept numpy arrays.  A value above the cap raises
    DivergenceDetected, which certificate callers read as "holds trivially".
    """
    if not hi > lo:
        raise EmptyInterval(f"need hi > lo, got ({lo}, {hi}]")
    span = hi - lo
    xs = lo + span * _GRID
    xs[-1] = hi
    vals = np.asarray(objective(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("objective must be vectorized over s")
    if (vals > _DIVERGENCE_CAP).any():  # +inf included
        raise DivergenceDetected("objective exceeds the divergence cap near lo")
    finite = np.isfinite(vals)
    if not finite.any():
        raise NumericalFailure("objective returned no finite values on the grid")
    vals = np.where(finite, vals, -np.inf)

    top = np.argpartition(vals, -_REFINE_BRACKETS)[-_REFINE_BRACKETS:]
    top = top[np.argsort(vals[top])[::-1]].tolist()
    best_x, best_v = float(xs[top[0]]), float(vals[top[0]])
    seen, brackets = set(), []
    for k in top:
        if k in seen or not finite[k]:
            continue
        seen.update((k - 1, k, k + 1))
        brackets.append((float(xs[k - 1]) if k > 0 else lo + span * 1e-12,
                         float(xs[k + 1]) if k + 1 < xs.size else hi))
    for _ in range(_ZOOM_PASSES):
        brackets = [(a, b) for a, b in brackets if b - a > 1e-14 * max(1.0, abs(a), abs(b))]
        if not brackets:
            break
        ab = np.array(brackets)
        pts = ab[:, :1] + (ab[:, 1:] - ab[:, :1]) * _ZOOM_STEPS
        pts[:, 0], pts[:, -1] = ab[:, 0], ab[:, 1]
        v = np.asarray(objective(pts[:, 1:-1].ravel()), dtype=float).reshape(len(ab), -1)
        v[np.isnan(v)] = -np.inf
        rows, k = np.arange(len(ab)), v.argmax(axis=1)
        i = int(v[rows, k].argmax())
        x, v_best = float(pts[i, k[i] + 1]), float(v[i, k[i]])
        if v_best > best_v and lo < x <= hi:
            best_x, best_v = x, v_best
        if v_best > _DIVERGENCE_CAP:
            raise DivergenceDetected("objective exceeds the divergence cap near lo")
        # each bracket shrinks to the two neighbours of its best point
        brackets = list(zip(pts[rows, k].tolist(), pts[rows, k + 2].tolist()))
    return ScalarMaximizeResult(best_x, best_v, (lo, hi))
