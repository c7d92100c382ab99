"""Scalar and spectral kernels shared by every stability certificate.

Houses the concentration function kappa_{b,d} and its inverse at 1, the
bisection walk that inverse shares with the threshold search, the spectral
abscissa eta, the matrix measure mu, the c^- clip, and bounded 1-D
maximization with a certified-lower-bound contract.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceFailure, DivergenceDetected, DomainError, EmptyInterval, NumericalFailure

_DENSE_FALLBACK_DIM = 64
_DENSE_STALL_DIM = 1024  # an irreducible block up to this size goes dense when the loop stalls
_ARPACK_TOL = 1e-12
_SYMMETRIC_TOL = 1e-14    # residual that ends the symmetric solve, relative to max(1, |theta|)
_SYMMETRIC_STEPS = 200    # steps before a symmetric operator goes to ARPACK
_SYMMETRIC_MIN_DIM = 4096  # below it ARPACK's loop is the faster
_CERTIFY_RTOL = 1e-10
_CERTIFY_ULPS = 64     # the bracket's rounding floor, in ulps of max |M_ii|
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
    every n >= 1 with d > 0; n = 1 gives s0 = 0 exactly.  Bisects on floats,
    along ``descend``'s path to adjacent floats, with _log_kappa's formula and
    numpy's log1p: the same root, bit for bit.
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
    lo, hi, _ = descend(0.0, hi, 0.0, positive)
    return 0.5 * (lo + hi)


def descend(lo: float, hi: float, tol: float, keep_upper):
    """Follow bisection's midpoints ``0.5 * (lo + hi)`` from (lo, hi) while
    ``keep_upper(mid)`` says which half to keep.  Stops at a bracket of width
    <= tol or whose midpoint equals an end in floating point (mid None), or at
    the first midpoint ``keep_upper`` leaves undecided (returned as mid)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        upper = keep_upper(mid)
        if upper is None:
            return lo, hi, mid
        lo, hi = (mid, hi) if upper else (lo, mid)
    return lo, hi, None


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


def power_iteration_abscissa(m, x=None) -> float:
    """Spectral abscissa of a Metzler matrix or operator by shifted power iteration.

    Starts from the positive ``x`` (default: ones) and steps x <- Mx + cx,
    c = max(0, -min M_ii) plus a twentieth of the largest row sum of
    M + max(0, -min M_ii) I, a margin that keeps every irreducible block
    primitive.  Each step costs one matvec and reads the Collatz-Wielandt
    bracket min_i (Mx)_i/x_i <= eta <= max_i (Mx)_i/x_i of M itself; its
    midpoint is returned once it is no wider than 1e-10 max(1, |hi|) plus
    64 ulps of max_i |M_ii|, the width rounding leaves where the diagonal
    cancels its row.  A bracket that narrows by less than a tenth over 500
    steps, or an iterate that is not strictly positive, raises
    ConvergenceFailure.  Needs matvecs and the diagonal only.
    """
    ones = np.ones(m.shape[0])
    x = ones if x is None else x
    diag = m.diagonal()
    floor = _CERTIFY_ULPS * np.finfo(float).eps * float(np.abs(diag).max())
    shift, width_checkpoint = None, None
    for it in itertools.count(0):
        if not x.min() > 0:
            raise ConvergenceFailure(f"power iterate not positive after {it} iterations",
                                     iterations=it)
        y = m @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        width = hi - lo
        if width <= _CERTIFY_RTOL * max(1.0, abs(hi)) + floor:
            return 0.5 * (lo + hi)
        if it % 500 == 0:
            # reducible inputs (e.g. disjoint blocks with distinct roots) keep
            # the bracket frozen forever: bail out early for the dense fallback
            if width_checkpoint is not None and width > 0.9 * width_checkpoint:
                raise ConvergenceFailure(
                    f"Collatz-Wielandt bracket stagnant after {it} iterations",
                    iterations=it, bracket=(lo, hi))
            width_checkpoint = width
        if shift is None:  # only once a step is needed: a certified start pays no matvec more
            shift = max(0.0, -float(diag.min()))
            shift += 0.05 * (float((m @ ones).max()) + shift)
        x = y + shift * x
        x /= np.linalg.norm(x)


def _ritz_vector(m, scale=None) -> np.ndarray:
    """ARPACK's rightmost Ritz vector of m, its sum made positive.

    ARPACK bounds the residual in norm only, so the small entries of a
    Perron vector that spans decades come back poor.  A positive ``scale``
    near that vector runs the solve on diag(scale)^-1 m diag(scale), whose
    Perron vector is near ones and so accurate entry by entry.  The start
    vector is fixed: ARPACK's random default would move the last bits.
    """
    op = m if scale is None else spla.LinearOperator(
        m.shape, matvec=lambda v: (m @ (scale * np.ravel(v))) / scale, dtype=float)
    _, vecs = spla.eigs(op, k=1, which="LR", tol=_ARPACK_TOL, v0=np.ones(m.shape[0]))
    x = vecs[:, 0].real if scale is None else vecs[:, 0].real * scale
    return -x if x.sum() < 0 else x


def _symmetric_vector(m):
    """Perron vector of an operator whose ``symmetric_form()`` offers
    (apply, precondition, into, back), from the preconditioned eigensolver
    LOBPCG on its symmetric S; None without that form or when
    _SYMMETRIC_STEPS steps leave the residual above
    _SYMMETRIC_TOL max(1, |theta|).

    ``apply(x, out)`` writes S x to out, ``precondition(r)`` scales r in
    place by an SPD T, ``into(v)`` maps a vector of m into S's basis and
    ``back(x)`` maps one back, in place.  From the image of ones, each step
    takes the Rayleigh quotient theta of the unit x and the residual
    r = S x - theta x, and moves x to the top Ritz vector of S on the span
    of x, T r and the step before (Knyazev, SIAM J. Sci. Comput. 23:517,
    2001), one application of S a step.  ``back`` maps the vector to m, its
    sign fixed so that its sum is positive.
    """
    form = m.symmetric_form() if hasattr(m, "symmetric_form") else None
    if form is None:
        return None
    apply, precondition, into, back = form
    x = _ascent(apply, precondition, into(np.ones(m.shape[0])))
    if x is None:
        return None
    x = back(x)
    if x.sum() < 0:
        np.negative(x, out=x)
    return x


def _ascent(apply, precondition, x):
    """The unit top eigenvector that LOBPCG steps reach from x (see
    ``_symmetric_vector``), or None.

    Holds six vectors: x, w = T r, the step p and their images under S,
    which follow them by the same combinations.  Every update is a numpy
    ufunc with ``out``, so no step allocates a full-length temporary.  A
    Gram matrix that is not positive definite to rounding ends the solve.
    """
    x /= np.linalg.norm(x)
    sx, w, sw = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    p, sp = np.zeros_like(x), np.zeros_like(x)
    apply(x, sx)
    size = 2  # the basis is x and w, and p from the second step on
    for _ in range(_SYMMETRIC_STEPS):
        theta = float(x @ sx)
        np.multiply(x, -theta, out=w)
        w += sx
        if np.linalg.norm(w) <= _SYMMETRIC_TOL * max(1.0, abs(theta)):
            return x
        precondition(w)
        w /= np.linalg.norm(w)
        apply(w, sw)
        c = _ritz_coefficients((x, w, p)[:size], (sx, sw, sp)[:size])
        if c is None:
            return None
        c = (*c, 0.0)[:3]
        for v, dv, pv in ((x, w, p), (sx, sw, sp)):
            pv *= c[2]  # p <- c1 w + c2 p, x <- c0 x + p
            dv *= c[1]
            pv += dv
            v *= c[0]
            v += pv
        for v, sv in ((x, sx), (p, sp)):
            norm = np.linalg.norm(v)
            v /= norm
            sv /= norm
        size = 3
    return None


def _ritz_coefficients(basis, images):
    """Coefficients of the top Ritz vector of S on the span of ``basis``
    (``images`` their images under S), or None when the Gram matrix is not
    positive definite; by Cholesky-QR of the small Gram matrix."""
    gram = np.array([[u @ v for v in basis] for u in basis])
    rayleigh = np.array([[u @ v for v in images] for u in basis])
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    half = np.linalg.solve(low, np.linalg.solve(low, rayleigh + rayleigh.T).T)
    return np.linalg.solve(low.T, np.linalg.eigh(half)[1][:, -1])


def _certified_abscissa(m) -> float:
    """Spectral abscissa of a Metzler matrix or operator, certified by its bracket.

    An operator of dimension _SYMMETRIC_MIN_DIM or more that offers a
    ``symmetric_form()`` first gets its Perron vector from
    ``_symmetric_vector``; if that vector is strictly positive it starts
    ``power_iteration_abscissa``.  When the eigensolver misses its step
    budget, the vector is not positive or the loop stalls, the operator
    takes the route of every other input.  There a positive Ritz vector starts
    ``power_iteration_abscissa``; if the loop stalls, as on a stiff block,
    a second ARPACK solve balanced by that vector starts it once more.
    Only when ARPACK raises, the vector is not positive or both starts
    stall is an operator materialized by ``tocsr`` and split into the
    strongly connected components of its support, in whose order its
    diagonal blocks give eta.  An irreducible matrix takes the loop from
    ones unless a loop has stalled on it already, and then dense
    ``eigvals`` up to dimension _DENSE_STALL_DIM; above that the stall is
    raised.
    """
    x = _symmetric_vector(m) if m.shape[0] >= _SYMMETRIC_MIN_DIM else None
    if x is not None and x.min() > 0:
        with contextlib.suppress(ConvergenceFailure):
            return power_iteration_abscissa(m, x)
    stall = None  # the loop's ConvergenceFailure, once it has stalled on m
    with contextlib.suppress(spla.ArpackError, ConvergenceFailure):
        x = _ritz_vector(m)
        if x.min() > 0:
            try:
                return power_iteration_abscissa(m, x)
            except ConvergenceFailure as error:
                stall = error
            return power_iteration_abscissa(m, _ritz_vector(m, x))
    if isinstance(m, spla.LinearOperator):
        m = m.tocsr()
    count, labels = connected_components(m != 0, directed=True, connection="strong")
    if count > 1:
        return max(spectral_abscissa(m[nodes][:, nodes])
                   for nodes in (np.flatnonzero(labels == c) for c in range(count)))
    if stall is None:
        try:
            return power_iteration_abscissa(m)
        except ConvergenceFailure as error:
            stall = error
    if m.shape[0] > _DENSE_STALL_DIM:
        raise stall
    return float(np.linalg.eigvals(m.toarray() if sp.issparse(m) else m).real.max())


def spectral_abscissa(m) -> float:
    """Maximum real part of the eigenvalues (the Perron root for Metzler input).

    Sparse input must be Metzler, or ValueError is raised.  A
    ``LinearOperator`` with ``tocsr`` and ``diagonal`` methods is taken to be
    Metzler on its caller's word, and one whose ``symmetric_form()`` offers
    a symmetric similar operator on the same word: from dimension
    _SYMMETRIC_MIN_DIM up its power iteration starts from that operator's
    top eigenvector when the preconditioned eigensolver converges.  Sparse input and operators above 2x2 and
    dense Metzler input above 64x64 take one ARPACK solve whose Ritz vector
    starts the shifted power iteration, certified by the Collatz-Wielandt
    bracket, and a second solve balanced by that vector if the iteration
    stalls; only when ARPACK raises, the vector is not positive or both
    starts stall is an operator materialized, reducible input split into
    its irreducible diagonal blocks and irreducible input solved from ones
    or densely (see ``_certified_abscissa``).  Every other dense matrix is
    solved densely, by the symmetric eigensolver where it is symmetric.
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
    DivergenceDetected, which the certificates let propagate: none of their
    objectives diverges in exact arithmetic.
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
