"""Linear-size stability certificates for spreading over dynamic graphs.

Four certificates (continuous-time arc-independent, continuous-time
edge-independent, its homogeneous-rate specialization, and the discrete-time
edge-independent one) plus the static baselines.  Each produces a
ThresholdReport carrying the verdict, the certified threshold, the
optimizer, a decay-rate lower bound, and every named intermediate.  T1 and
T2 are one template, at scaling a = 2 (matrix measure) and a = 1 (abscissa).

All certificates are sufficient conditions: the maximizer reports a value
attained at a point of its grid or zoom passes, a lower bound on the true
supremum, so verdicts may be conservative but never unsound.  Three routes
skip the maximization, each built in one place: a deterministic graph is
rerouted to its static condition, a stable support graph gives
SUPPORT_TRIVIAL with the support-bound decay rate, and an empty interval
gives no certificate (interval_empty).  No objective diverges in exact
arithmetic, so the maximizer's DivergenceDetected propagates as a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, NonIrreducible, ParamRange, ReducibleChain, WrongKind
from .graphs import AMAI, AMEI, MeanMatrix, mean_matrix
from .markov import CT, DT
from .spectral import KappaParams, c_minus, descend, kappa, kappa_inv_at_one, matrix_measure, \
    maximize_on_interval, spectral_abscissa

T1, T2, T3, T4 = "T1", "T2", "T3", "T4"
STATIC_CT, STATIC_DT, SUPPORT_TRIVIAL = "STATIC_CT", "STATIC_DT", "SUPPORT_TRIVIAL"


@dataclass
class EpidemicParams:
    """Per-node infection rates beta_i and recovery rates delta_i."""

    beta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.array(self.beta, dtype=float))
        d = np.atleast_1d(np.array(self.delta, dtype=float))
        if b.shape != d.shape or b.ndim != 1:
            raise ValueError("beta and delta must be 1-D vectors of equal length")
        if not (0 < b.min() and b.max() < math.inf and 0 < d.min() and d.max() < math.inf):
            raise ParamRange("infection and recovery rates must be finite and positive")
        b.setflags(write=False)
        d.setflags(write=False)
        self.beta, self.delta = b, d

    @classmethod
    def homogeneous(cls, beta: float, delta: float, n: int) -> "EpidemicParams":
        return cls(np.full(n, float(beta)), np.full(n, float(delta)))

    @property
    def n(self) -> int:
        return self.beta.size

    @property
    def beta_max(self) -> float:
        return float(self.beta.max())

    @property
    def delta_min(self) -> float:
        return float(self.delta.min())

    @property
    def is_homogeneous(self) -> bool:
        return self.beta.min() == self.beta.max() and self.delta.min() == self.delta.max()


def require_dt(beta: np.ndarray, delta: np.ndarray):
    """Refuse DT rates above 1: there beta_i and delta_i are per-step probabilities."""
    if delta.max() > 1:
        raise ParamRange("discrete-time recovery probabilities must satisfy delta_i <= 1")
    if beta.max() > 1:
        raise ParamRange("discrete-time infection probabilities must satisfy beta_i <= 1")


@dataclass
class ThresholdReport:
    """Certificate output; ``stable`` always equals ``lhs < threshold``."""

    certificate: str
    lhs: float
    threshold: float
    s_star: float
    decay_rate_bound: float | None
    stable: bool
    intermediates: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stable != bool(self.lhs < self.threshold) \
                or (self.decay_rate_bound is not None) != self.stable:
            raise ValueError(f"inconsistent {self.certificate} report: stable={self.stable}, "
                             f"lhs={self.lhs!r}, threshold={self.threshold!r}, "
                             f"decay_rate_bound={self.decay_rate_bound!r}")

    def to_dict(self) -> dict:
        return _jsonable({
            "certificate": self.certificate,
            "lhs": self.lhs,
            "threshold": self.threshold,
            "s_star": self.s_star,
            "decay_bound": self.decay_rate_bound,
            "stable": self.stable,
            "intermediates": self.intermediates,
        })

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _jsonable(v):
    """Map a value onto JSON types; non-finite floats become 'inf', '-inf', None."""
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (np.integer, np.bool_)):
        return v.item()
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    v = float(v)
    if math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _as_mean(source) -> MeanMatrix:
    if isinstance(source, MeanMatrix):
        return source
    try:
        return mean_matrix(source)
    except ReducibleChain as exc:
        raise NonIrreducible(str(exc)) from exc


def _check(mean: MeanMatrix, params: EpidemicParams, kind: str, time: str):
    if mean.kind != kind:
        raise WrongKind(f"certificate needs an {kind.upper()} graph, got {mean.kind.upper()}")
    if mean.time != time:
        raise WrongKind(f"certificate needs a {time.upper()} graph, got {mean.time.upper()}")
    if params.n != mean.n:
        raise ValueError("epidemic params length does not match node count")


def _mix(mean: MeanMatrix, params: EpidemicParams, *, support: bool,
         plus_identity: bool = False, measure: bool = False) -> float:
    """eta(B*M - D [+ I]), or mu(B*M - D) with ``measure``, for M = a_bar or sgn(a_bar),
    on a DT graph only at rates that are probabilities (``require_dt``).

    Homogeneous rates reduce to beta*eta(M) - delta [+ 1] (beta*mu(M) - delta)
    using the cached spectra; heterogeneous AMEI abscissas go through the
    symmetric similarity B^{-1/2}(BM - D)B^{1/2} = B^{1/2} M B^{1/2} - D.
    """
    if mean.time == DT:
        require_dt(params.beta, params.delta)
    shift = 1.0 if plus_identity else 0.0
    solver = matrix_measure if measure else spectral_abscissa
    if params.is_homogeneous:
        return float(params.beta[0]) * mean.spectrum(solver, support) \
            - float(params.delta[0]) + shift
    a = mean.support() if support else mean.a_bar
    if mean.kind == AMEI and not measure:
        sb = np.sqrt(params.beta)
        return spectral_abscissa(sb[:, None] * a * sb[None, :] - np.diag(params.delta - shift))
    return solver(params.beta[:, None] * a - np.diag(params.delta - shift))


def kappa_params(family: str, a_bar, beta: np.ndarray) -> KappaParams:
    """C and v^2 of the bound kappa_{C,v^2} of family M1..M4, w = Abar (1 - Abar):

    Delta1 = max_i (beta_i^2 sum_j w_ij + sum_j w_ji beta_j^2) for M1 (T1),
    Delta2 = max_i beta_i sum_j w_ij beta_j for M2 and M4 (T2, T4), and
    Delta3 = max_i sum_j w_ij for M3 (T3).  C is beta_max, and 1 for M3.
    ``a_bar`` is an array or a MeanMatrix, whose cached w is then used.
    """
    w = a_bar.variance() if isinstance(a_bar, MeanMatrix) else a_bar * (1.0 - a_bar)
    if family == "M3":
        return KappaParams(1.0, float(w.sum(axis=1).max()), len(w))
    if family == "M1":
        b2 = beta ** 2
        d = (b2 * w.sum(axis=1) + w.T @ b2).max()
    elif family in ("M2", "M4"):
        d = (beta * (w @ beta)).max()
    else:
        raise ValueError(f"unknown random-matrix family {family!r}")
    return KappaParams(float(beta.max()), float(d), len(w))


# ---------------------------------------------------------------------------
# Static baselines
# ---------------------------------------------------------------------------

def _static_report(mean: MeanMatrix, params: EpidemicParams, time: str, **inter) -> ThresholdReport:
    """Exact static condition on the mean matrix (homogeneous rates use the
    cached eta(Abar)): eta(B Abar - D) < 0 in CT, eta(B Abar + I - D) < 1 in DT."""
    if time == CT:
        lhs = _mix(mean, params, support=False)
        stable = lhs < 0.0
        inter["eta_BAbar_minus_D"] = lhs
        return ThresholdReport(STATIC_CT, lhs, 0.0, float("nan"),
                               -lhs if stable else None, stable, inter)
    # spectra first: the support's eigensolve never overlaps the cached w
    lam4 = _mix(mean, params, support=False, plus_identity=True)
    stable = lam4 < 1.0
    inter["lambda4"] = lam4
    decay = (-math.log(lam4) if lam4 > 0 else math.inf) if stable else None
    return ThresholdReport(STATIC_DT, lam4, 1.0, float("nan"), decay, stable, inter)


def _support_trivial_report(lhs: float, decay: float, inter: dict, tau_key: str) -> ThresholdReport:
    """SUPPORT_TRIVIAL: the always-on support graph alone decays at ``decay``."""
    inter.update({tau_key: math.inf, "s_star": float("nan"), "decay_bound": decay,
                  "trivial_regime": True})
    return ThresholdReport(SUPPORT_TRIVIAL, lhs, math.inf, float("nan"), decay, True, inter)


def _no_certificate(cert: str, lhs: float, inter: dict, tau_key: str) -> ThresholdReport:
    """Unstable with threshold -inf: the maximization interval is empty."""
    inter.update({tau_key: -math.inf, "s_star": float("nan"), "interval_empty": True})
    return ThresholdReport(cert, lhs, -math.inf, float("nan"), None, False, inter)


# ---------------------------------------------------------------------------
# T1 and T2: continuous-time, arc- and edge-independent certificates
# ---------------------------------------------------------------------------

# T1 bounds mu at a = 2, T2 eta at a = 1.  Per row: kind, family, _mix's
# measure flag, a, and the names of Delta, c, sbar, lhs, the support's value, tau.
_CT_TEMPLATES = {
    T1: (AMAI, "M1", True, 2.0,
         ("Delta1", "c1", "sbar1", "mu_BAbar_minus_D", "mu_Bsgn_minus_D", "tau_A")),
    T2: (AMEI, "M2", False, 1.0,
         ("Delta2", "c2", "sbar2", "eta_BAbar_minus_D", "eta_Bsgn_minus_D", "tau_E")),
}


def _certify_ct(cert: str, graph_or_mean, params: EpidemicParams) -> ThresholdReport:
    """T1 or T2 from the template of ``cert``: with sgn the support's value,
    c = sgn - s0/a and sbar = a (delta_min + c^-), the threshold is the maximum
    over (s0, sbar] of -(s + a c kappa(s)) / (a (1 - kappa(s))).  SUPPORT_TRIVIAL
    when sgn < 0, no certificate on an empty interval; else the numerator tends
    to -a sgn <= 0 at s0, so a DivergenceDetected is a failure and propagates."""
    kind, family, measure, a, names = _CT_TEMPLATES[cert]
    d_key, c_key, sbar_key, lhs_key, sgn_key, tau_key = names
    mean = _as_mean(graph_or_mean)
    _check(mean, params, kind, CT)
    kp = kappa_params(family, mean, params.beta)
    if kp.d == 0.0:
        return _static_report(mean, params, mean.time, routed_from=cert, deterministic=True)

    lhs = _mix(mean, params, support=False, measure=measure)
    sgn = _mix(mean, params, support=True, measure=measure)
    s0 = kappa_inv_at_one(kp)
    c = sgn - s0 / a
    sbar = a * (params.delta_min + c_minus(c))
    inter = {d_key: kp.d, c_key: c, sbar_key: sbar, "kappa_inv_1": s0,
             lhs_key: lhs, sgn_key: sgn,
             "beta_max": params.beta_max, "delta_min": params.delta_min}

    def objective(s):
        k = kappa(kp, s)
        return -(s + a * c * k) / (a * (1.0 - k))

    if sgn < 0.0:
        return _support_trivial_report(lhs, -sgn, inter, tau_key)
    if sbar <= s0:
        return _no_certificate(cert, lhs, inter, tau_key)
    res = maximize_on_interval(objective, s0, sbar)
    tau, s_star = res.value, res.s_star
    stable = lhs < tau
    k_star = kappa(kp, s_star)
    decay = -lhs * (1.0 - k_star) - s_star / a - c * k_star if stable else None
    inter.update({tau_key: tau, "s_star": s_star, "kappa_s_star": k_star, "decay_bound": decay})
    return ThresholdReport(cert, lhs, tau, s_star, decay, stable, inter)


def certify_amai_ct(graph_or_mean, params: EpidemicParams) -> ThresholdReport:
    return _certify_ct(T1, graph_or_mean, params)


def certify_amei_ct(graph_or_mean, params: EpidemicParams) -> ThresholdReport:
    return _certify_ct(T2, graph_or_mean, params)


# ---------------------------------------------------------------------------
# T3: homogeneous rates on an AMEI graph
# ---------------------------------------------------------------------------

def _xi_h(kp: KappaParams, eta_sgn: float, delta_over_beta: float):
    """xi_H, its maximizer and the M3 constants (s0, c3, sbar3) of ``kp``,
    as ``xi_h_factor`` describes them for Delta3 > 0."""
    s0 = kappa_inv_at_one(kp)
    c3 = eta_sgn - s0
    sbar3 = delta_over_beta + c_minus(c3)
    if delta_over_beta > eta_sgn:  # the one test of the trivial regime
        return math.inf, float("nan"), (s0, c3, sbar3)
    if sbar3 <= s0:
        return -math.inf, float("nan"), (s0, c3, sbar3)

    inv_ratio = 1.0 / delta_over_beta  # beta/delta

    def objective(s):
        k = kappa(kp, s)
        return (1.0 - inv_ratio * (s + c3 * k)) / (1.0 - k)

    res = maximize_on_interval(objective, s0, sbar3)
    return res.value, res.s_star, (s0, c3, sbar3)


def xi_h_factor(n: int, eta_sgn: float, delta_over_beta: float, delta3: float):
    """The multiplicative threshold factor xi_H for homogeneous rates.

    Depends only on (n, eta(sgn Abar), delta/beta, Delta3).  Returns
    (xi_H, s_star): xi_H = 1 for a deterministic graph (Delta3 = 0), +inf in
    the trivial regime delta/beta > eta(sgn Abar), and -inf when the
    maximization interval is empty (certificate cannot conclude).
    """
    if delta3 < 0:
        raise ValueError("Delta3 must be nonnegative")
    if delta3 == 0.0:
        return 1.0, float("nan")
    return _xi_h(KappaParams(1.0, float(delta3), int(n)), eta_sgn, delta_over_beta)[:2]


def certify_homogeneous(graph_or_mean, beta: float, delta: float) -> ThresholdReport:
    mean = _as_mean(graph_or_mean)
    params = EpidemicParams.homogeneous(beta, delta, mean.n)
    _check(mean, params, AMEI, CT)
    beta, delta = float(beta), float(delta)
    kp = kappa_params("M3", mean, params.beta)
    lam3 = mean.eta_abar()
    if kp.d == 0.0:
        lhs = beta / delta
        threshold = math.inf if lam3 <= 0 else 1.0 / lam3
        stable = lhs < threshold
        decay = (delta - beta * lam3) if stable else None
        inter = {"Delta3": 0.0, "lambda3": lam3, "routed_from": T3, "deterministic": True}
        return ThresholdReport(STATIC_CT, lhs, threshold, float("nan"), decay, stable, inter)

    eta_sgn = mean.eta_support()
    dob = delta / beta
    xi_h, s_star, (s0, c3, sbar3) = _xi_h(kp, eta_sgn, dob)
    inter = {"Delta3": kp.d, "c3": c3, "sbar3": sbar3, "kappa_inv_1": s0,
             "lambda3": lam3, "eta_sgn": eta_sgn, "beta": beta, "delta": delta}
    lhs = beta / delta
    if xi_h == math.inf:  # the support graph alone decays: delta - beta eta_sgn >= 0
        return _support_trivial_report(lhs, delta - beta * eta_sgn, inter, "xi_H")
    if xi_h == -math.inf:  # empty interval: cannot certify
        return _no_certificate(T3, lhs, inter, "xi_H")
    threshold = xi_h / lam3
    stable = lhs < threshold
    k_star = kappa(kp, s_star)
    # Paper-convention bound is per unit of beta-scaled time; multiply by
    # beta so the bound applies to the decay of Sigma itself.
    paper_bound = dob - lam3 - s_star - (c3 - lam3) * k_star
    decay = beta * paper_bound if stable else None
    inter.update(xi_H=xi_h, s_star=s_star, kappa_s_star=k_star,
                 decay_bound=decay if stable else None,
                 decay_bound_paper_convention=paper_bound)
    return ThresholdReport(T3, lhs, threshold, s_star, decay, stable, inter)


# ---------------------------------------------------------------------------
# T4: discrete-time, edge-independent certificate
# ---------------------------------------------------------------------------

def certify_amei_dt(graph_or_mean, params: EpidemicParams) -> ThresholdReport:
    mean = _as_mean(graph_or_mean)
    if mean.periodic_edge is not None:
        i, j = mean.periodic_edge
        raise NonIrreducible(f"edge ({i},{j}) chain is periodic; "
                             "the discrete-time certificate needs aperiodic chains")
    _check(mean, params, AMEI, DT)
    # spectra first: the support's eigensolve never overlaps the cached w
    lam4 = _mix(mean, params, support=False, plus_identity=True)
    eta_max = _mix(mean, params, support=True, plus_identity=True)
    kp = kappa_params("M4", mean, params.beta)
    if kp.d == 0.0:
        return _static_report(mean, params, mean.time, routed_from=T4, deterministic=True)

    inter = {"Delta2": kp.d, "lambda4": lam4, "eta_Mmax": eta_max,
             "beta_max": params.beta_max, "delta_min": params.delta_min}
    if lam4 >= 1.0:
        return _no_certificate(T4, lam4, inter, "tau_D")

    log_ratio = math.log(lam4 / eta_max)  # <= 0 by Metzler monotonicity

    def objective(s):
        return np.exp(kappa(kp, s) * log_ratio) - s

    # the interval is closed at s = 0 (kappa(0) = n); evaluate it separately
    g0 = math.exp(mean.n * log_ratio)
    res = maximize_on_interval(objective, 0.0, 1.0 - lam4)
    tau_d, s_star = (res.value, res.s_star) if res.value >= g0 else (g0, 0.0)
    stable = lam4 < tau_d
    k_star = kappa(kp, s_star)
    gamma_d = -math.log(lam4 + s_star) + k_star * log_ratio
    decay = gamma_d if stable else None
    inter.update(tau_D=tau_d, s_star=s_star, kappa_s_star=k_star,
                 gamma_D=gamma_d, decay_bound=decay)
    return ThresholdReport(T4, lam4, tau_d, s_star, decay, stable, inter)


# ---------------------------------------------------------------------------
# Scalar threshold search
# ---------------------------------------------------------------------------

CERTIFICATES = {
    "t1": certify_amai_ct,
    "t2": certify_amei_ct,
    "t3": lambda g, p: certify_homogeneous(g, float(p.beta[0]), float(p.delta[0])),
    "t4": certify_amei_dt,
    "static_ct": lambda g, p: _static_report(_as_mean(g), p, CT),
    "static_dt": lambda g, p: _static_report(_as_mean(g), p, DT),
}


def certify(graph_or_mean, certificate: str, beta: float, delta: float) -> ThresholdReport:
    """Report of one certificate of CERTIFICATES at homogeneous rates."""
    if certificate.lower() not in CERTIFICATES:
        raise ValueError(f"unknown certificate {certificate!r}")
    params = EpidemicParams.homogeneous(beta, delta, graph_or_mean.n)
    return CERTIFICATES[certificate.lower()](graph_or_mean, params)


def threshold_in_beta(graph_or_mean, delta: float, certificate: str,
                      search_bounds, tol: float = 1e-7) -> float:
    """Largest homogeneous beta certified stable: the end of bisection's path.

    The path starts at search_bounds; mid = 0.5 * (lo + hi) replaces lo when
    stable and hi otherwise, until hi - lo <= tol or mid equals an end in
    floating point.  The verdict is assumed monotone in beta, so a midpoint at
    or below a beta certified stable is stable and one at or above a beta
    certified unstable is not; ``certify`` runs only where these leave a
    midpoint undecided.  There the margins threshold - lhs of the closest
    stable and unstable betas give a false-position guess of the root
    (Illinois: a side kept twice in a row has its margin halved); the path is
    followed toward the guess, without calls, to its last bracket, whose
    undecided end nearest the guess is certified.  The midpoint itself is
    certified when a margin is infinite (SUPPORT_TRIVIAL, an empty interval)
    or the guess leaves the bracket.  So the answer is bisection's bit for
    bit when the verdict is monotone, and in any case a beta ``certify``
    reported stable.

    Raises ValueError unless tol is finite and positive, and BracketError
    unless the bounds are finite with lo < hi, or when lo is not stable;
    returns hi when even it is stable.
    """
    mean = _as_mean(graph_or_mean)
    lo, hi = float(search_bounds[0]), float(search_bounds[1])
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BracketError(f"need finite lo < hi, got ({lo}, {hi})")
    # closest beta certified on each side (True: stable) and its Illinois-weighted margin
    best = {True: (-math.inf, math.nan), False: (math.inf, math.nan)}
    last_side = None

    def probe(beta):
        nonlocal last_side
        rep = certify(mean, certificate, beta, delta)
        side = rep.stable
        if side == last_side:
            other, margin = best[not side]
            best[not side] = (other, 0.5 * margin)
        best[side], last_side = (beta, rep.threshold - rep.lhs), side
        return side

    def known(beta):
        return True if beta <= best[True][0] else False if beta >= best[False][0] else None

    if probe(hi):
        return hi
    if not probe(lo):
        raise BracketError(f"certificate {certificate} is already unstable at beta={lo}")
    while True:
        a, b, mid = descend(lo, hi, tol, known)
        if mid is None:
            # every call lands strictly between the closest stable and unstable
            # betas, on a node of the path's tree, so the path ends on the former
            return best[True][0]
        (s, fs), (u, fu) = best[True], best[False]
        target = mid
        if math.isfinite(fs) and math.isfinite(fu):
            guess = (s * fu - u * fs) / (fu - fs)
            if a < guess < b:
                ends = [e for e in descend(a, b, tol, lambda m: guess >= m)[:2]
                        if known(e) is None]
                if ends:
                    target = min(ends, key=lambda e: abs(e - guess))
        probe(target)
