"""Command-line entry point.

Subcommands: threshold, simulate, empirical, oracle, chung, spectra,
figure3, figure456.  Global flags: --seed, --threads, --out, --config
(JSON file merged under explicit flags); TEMPEST_THREADS is the fallback
for --threads.  Exit codes: 0 ok, 1 config error, 2 numerical failure,
3 resource cap exceeded.

Every output file embeds the config hash and seed: CSV files start with a
'# {json}' header line, JSON files carry config/config_hash/seed fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import rng as rngmod
from .config import ExperimentConfig, build_graph, load_json
from .errors import BracketError, ConfigError, NUMERICAL_ERRORS, ParamRange, RESOURCE_ERRORS, \
    TempestError, WrongKind
from .graphs import mean_matrix
from .markov import CT, DT
from .oracle import RandomMatrixSampler, chung_tail_check, expected_certificate, \
    exponential_condition
from .simulate import _init_mask, empirical_threshold, simulate_ct_exact, simulate_dt_exact
from .thresholds import CERTIFICATES, EpidemicParams, _jsonable, _mix, certify, \
    threshold_in_beta, xi_h_factor

FIGURE3_PANELS = {"a": (100, 10.0), "b": (1000, 100.0), "c": (10000, 1000.0)}


def _header(cfg: ExperimentConfig) -> dict:
    return {"config": cfg.to_dict(), "config_hash": cfg.hash(), "seed": cfg.seed}


def _write_csv(path, cfg, columns, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        header = json.dumps(_jsonable(_header(cfg)), sort_keys=True, allow_nan=False)
        fh.write("# " + header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")
    print(f"wrote {path}")
    return path


def _csv_cell(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_json(path, cfg, result):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    doc = dict(_header(cfg), result=result)
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {path}")
    return path


def _out_path(cfg: ExperimentConfig, ext: str) -> str:
    return cfg.out or f"{cfg.task}_{cfg.seed}.{ext}"


def _epidemic(cfg: ExperimentConfig, n: int) -> EpidemicParams:
    beta = cfg.epidemic.get("beta")
    delta = cfg.epidemic.get("delta")
    if beta is None or delta is None:
        raise ConfigError("this task needs epidemic.beta and epidemic.delta")
    try:
        return EpidemicParams(*(np.broadcast_to(np.asarray(v, dtype=float), (n,))
                                for v in (beta, delta)))
    except ValueError as exc:
        raise ConfigError(f"epidemic.beta and epidemic.delta need one or {n} positive "
                          f"values each: {exc}") from exc


def _grid(spec, name="beta grid") -> np.ndarray:
    """The grid of a number, a list of numbers, a 'lo:hi:count' string or
    any other string, read as one or more comma-separated numbers."""
    try:
        values = spec.split(",") if isinstance(spec, str) and ":" not in spec else spec
        if isinstance(values, (list, tuple, int, float)):
            return np.atleast_1d(np.asarray(values, dtype=float))
        lo, hi, count = str(spec).split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be lo:hi:count or numbers, got {spec!r}") from exc


def _positive(cfg: ExperimentConfig, key: str, default, cast=int, section="params"):
    """Parameter ``key`` of ``cfg.<section>``: a positive int or finite float."""
    value = getattr(cfg, section).get(key, default)
    try:
        if 0 < cast(value) < math.inf:
            return cast(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a positive {cast.__name__}, got {value!r}")


def _choice(cfg: ExperimentConfig, key: str, default, choices):
    """Task parameter ``key``, lower-cased: one of ``choices``."""
    value = str(cfg.params.get(key, default)).lower()
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _protocol(cfg: ExperimentConfig):
    """DT graph, delta, beta grid, paths and steps of the re-infection protocol."""
    graph = build_graph(cfg)
    if graph.time != DT:
        raise ConfigError(f"{cfg.task} needs a discrete-time graph, got {graph.time.upper()}")
    grid = _grid(cfg.params.get("beta_grid", "5e-4:10e-4:12"))
    if not ((grid >= 0) & (grid <= 1)).all():
        raise ConfigError(f"beta grid must lie in [0, 1], got {grid.tolist()}")
    delta = _positive(cfg, "delta", 0.05, float, "epidemic")
    if delta > 1:
        raise ConfigError(f"the protocol's recovery probability exceeds 1: delta {delta!r}")
    return graph, delta, grid, _positive(cfg, "paths", 100), _positive(cfg, "steps", 1000)


def _protocol_fields(report) -> dict:
    """The re-infection protocol's results, as the JSON of empirical and figure456 holds them."""
    return {"beta_grid": report.beta_grid, "y_star": report.y_star, "z_star": report.z_star,
            "z_stderr": report.z_stderr, "beta_star": report.beta_star,
            "beta_bracket": report.beta_bracket, "paths": report.paths, "steps": report.horizon}


# ---------------------------------------------------------------------------
# Task handlers
# ---------------------------------------------------------------------------

def _search_hi(mean, delta: float) -> float:
    """Upper end of a beta search: 2 delta / eta(Abar), or 1 when eta(Abar) = 0,
    capped at 1 on DT graphs, where beta is an infection probability."""
    eta = mean.eta_abar()
    hi = 2.0 * delta / eta if eta > 0 else 1.0
    return min(1.0, hi) if mean.time == DT else hi


def _run_threshold(cfg: ExperimentConfig):
    graph = build_graph(cfg)
    mean = mean_matrix(graph)
    cert = _choice(cfg, "certificate", "t4" if graph.time == DT else "t2", CERTIFICATES)
    delta = _positive(cfg, "delta", None, float, "epidemic")
    result = {"certificate": cert, "delta": delta, "n": graph.n,
              "eta_abar": mean.eta_abar(), "eta_support": mean.eta_support()}

    try:  # the certificate, the search bounds and the DT rates are read from the config
        if "beta" not in cfg.epidemic:
            lo = _positive(cfg, "search_lo", 1e-8, float)
            hi = _positive(cfg, "search_hi", _search_hi(mean, delta), float)
            if graph.time == DT and hi > 1:
                raise ConfigError(f"search_hi of a discrete-time graph is an infection "
                                  f"probability and must be at most 1, got {hi!r}")
            beta_hat = threshold_in_beta(mean, delta, cert, (lo, hi))
            result["beta_threshold"] = beta_hat
            result["search_bounds"] = [lo, hi]
        elif np.isscalar(cfg.epidemic["beta"]):
            beta_hat = _positive(cfg, "beta", None, float, "epidemic")
        else:
            raise ConfigError("threshold takes one scalar epidemic.beta, not a per-node list")
        result["report"] = certify(mean, cert, beta_hat, delta).to_dict()
    except (BracketError, ParamRange, WrongKind) as exc:
        raise ConfigError(str(exc)) from exc
    return [_write_json(_out_path(cfg, "json"), cfg, result)]


def _run_simulate(cfg: ExperimentConfig):
    graph = build_graph(cfg)
    params = _epidemic(cfg, graph.n)
    paths = _positive(cfg, "paths", 1)
    reinfect = bool(cfg.params.get("reinfect", False))
    init = cfg.params.get("init", "all")
    try:
        _init_mask(init, graph.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"init: {exc}") from exc
    horizon, steps = _positive(cfg, "horizon", 100.0, float), _positive(cfg, "steps", 1000)
    rows = []
    for pid in range(paths):
        stream = rngmod.generator(cfg.seed, rngmod.TAG_PATH, pid)
        if graph.time == CT:
            trace = simulate_ct_exact(graph, params, horizon, init_infected=init, seed=stream)
        else:
            trace = simulate_dt_exact(graph, params, steps, init_infected=init,
                                      reinfect=reinfect, seed=stream)
        rows.extend((pid, t, c) for t, c in zip(trace.times, trace.infected_counts))
    return [_write_csv(_out_path(cfg, "csv"), cfg, ["path_id", "t_or_k", "infected_count"], rows)]


def _run_empirical(cfg: ExperimentConfig):
    graph, delta, grid, paths, steps = _protocol(cfg)
    report = empirical_threshold(graph, delta, grid, paths, steps, seed=cfg.seed,
                                 threads=cfg.resolve_threads())
    rows = list(zip(report.beta_grid, report.y_star, report.z_star))
    path = _write_csv(_out_path(cfg, "csv"), cfg, ["beta", "y_star", "z_star"], rows)
    return [path, _write_json(os.path.splitext(path)[0] + ".json", cfg, _protocol_fields(report))]


def _run_oracle(cfg: ExperimentConfig):
    graph = build_graph(cfg)
    params = _epidemic(cfg, graph.n)
    stable, eta = exponential_condition(graph, params)
    rows = [[0, eta, "stable" if stable else "unstable"]]
    columns = ["instance_id", "eta", "verdict"]
    result = {"eta": eta, "stable": stable}
    if cfg.params.get("expect"):
        which = _choice(cfg, "expect", None, ("m1", "m2", "m3", "m4")).upper()
        mode = _choice(cfg, "mode", "exhaustive", ("exhaustive", "montecarlo"))
        sampler = RandomMatrixSampler.from_mean(which, mean_matrix(graph), params)
        est = expected_certificate(sampler, mode, draws=_positive(cfg, "draws", 10000),
                                   seed=cfg.seed)
        result["expectation"] = {"statistic": est.statistic, "value": est.value,
                                 "stderr": est.stderr, "mode": est.mode, "count": est.count}
        rows[0].extend([est.statistic, est.value, est.stderr])
        columns.extend(["statistic", "value", "stderr"])
    path = _write_csv(_out_path(cfg, "csv"), cfg, columns, rows)
    side = _write_json(os.path.splitext(path)[0] + ".json", cfg, result)
    return [path, side]


def _run_chung(cfg: ExperimentConfig):
    graph = build_graph(cfg)
    params = _epidemic(cfg, graph.n)
    family = _choice(cfg, "family", "m2", ("m2", "m3", "m4")).upper()
    draws = _positive(cfg, "draws", 10_000)
    sampler = RandomMatrixSampler.from_mean(family, mean_matrix(graph), params)
    if "s_grid" in cfg.params:
        s_grid = _grid(cfg.params["s_grid"], "s_grid")
    else:
        s_max = _positive(cfg, "s_max", 4.0 * np.sqrt(sampler.variance_proxy())
                          + 2.0 * sampler.bound_c(), float)
        s_grid = np.linspace(0.0, s_max, _positive(cfg, "s_count", 20))
    check = chung_tail_check(sampler, s_grid, draws=draws, seed=cfg.seed)
    rows = list(zip(check.s, check.empirical, check.bound))
    return [_write_csv(_out_path(cfg, "csv"), cfg, ["s", "empirical", "bound"], rows)]


def _run_spectra(cfg: ExperimentConfig):
    graph = build_graph(cfg)
    mean = mean_matrix(graph)
    result = {"n": graph.n, "kind": graph.kind, "time": graph.time,
              "eta_abar": mean.eta_abar(), "eta_support": mean.eta_support()}
    if cfg.epidemic:
        params = _epidemic(cfg, graph.n)
        result["eta_BAbar_minus_D"] = _mix(mean, params, support=False)
        result["mu_BAbar_minus_D"] = _mix(mean, params, support=False, measure=True)
        if graph.time == DT:
            result["lambda4"] = _mix(mean, params, support=False, plus_identity=True)
    return [_write_json(_out_path(cfg, "json"), cfg, result)]


def _run_figure3(cfg: ExperimentConfig):
    panel = _choice(cfg, "panel", "a", FIGURE3_PANELS)
    n, eta_sgn = FIGURE3_PANELS[panel]
    dob_count = _positive(cfg, "ratio_count", 20)
    d3_count = _positive(cfg, "delta3_count", 20)
    dobs = np.linspace(eta_sgn / dob_count, eta_sgn, dob_count)
    d3max = eta_sgn / 4.0
    d3s = np.linspace(0.0, d3max, d3_count)
    rows = []
    for dob in dobs:
        for d3 in d3s:
            xi, _ = xi_h_factor(n, eta_sgn, float(dob), float(d3))
            rows.append((dob, d3, d3 / d3max, xi))
    out = cfg.out or f"figure3_{panel}_{cfg.seed}.csv"
    return [_write_csv(out, cfg, ["delta_over_beta", "Delta3", "Delta3_rel", "xi_H"], rows)]


def _run_figure456(cfg: ExperimentConfig):
    graph, delta, grid, paths, steps = _protocol(cfg)
    if not (grid > 0).all():  # fig4 certifies T4 at every grid beta
        raise ConfigError(f"figure456 beta grid must be positive, got {grid.tolist()}")
    mean = mean_matrix(graph)
    outdir = cfg.out or f"figure456_{cfg.seed}"

    eta = mean.eta_abar()
    static_thr = delta / eta if eta > 0 else math.inf
    t4_thr = threshold_in_beta(mean, delta, "t4", (1e-8, _search_hi(mean, delta)))

    fig4 = fig4_csv(os.path.join(outdir, "fig4.csv"), cfg, mean, delta, grid, t4_thr)
    report = empirical_threshold(graph, delta, grid, paths, steps, seed=cfg.seed,
                                 threads=cfg.resolve_threads())
    summary = dict(_protocol_fields(report), n=graph.n, edges=graph.m,
                   dead_pairs=len(graph.metadata.get("dead_pairs", ())), eta_abar=eta,
                   threshold_t4=t4_thr, threshold_static=static_thr,
                   ordered=report.beta_star is not None and t4_thr < report.beta_star < static_thr)
    return [fig4, fig5_csv(os.path.join(outdir, "fig5.csv"), cfg, report, t4_thr, static_thr),
            _write_json(os.path.join(outdir, "fig5.json"), cfg, summary),
            fig6_csv(os.path.join(outdir, "fig6.csv"), cfg, graph, delta, steps)]


# ---------------------------------------------------------------------------
# Plot-data emitters (CSV per figure panel)
# ---------------------------------------------------------------------------

def fig4_csv(path, cfg, mean, delta, beta_grid, t4_threshold):
    """Columns (beta, gamma_D); a marker row carries the certified threshold.

    An empty beta grid produces a header-only file.
    """
    rows = []
    for beta in beta_grid:
        rep = certify(mean, "t4", float(beta), delta)
        gamma = rep.intermediates.get("gamma_D", float("nan"))
        rows.append((float(beta), gamma if rep.stable else float("nan")))
    if rows:
        rows.append(("threshold", t4_threshold))
    return _write_csv(path, cfg, ["beta", "gamma_D"], rows)


def fig5_csv(path, cfg, report, t4_threshold, static_threshold):
    """Columns (beta, z_star) plus the two threshold constants; header-only
    when the report is empty."""
    rows = list(zip(report.beta_grid, report.z_star))
    if rows:
        rows.append(("threshold_t4", t4_threshold))
        rows.append(("threshold_static", static_threshold))
    return _write_csv(path, cfg, ["beta", "z_star"], rows)


def fig6_csv(path, cfg, graph, delta, steps, betas=(6.0e-4, 7.5e-4, 9.0e-4), paths=3):
    """Sample paths of the infected count for three infection rates; path
    ``pid`` of panel ``panel`` draws from the stream (seed, TAG_PATH, panel, pid)."""
    rows = []
    for panel, beta in enumerate(betas):
        for pid in range(paths):
            trace = simulate_dt_exact(graph, (np.full(graph.n, beta), np.full(graph.n, delta)),
                                      steps, reinfect=True,
                                      seed=rngmod.generator(cfg.seed, rngmod.TAG_PATH, panel, pid))
            rows.extend((beta, pid, int(k), int(c))
                        for k, c in zip(trace.times, trace.infected_counts))
    return _write_csv(path, cfg, ["beta", "path_id", "k", "infected_count"], rows)


_HANDLERS = {
    "threshold": _run_threshold,
    "simulate": _run_simulate,
    "empirical": _run_empirical,
    "oracle": _run_oracle,
    "chung": _run_chung,
    "spectra": _run_spectra,
    "figure3": _run_figure3,
    "figure456": _run_figure456,
}


def run(cfg: ExperimentConfig):
    """Dispatch a validated config; returns the list of written files."""
    return _HANDLERS[cfg.task](cfg)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempest", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _HANDLERS:
        p = sub.add_parser(task)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--preset", choices=["iv", "small_world", "complete_edge_markovian"])
        p.add_argument("--graph-file", dest="graph_file")
        p.add_argument("--graph-param", dest="graph_params", action="append", default=[],
                       metavar="KEY=VALUE", help="preset parameter, repeatable")
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--param", dest="task_params", action="append", default=[],
                       metavar="KEY=VALUE", help="task parameter, repeatable")
        if task == "threshold":
            p.add_argument("--certificate", choices=list(CERTIFICATES))
        if task == "figure3":
            p.add_argument("--panel", choices=["a", "b", "c"])
        if task == "chung":
            p.add_argument("--family", choices=["m2", "m3", "m4"])
        if task in ("empirical", "figure456", "simulate"):
            p.add_argument("--paths", type=int, default=None)
            p.add_argument("--steps", type=int, default=None)
            p.add_argument("--beta-grid", dest="beta_grid", default=None,
                           help="lo:hi:count, or one or more comma-separated numbers")
    return parser


def _parse_kv(pairs):
    out = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not _:
            raise ConfigError(f"expected KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _assemble_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        doc = load_json(args.config)
    doc["task"] = args.task
    doc.setdefault("seed", 0)
    for key in ("seed", "threads", "out"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    graph = doc.setdefault("graph", {})
    if args.preset:
        graph["preset"] = args.preset
    if args.graph_file:
        graph["file"] = args.graph_file
    if args.graph_params:
        graph.setdefault("params", {}).update(_parse_kv(args.graph_params))
    if not graph:
        doc.pop("graph")
    epidemic = doc.setdefault("epidemic", {})
    for key in ("beta", "delta"):
        if getattr(args, key) is not None:
            epidemic[key] = getattr(args, key)
    if not epidemic:
        doc.pop("epidemic")
    params = doc.setdefault("params", {})
    params.update(_parse_kv(args.task_params))
    for key in ("certificate", "panel", "family", "paths", "steps", "beta_grid"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if not params:
        doc.pop("params")
    return ExperimentConfig.from_dict(doc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _assemble_config(args)
        run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RESOURCE_ERRORS as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except TempestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
