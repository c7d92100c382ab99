"""certify: the time to a certified threshold on networks at the paper's scale.

Only the certificate layers run: graph construction, the mean matrix and
its spectral abscissa, and the bisection in beta.  One round builds three
graphs and searches the thresholds of the certificates that apply to each:

* the Section IV instance (DT AMEI, n=500, ER probability 0.2): T4 and the
  static DT condition, delta = 0.05;
* a CT small-world AMAI graph (n=80): T1, delta = 1;
* a CT complete edge-Markovian AMEI graph (n=120): T2 and T3, delta = 1.
"""

from __future__ import annotations

import numpy as np

import reference
from tempest import (graph_complete_edge_markovian, graph_er_iv, graph_small_world,
                     graph_to_json, mean_matrix, threshold_in_beta)

IV_N, IV_ER_PROB, IV_DELTA = 500, 0.2, 0.05
SW_N = 80
COMPLETE_N = 120
CT_DELTA = 1.0
# Section IV of the paper: certified (T4) and static thresholds.
PAPER_CERTIFIED, CERTIFIED_BAND = 6.3e-4, 0.15
PAPER_STATIC, STATIC_BAND = 9.95e-4, 0.10
SEARCH_TOL = 1e-7           # threshold_in_beta's default bisection tolerance


def setup(seed: int, tr) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        "seed": seed,
        "sw_r": float(rng.uniform(0.2, 0.4)),
        "complete_q": float(rng.uniform(0.5, 1.5)),
        "complete_r": float(rng.uniform(0.5, 1.5)),
    }


def _search(tr, mean, delta, certificate, eta):
    with tr.span(f"thresholds.search_{certificate}"):
        return threshold_in_beta(mean, delta, certificate, (1e-6 * delta / eta, 2 * delta / eta))


def _certify(tr, build, delta, certificates):
    with tr.span("graphs.build"):
        graph = build()
    with tr.span("graphs.mean_matrix", count=graph.m):
        mean = mean_matrix(graph)
    with tr.span("spectral.eta"):
        eta = mean.eta_abar()
    out = {"graph": graph, "a_bar": mean.a_bar, "eta": eta}
    for cert in certificates:
        out[cert] = _search(tr, mean, delta, cert, eta)
    return out


def run_round(inp: dict, tr) -> dict:
    return {
        "iv": _certify(tr, lambda: graph_er_iv(IV_N, IV_ER_PROB, inp["seed"]), IV_DELTA,
                       ("t4", "static_dt")),
        "small_world": _certify(tr, lambda: graph_small_world(SW_N, inp["sw_r"]), CT_DELTA,
                                ("t1",)),
        "complete": _certify(tr, lambda: graph_complete_edge_markovian(
            COMPLETE_N, inp["complete_q"], inp["complete_r"]), CT_DELTA, ("t2", "t3")),
    }


def fingerprint(out: dict) -> dict:
    return {f"{name}.{key}": value for name, res in out.items()
            for key, value in res.items() if isinstance(value, float)}


def check(inp: dict, out: dict) -> list:
    bad = []

    def expect(ok, what):
        if not ok:
            bad.append(what)

    own_mean = {name: reference.own_mean(graph_to_json(res["graph"]))
                for name, res in out.items()}
    for name, res in out.items():
        err = float(np.abs(res["a_bar"] - own_mean[name]).max())
        expect(err <= 1e-12, f"{name}: a_bar differs from q/(q+r) by {err:.3e}")
    p = inp["complete_q"] / (inp["complete_q"] + inp["complete_r"])
    own_eta = {
        "iv": float(np.linalg.eigvalsh(own_mean["iv"])[-1]),
        "small_world": 1.0 + inp["sw_r"] * (SW_N - 2),
        "complete": p * (COMPLETE_N - 1),
    }
    for name, eta in own_eta.items():
        rel = abs(out[name]["eta"] - eta) / eta
        expect(rel <= 1e-9, f"{name}: eta_abar {out[name]['eta']!r} vs {eta!r} (rel {rel:.2e})")

    iv = out["iv"]
    static = IV_DELTA / own_eta["iv"]
    expect(iv["t4"] < static, f"iv: T4 threshold {iv['t4']:.6e} not below delta/eta {static:.6e}")
    expect(static - SEARCH_TOL <= iv["static_dt"] <= static,
           f"iv: static DT threshold {iv['static_dt']:.6e} is not delta/eta {static:.6e}")
    expect(abs(iv["t4"] / PAPER_CERTIFIED - 1) <= CERTIFIED_BAND,
           f"iv: T4 threshold {iv['t4']:.4e} outside {PAPER_CERTIFIED} +- {CERTIFIED_BAND:.0%}")
    expect(abs(iv["static_dt"] / PAPER_STATIC - 1) <= STATIC_BAND,
           f"iv: static threshold {iv['static_dt']:.4e} outside "
           f"{PAPER_STATIC} +- {STATIC_BAND:.0%}")
    for name, res in out.items():
        for cert in ("t1", "t2", "t3", "t4", "static_dt"):
            if cert in res:
                expect(np.isfinite(res[cert]) and res[cert] > 0,
                       f"{name}: {cert} threshold {res[cert]!r} is not a positive number")
    return bad
