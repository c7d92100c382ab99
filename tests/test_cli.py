import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import tempest
from tempest import graph_from_json
from tempest.cli import fig5_csv, main
from tempest.config import ExperimentConfig, build_graph, config_hash
from tempest.errors import ConfigError
from tempest.simulate import EmpiricalThresholdReport


# The directory this process imported tempest from, absolute, so that a child
# started in a temporary directory runs the same code: a relative PYTHONPATH
# such as "src" would otherwise resolve against the child's cwd.
PACKAGE_ROOT = str(Path(tempest.__file__).resolve().parents[1])


def cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "tempest.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def read_header(path):
    with open(path) as fh:
        return json.loads(fh.readline().lstrip("# "))


class TestConfig:
    def test_schema_rejects_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "nope", "seed": 1})

    def test_schema_rejects_extra_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "spectra", "seed": 1, "bogus": 2})

    def test_hash_is_canonical(self):
        a = {"task": "spectra", "seed": 3, "graph": {"preset": "iv"}}
        b = {"graph": {"preset": "iv"}, "seed": 3, "task": "spectra"}
        assert config_hash(a) == config_hash(b)

    def test_threads_env_fallback(self, monkeypatch):
        cfg = ExperimentConfig.from_dict({"task": "spectra", "seed": 0})
        monkeypatch.setenv("TEMPEST_THREADS", "6")
        assert cfg.resolve_threads() == 6
        monkeypatch.delenv("TEMPEST_THREADS")
        assert cfg.resolve_threads() == 1
        # an explicit value always beats the environment
        explicit = ExperimentConfig.from_dict({"task": "spectra", "seed": 0, "threads": 1})
        monkeypatch.setenv("TEMPEST_THREADS", "6")
        assert explicit.resolve_threads() == 1

    def test_build_graph_from_inline_spec(self):
        doc = {"task": "spectra", "seed": 0, "graph": {"spec": {
            "n": 2, "kind": "amei",
            "edges": [{"i": 0, "j": 1,
                       "model": {"type": "markov2", "params": {"q": 1.0, "r": 1.0},
                                 "time": "ct"}}]}}}
        g = build_graph(ExperimentConfig.from_dict(doc))
        assert g.n == 2 and g.m == 1


class TestCliRuns:
    def test_threshold_report_embeds_hash(self, tmp_path):
        r = cli("threshold", "--preset", "complete_edge_markovian",
                "--graph-param", "n=8", "--graph-param", "q=0.5", "--graph-param", "r=0.5",
                "--graph-param", 'time="dt"', "--certificate", "t4",
                "--delta", "0.5", "--seed", "7", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.load(open(tmp_path / "threshold_7.json"))
        assert doc["seed"] == 7
        assert doc["config_hash"] == config_hash(doc["config"])
        assert doc["result"]["beta_threshold"] > 0

    def test_single_arc_oracle_matches_two_mode_analysis(self, tmp_path):
        spec = {"n": 2, "kind": "amai",
                "edges": [{"i": 0, "j": 1,
                           "model": {"type": "markov2", "params": {"q": 1.0, "r": 1.0},
                                     "time": "ct"}}]}
        cfgfile = tmp_path / "g.json"
        cfgfile.write_text(json.dumps({"task": "oracle", "seed": 1,
                                       "graph": {"spec": spec},
                                       "epidemic": {"beta": 1.0, "delta": 1.0}}))
        r = cli("oracle", "--config", str(cfgfile), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = open(tmp_path / "oracle_1.csv").read().splitlines()
        header = read_header(tmp_path / "oracle_1.csv")
        assert header["config_hash"] == config_hash(header["config"])
        _, eta, verdict = rows[2].split(",")[:3]
        # two-mode system: Pi (x) I_2 + blockdiag(-D, BF - D), dense 4x4
        pi = np.array([[-1.0, 1.0], [1.0, -1.0]])
        big = np.kron(pi, np.eye(2))
        big[0:2, 0:2] += -np.eye(2)
        big[2:4, 2:4] += np.array([[-1.0, 1.0], [0.0, -1.0]])
        expected = float(np.linalg.eigvals(big).real.max())
        assert float(eta) == pytest.approx(expected, abs=1e-9)
        assert verdict == ("stable" if expected < 0 else "unstable")

    def test_coxian_edge_oracle_matches_dense_reference(self, tmp_path):
        cox = {"type": "coxian", "time": "ct",
               "params": {"up_rates": [1.0], "exit_rates": [0.5, 2.0],
                          "down_rates": [0.7], "return_rates": [1.0, 0.5]}}
        markov = {"type": "markov2", "params": {"q": 1.0, "r": 0.5}, "time": "ct"}
        spec = {"n": 3, "kind": "amei", "edges": [{"i": 0, "j": 1, "model": cox},
                                                  {"i": 1, "j": 2, "model": markov}]}
        cfgfile = tmp_path / "g.json"
        cfgfile.write_text(json.dumps({"task": "oracle", "seed": 1,
                                       "graph": {"spec": spec},
                                       "epidemic": {"beta": 0.9, "delta": 1.0}}))
        r = cli("oracle", "--config", str(cfgfile), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        _, eta, verdict = open(tmp_path / "oracle_1.csv").read().splitlines()[2].split(",")[:3]
        dense = helpers.reference_exact_generator(graph_from_json(spec), np.full(3, 0.9),
                                                  np.full(3, 1.0))
        expected = helpers.block_eta(dense)
        assert float(eta) == pytest.approx(expected, abs=1e-9)
        assert verdict == ("stable" if expected < 0 else "unstable")

    def test_dt_graph_oracle_is_an_error(self, tmp_path):
        r = cli("oracle", "--preset", "complete_edge_markovian", "--graph-param", "n=3",
                "--graph-param", "q=0.5", "--graph-param", "r=0.5",
                "--graph-param", 'time="dt"', "--beta", "0.1", "--delta", "0.5",
                "--seed", "0", cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr, r.stderr
        assert not list(tmp_path.iterdir())

    def test_resource_cap_exit_code(self, tmp_path):
        r = cli("oracle", "--preset", "complete_edge_markovian",
                "--graph-param", "n=8", "--graph-param", "q=1.0", "--graph-param", "r=1.0",
                "--beta", "0.1", "--delta", "1.0", "--seed", "0", cwd=tmp_path)
        assert r.returncode == 3, r.stderr  # 28 switching edges exceed the edge cap of 20
        assert "resource cap exceeded:" in r.stderr

    def test_config_error_exit_code(self, tmp_path):
        r = cli("threshold", "--seed", "1", cwd=tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("config error:"), r.stderr

    # outside input that cannot be read or is out of range ends in a config
    # error, not a traceback, and no output file is written
    CT4 = ["--preset", "complete_edge_markovian", "--graph-param", "n=4",
           "--graph-param", "q=0.5", "--graph-param", "r=0.5"]
    IV30 = ["--preset", "iv", "--graph-param", "n=30"]

    @pytest.mark.parametrize("args, threads_env", [
        (["empirical", "--config", "missing.json"], None),
        (["empirical", "--config", "bad.json"], None),
        (["empirical", "--graph-file", "bad.json"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10"], "two"),
        (["empirical", "--config", "list.json"], None),
        (["empirical", "--graph-file", "list.json"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--beta-grid", "1:2"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--beta-grid", "a,b"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--paths", "0"], None),
        (["simulate", *CT4, "--beta", "0.1", "--delta", "1", "--param", "horizon=-1"], None),
        (["simulate", *CT4, "--graph-param", 'time="dt"', "--beta", "0.1", "--delta", "0.5",
          "--steps", "-3"], None),
        (["spectra", "--preset", "complete_edge_markovian", "--graph-param", "n=5",
          "--graph-param", "q=0.5"], None),
        (["simulate", *CT4, "--config", "short_beta.json"], None),
        (["empirical", *CT4], None),
        (["threshold", *CT4, "--delta", "1", "--param", "search_lo=abc"], None),
        (["threshold", *CT4, "--delta", "1", "--param", "search_hi=abc"], None),
        (["threshold", *CT4, "--delta", "1", "--beta", "0"], None),
        (["threshold", "--preset", "iv", "--graph-param", "n=3", "--delta", "0.1",
          "--param", "search_hi=1.5"], None),
        (["threshold", *IV30, "--delta", "0.05", "--param", "search_lo=0.5",
          "--param", "search_hi=0.1"], None),
        (["threshold", *IV30, "--delta", "2"], None),
        (["threshold", *IV30, "--delta", "0.05", "--beta", "2"], None),
        (["threshold", *CT4, "--delta", "1", "--param", "search_lo=20"], None),
        (["threshold", *IV30, "--delta", "0.05", "--certificate", "t2"], None),
        (["threshold", "--preset", "small_world", "--graph-param", "n=6",
          "--graph-param", "r=0.3", "--delta", "1", "--certificate", "t3"], None),
        (["chung", *CT4, "--beta", "0.1", "--delta", "1", "--param", "s_max=abc"], None),
        (["chung", *CT4, "--beta", "0.1", "--delta", "1", "--param", 's_grid=["a"]'], None),
        (["chung", *CT4, "--beta", "0.1", "--delta", "1", "--param", "family=m1"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--config", "delta_list.json"],
         None),
        (["figure456", "--preset", "iv", "--graph-param", "n=10", "--config", "delta_list.json"],
         None),
        (["oracle", *CT4, "--beta", "0.1", "--delta", "1", "--param", "expect=m2",
          "--param", "mode=bogus"], None),
        (["oracle", *CT4, "--beta", "0.1", "--delta", "1", "--param", "expect=m9"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10",
          "--param", "beta_grid=[-0.1,0.1]"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10",
          "--param", "beta_grid=[0.1,2]"], None),
        (["figure456", "--preset", "iv", "--graph-param", "n=10",
          "--param", "beta_grid=[0.1,2]"], None),
        (["figure456", "--preset", "iv", "--graph-param", "n=10",
          "--param", "beta_grid=[0,0.01]"], None),
        (["simulate", *CT4, "--beta", "0.1", "--delta", "1", "--param", "init=[]"], None),
        (["simulate", *CT4, "--beta", "0.1", "--delta", "1", "--param", "init=[42]"], None),
        (["simulate", *CT4, "--beta", "0.1", "--delta", "1", "--param", "init=[-1]"], None),
        (["simulate", *CT4, "--beta", "0.1", "--delta", "1", "--param", 'init=["a"]'], None),
        (["spectra", "--graph-file", "twice.json"], None),
        (["spectra", "--graph-file", "static_string.json"], None),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--delta", "2"], None),
        (["figure456", "--preset", "iv", "--graph-param", "n=10", "--delta", "2"], None),
        (["threshold", *IV30, "--delta", "0.05", "--config", "beta_list.json"], None),
    ], ids=["missing config", "malformed config", "malformed graph file", "threads env",
            "non-object config", "non-object graph file", "beta grid without count",
            "beta grid not numbers", "zero paths", "negative horizon", "negative steps",
            "missing preset parameter", "beta vector length", "empirical on ct graph",
            "threshold search_lo", "threshold search_hi", "threshold beta zero",
            "threshold dt search_hi above one", "threshold search_lo above search_hi",
            "threshold dt delta above one", "threshold dt beta above one",
            "threshold search_lo above the default search_hi",
            "threshold ct certificate on dt graph", "threshold amei certificate on amai graph",
            "chung s_max", "chung s_grid", "chung family m1", "empirical delta list",
            "figure456 delta list", "oracle mode", "oracle expect m9",
            "empirical negative beta", "empirical beta above one", "figure456 beta above one",
            "figure456 zero beta",
            "simulate init empty", "simulate init out of range", "simulate init negative",
            "simulate init not an id", "graph file repeated edge",
            "graph file static on string", "empirical delta above one",
            "figure456 delta above one", "threshold beta list"])
    def test_bad_outside_input_is_config_error(self, tmp_path, monkeypatch, capsys,
                                               args, threads_env):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text('{"task": ')
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "short_beta.json").write_text(
            json.dumps({"epidemic": {"beta": [0.1, 0.2], "delta": 1.0}}))
        (tmp_path / "delta_list.json").write_text(json.dumps({"epidemic": {"delta": [0.1, 0.2]}}))
        (tmp_path / "beta_list.json").write_text(
            json.dumps({"epidemic": {"beta": [1e-4 * (k + 1) for k in range(30)]}}))
        markov2 = {"type": "markov2", "params": {"q": 0.5, "r": 0.5}}
        (tmp_path / "twice.json").write_text(json.dumps({"n": 2, "kind": "amei", "edges": [
            {"i": 0, "j": 1, "model": markov2},
            {"i": 0, "j": 1, "model": dict(markov2, params={"q": 0.9, "r": 0.5})}]}))
        (tmp_path / "static_string.json").write_text(json.dumps({"n": 2, "kind": "amei", "edges": [
            {"i": 0, "j": 1, "model": {"type": "static", "params": {"on": "false"}}}]}))
        inputs = set(tmp_path.iterdir())
        if threads_env is None:
            monkeypatch.delenv("TEMPEST_THREADS", raising=False)
        else:
            monkeypatch.setenv("TEMPEST_THREADS", threads_env)
        assert main([*args, "--seed", "0"]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert set(tmp_path.iterdir()) == inputs

    def test_non_finite_values_are_strict_json(self, tmp_path, monkeypatch):
        # E[log eta(M4)] is -inf here: the CSV header and the JSON file both
        # hold the string "-inf", never the non-JSON token -Infinity
        monkeypatch.chdir(tmp_path)
        assert main(["oracle", "--preset", "complete_edge_markovian", "--graph-param", "n=3",
                     "--graph-param", "q=1", "--graph-param", "r=1", "--beta", "0.3",
                     "--delta", "1", "--param", "expect=m4", "--seed", "0"]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads((tmp_path / "oracle_0.json").read_text(), parse_constant=refuse)
        assert doc["result"]["expectation"]["value"] == "-inf"
        header = (tmp_path / "oracle_0.csv").read_text().splitlines()[0]
        json.loads(header.lstrip("# "), parse_constant=refuse)

    @pytest.mark.parametrize("task", ["threshold", "figure456"])
    def test_periodic_dt_graph_is_refused(self, tmp_path, monkeypatch, capsys, task):
        # q = r = 1 in DT: every edge chain is periodic, which T4 cannot certify
        monkeypatch.chdir(tmp_path)
        assert main([task, "--preset", "complete_edge_markovian", "--graph-param", "n=6",
                     "--graph-param", "q=1.0", "--graph-param", "r=1.0",
                     "--graph-param", 'time="dt"', "--delta", "0.5", "--seed", "0"]) == 1
        assert "edge (0,1) chain is periodic" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_certificate_is_config_error(self, tmp_path):
        r = cli("threshold", "--preset", "complete_edge_markovian",
                "--graph-param", "n=4", "--graph-param", "q=1.0", "--graph-param", "r=1.0",
                "--param", "certificate=t9", "--delta", "1.0", "--seed", "0", cwd=tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("config error:") and "'t9'" in r.stderr, r.stderr

    # complete graph on 6 nodes: eta(Abar) = 5 q/(q+r), i.e. 5/3 (CT) and 5/2 (DT)
    @pytest.mark.parametrize("time, q, r, eta, beta, delta, lhs, threshold", [
        ("ct", 1.0, 2.0, 5 / 3, 0.3, 1.0, 0.3 * 5 / 3 - 1.0, 0.0),        # eta(B Abar - D) < 0
        ("dt", 0.5, 0.5, 5 / 2, 0.1, 0.5, 0.1 * 5 / 2 + 1.0 - 0.5, 1.0),  # eta(B Abar + I - D) < 1
    ])
    def test_static_certificate_reports(self, tmp_path, monkeypatch,
                                        time, q, r, eta, beta, delta, lhs, threshold):
        monkeypatch.chdir(tmp_path)
        cert = f"static_{time}"
        common = ["threshold", "--preset", "complete_edge_markovian", "--graph-param", "n=6",
                  "--graph-param", f"q={q}", "--graph-param", f"r={r}",
                  "--graph-param", f'time="{time}"', "--certificate", cert,
                  "--delta", str(delta), "--seed", "0"]
        assert main(common + ["--beta", str(beta), "--out", "fixed.json"]) == 0
        result = json.load(open("fixed.json"))["result"]
        assert result["certificate"] == cert
        report = result["report"]
        assert report["certificate"] == cert.upper()
        assert report["lhs"] == pytest.approx(lhs, abs=1e-12)
        assert report["threshold"] == threshold and report["stable"] is True
        # the search finds the exact static threshold delta / eta(Abar)
        assert main(common + ["--out", "search.json"]) == 0
        result = json.load(open("search.json"))["result"]
        assert result["beta_threshold"] == pytest.approx(delta / eta, abs=2e-7)
        assert result["report"]["certificate"] == cert.upper()

    def test_figure3_monotone_columns(self, tmp_path):
        r = cli("figure3", "--panel", "a", "--seed", "0",
                "--param", "ratio_count=5", "--param", "delta3_count=6", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = [line.split(",") for line in
                open(tmp_path / "figure3_a_0.csv").read().splitlines()[2:]]
        by_ratio = {}
        for dob, d3, rel, xi in rows:
            by_ratio.setdefault(float(dob), []).append((float(d3), float(xi)))
        for vals in by_ratio.values():
            xis = [x for _, x in sorted(vals)]
            assert all(b <= a + 1e-9 for a, b in zip(xis, xis[1:]))

    def test_simulate_trace_csv(self, tmp_path):
        r = cli("simulate", "--preset", "complete_edge_markovian",
                "--graph-param", "n=5", "--graph-param", "q=0.8", "--graph-param", "r=0.8",
                "--beta", "0.2", "--delta", "1.0", "--seed", "2",
                "--param", "horizon=20.0", "--paths", "2", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = open(tmp_path / "simulate_2.csv").read().splitlines()
        assert lines[1] == "path_id,t_or_k,infected_count"
        assert len(lines) > 4
        # path p is the run on the tagged stream (seed, TAG_PATH, p)
        graph = tempest.graph_complete_edge_markovian(5, 0.8, 0.8)
        rows = [line.split(",") for line in lines[2:]]
        for pid in range(2):
            trace = tempest.simulate_ct_exact(
                graph, (0.2, 1.0), 20.0, seed=tempest.rng.generator(2, tempest.rng.TAG_PATH, pid))
            assert [(float(t), int(c)) for p, t, c in rows if int(p) == pid] == \
                list(zip(trace.times.tolist(), trace.infected_counts.tolist()))

    def test_empirical_determinism_across_threads(self, tmp_path):
        common = ["empirical", "--preset", "iv",
                  "--graph-param", "n=25", "--graph-param", "er_prob=0.4",
                  "--graph-param", "graph_seed=3",
                  "--delta", "0.3", "--seed", "4",
                  "--beta-grid", "0.005:0.05:3", "--paths", "4", "--steps", "40"]
        r1 = cli(*common, "--threads", "1", "--out", "a.csv", cwd=tmp_path)
        r2 = cli(*common, "--threads", "2", "--out", "b.csv", cwd=tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        rows_a = open(tmp_path / "a.csv").read().splitlines()[1:]
        rows_b = open(tmp_path / "b.csv").read().splitlines()[1:]
        assert rows_a == rows_b
        side_a = json.load(open(tmp_path / "a.json"))["result"]
        assert side_a == json.load(open(tmp_path / "b.json"))["result"]
        assert len(side_a["z_stderr"]) == 3
        bracket = side_a["beta_bracket"]
        assert bracket is None or (len(bracket) == 2 and bracket[0] == side_a["beta_star"])

    def test_experiment_preset_threshold_search(self, tmp_path):
        # default preset parameters: 500 nodes, edge probability 0.2,
        # graph seed = run seed; certified threshold lands near 6.3e-4
        r = cli("threshold", "--preset", "iv", "--certificate", "t4",
                "--delta", "0.05", "--seed", "1", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.load(open(tmp_path / "threshold_1.json"))
        beta_hat = doc["result"]["beta_threshold"]
        assert 0.85 * 6.32e-4 <= beta_hat <= 1.15 * 6.32e-4
        assert doc["result"]["report"]["certificate"] == "T4"
        assert doc["result"]["report"]["stable"] is True

    def test_dt_threshold_search_stops_at_one(self, tmp_path, monkeypatch):
        # 2 delta / eta(Abar) exceeds 1 on this 3-node graph; a DT beta is a
        # probability, so the search's upper end is 1
        monkeypatch.chdir(tmp_path)
        assert main(["threshold", "--preset", "iv", "--graph-param", "n=3",
                     "--delta", "0.1", "--seed", "0"]) == 0
        result = json.load(open("threshold_0.json"))["result"]
        mean = tempest.mean_matrix(tempest.graph_er_iv(3, 0.2, 0))
        assert 2 * 0.1 / mean.eta_abar() > 1
        assert result["search_bounds"] == [1e-8, 1.0]
        assert result["beta_threshold"] == tempest.threshold_in_beta(mean, 0.1, "t4",
                                                                     (1e-8, 1.0))
        assert result["report"]["stable"] is True

    def test_figure456_without_edges_searches_up_to_one(self, tmp_path, monkeypatch):
        # no edges: eta(Abar) = 0, every DT beta is certified, and the T4
        # search stops at 1 instead of 2 delta / eta = inf
        monkeypatch.chdir(tmp_path)
        assert tempest.graph_er_iv(5, 0.2, 0).m == 0
        assert main(["figure456", "--preset", "iv", "--graph-param", "n=5", "--delta", "0.05",
                     "--beta-grid", "0.01:0.02:2", "--paths", "2", "--steps", "10",
                     "--seed", "0", "--out", "figs"]) == 0
        fig5 = open(tmp_path / "figs" / "fig5.csv").read().splitlines()
        assert fig5[-2:] == ["threshold_t4,1.0", "threshold_static,inf"]

    def test_chung_subcommand_csv(self, tmp_path):
        r = cli("chung", "--preset", "complete_edge_markovian",
                "--graph-param", "n=6", "--graph-param", "q=1.0", "--graph-param", "r=1.0",
                "--beta", "0.5", "--delta", "1.0", "--family", "m2",
                "--param", "draws=2000", "--param", "s_count=5", "--seed", "3",
                cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = open(tmp_path / "chung_3.csv").read().splitlines()
        assert lines[1] == "s,empirical,bound"
        assert len(lines) == 7
        s, emp, bound = lines[2].split(",")
        assert float(s) == 0.0 and float(bound) == pytest.approx(6.0)  # kappa(0) = n

    def test_figure456_writes_three_panels(self, tmp_path):
        r = cli("figure456", "--preset", "iv",
                "--graph-param", "n=40", "--graph-param", "er_prob=0.3",
                "--graph-param", "graph_seed=2", "--delta", "0.05", "--seed", "5",
                "--beta-grid", "0.004:0.008:3", "--paths", "3", "--steps", "80",
                "--out", "figs", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        for name in ("fig4.csv", "fig5.csv", "fig6.csv"):
            lines = open(tmp_path / "figs" / name).read().splitlines()
            assert lines[0].startswith("# {") and len(lines) > 2
        fig5 = open(tmp_path / "figs" / "fig5.csv").read().splitlines()
        assert fig5[-2].startswith("threshold_t4,")
        assert fig5[-1].startswith("threshold_static,")
        # fig5.json holds the CSV's numbers and the instance they came from
        doc = json.load(open(tmp_path / "figs" / "fig5.json"))
        assert doc["config_hash"] == read_header(tmp_path / "figs" / "fig5.csv")["config_hash"]
        res = doc["result"]
        rows = [row.split(",") for row in fig5[2:]]
        assert [[float(b), float(z)] for b, z in rows[:-2]] == \
            [list(pair) for pair in zip(res["beta_grid"], res["z_star"])]
        assert float(rows[-2][1]) == res["threshold_t4"]
        assert float(rows[-1][1]) == res["threshold_static"]
        graph = tempest.graph_er_iv(40, 0.3, 2)
        assert (res["n"], res["edges"]) == (40, graph.m)
        assert res["dead_pairs"] == len(graph.metadata["dead_pairs"])
        assert (res["paths"], res["steps"]) == (3, 80)
        beta_star = res["beta_star"]
        assert res["ordered"] == (beta_star is not None
                                  and res["threshold_t4"] < beta_star < res["threshold_static"])

    def test_empirical_accepts_zero_beta(self, tmp_path, monkeypatch):
        # only figure456 certifies T4 at each grid beta and needs beta > 0
        monkeypatch.chdir(tmp_path)
        assert main(["empirical", "--preset", "iv", "--graph-param", "n=10",
                     "--param", "beta_grid=[0,0.01]", "--paths", "2", "--steps", "10",
                     "--seed", "0"]) == 0
        rows = open("empirical_0.csv").read().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.01]

    @pytest.mark.parametrize("args, column", [
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--paths", "2",
          "--steps", "10", "--beta-grid", "0.01,0.02"], [0.01, 0.02]),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--paths", "2",
          "--steps", "10", "--param", "beta_grid=0.01,0.02"], [0.01, 0.02]),
        (["chung", *CT4, "--beta", "0.1", "--delta", "1", "--param", "draws=200",
          "--param", "s_grid=0,0.5,1"], [0.0, 0.5, 1.0]),
        (["empirical", "--preset", "iv", "--graph-param", "n=10", "--paths", "2",
          "--steps", "10", "--beta-grid", "7e-4"], [7e-4]),
    ], ids=["beta grid flag", "beta grid param", "s_grid param", "one-number beta grid flag"])
    def test_comma_separated_grids(self, tmp_path, monkeypatch, args, column):
        # one grid parser reads a comma list, of one number or more, from a
        # flag, a --param or a config ('a,b' and '1:2' are config errors above)
        monkeypatch.chdir(tmp_path)
        assert main([*args, "--seed", "0"]) == 0
        rows = open(f"{args[0]}_0.csv").read().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == column

    @pytest.mark.parametrize("make", [helpers.random_amei_ct, helpers.random_amai_ct,
                                      helpers.random_amei_dt], ids=["ct amei", "ct amai", "dt"])
    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "heterogeneous"])
    def test_spectra_epidemic_block(self, tmp_path, monkeypatch, make, homogeneous):
        # the epidemic block reports the certificates' own values of B Abar - D
        # (+ I in DT), against dense eigensolves of the mean matrix
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(11)
        g = make(rng, 6)
        beta = [0.3] * 6 if homogeneous else rng.uniform(0.1, 0.9, 6).tolist()
        delta = [0.4] * 6 if homogeneous else rng.uniform(0.1, 0.9, 6).tolist()
        epidemic = {"beta": 0.3, "delta": 0.4} if homogeneous else {"beta": beta, "delta": delta}
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"task": "spectra", "seed": 0, "graph": {"spec": tempest.graph_to_json(g)},
             "epidemic": epidemic}))
        assert main(["spectra", "--config", "cfg.json"]) == 0
        res = json.load(open("spectra_0.json"))["result"]
        a_bar = tempest.mean_matrix(g).a_bar
        bad = np.asarray(beta)[:, None] * a_bar - np.diag(delta)
        assert res["eta_BAbar_minus_D"] == pytest.approx(
            helpers.static_ct_dense(a_bar, beta, delta)[1], abs=1e-9)
        assert res["mu_BAbar_minus_D"] == pytest.approx(helpers._mu_dense(bad), abs=1e-9)
        if g.time == "dt":
            assert res["lambda4"] == pytest.approx(
                helpers.static_dt_dense(a_bar, beta, delta)[1], abs=1e-9)
        else:
            assert "lambda4" not in res

    def test_main_entry_returns_zero(self, tmp_path):
        old = os.getcwd()
        os.chdir(tmp_path)
        try:
            rc = main(["spectra", "--preset", "complete_edge_markovian",
                       "--graph-param", "n=6", "--graph-param", "q=1.0",
                       "--graph-param", "r=2.0", "--seed", "0"])
        finally:
            os.chdir(old)
        assert rc == 0
        doc = json.load(open(tmp_path / "spectra_0.json"))
        assert doc["result"]["eta_abar"] == pytest.approx(5 * (1 / 3))


class TestPlotEmitters:
    def test_empty_report_header_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"task": "figure456", "seed": 0})
        empty = EmpiricalThresholdReport(np.zeros(0), np.zeros(0), np.zeros(0),
                                         None, 0, 0, 0)
        path = fig5_csv(str(tmp_path / "fig5.csv"), cfg, empty, 1.0, 2.0)
        lines = open(path).read().splitlines()
        assert len(lines) == 2 and lines[1] == "beta,z_star"
