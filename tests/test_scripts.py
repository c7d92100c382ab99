"""The experiment scripts, run in process."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tempest
from tempest import empirical_threshold, graph_er_iv, mean_matrix, threshold_in_beta
from tempest.thresholds import _jsonable

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PACKAGE_ROOT = str(Path(tempest.__file__).resolve().parents[1])


def run_script(name, *args):
    """The script in a child process that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *args],
                          capture_output=True, text=True, env=env)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def section_iv():
    return load_script("reproduce_section_iv")


def test_section_iv_reports_the_direct_computation(section_iv, tmp_path, capsys):
    # graph seed s and protocol seed 1000 s + 7, delta 0.05, the 5e-4:10e-4:12
    # grid and a T4 search up to 2 delta / eta(Abar): the numbers of the
    # script before it drove figure456, bit for bit
    seed, out = 2, tmp_path / "iv"
    code = section_iv.main(["--seed", str(seed), "--n", "80", "--paths", "2", "--steps", "30",
                            "--threads", "1", "--out", str(out)])
    res = json.load(open(out / "fig5.json"))["result"]
    graph = graph_er_iv(80, 0.2, seed)
    mean = mean_matrix(graph)
    eta = mean.eta_abar()
    static = 0.05 / eta
    t4 = threshold_in_beta(mean, 0.05, "t4", (1e-8, 2 * static))
    rep = empirical_threshold(graph, 0.05, np.linspace(5e-4, 10e-4, 12), paths=2, steps=30,
                              seed=1000 * seed + 7)
    assert res["eta_abar"] == eta
    assert (res["threshold_static"], res["threshold_t4"]) == (static, t4)
    for key in ("beta_grid", "y_star", "z_star", "z_stderr", "beta_star", "beta_bracket"):
        assert res[key] == _jsonable(getattr(rep, key)), key
    assert (res["n"], res["edges"], res["dead_pairs"]) == \
        (80, graph.m, len(graph.metadata["dead_pairs"]))
    assert code == (0 if res["ordered"] else 1)
    assert f"eta(Abar) = {eta:.3f}" in capsys.readouterr().out


def test_section_iv_without_a_crossing_exits_one(section_iv, tmp_path, capsys):
    # z* >= 1 on the whole grid: beta* is undefined, the ordering fails, and
    # the run still writes every file
    out = tmp_path / "iv"
    code = section_iv.main(["--seed", "3", "--n", "80", "--paths", "4", "--steps", "60",
                            "--threads", "1", "--out", str(out)])
    assert code == 1
    assert json.load(open(out / "fig5.json"))["result"]["beta_star"] is None
    printed = capsys.readouterr().out
    assert "no crossing" in printed and "VIOLATED" in printed
    assert sorted(p.name for p in out.iterdir()) == \
        ["fig4.csv", "fig5.csv", "fig5.json", "fig6.csv"]


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_malformed_threads_variable_is_a_config_error(value, tmp_path, monkeypatch):
    # the script leaves TEMPEST_THREADS to the CLI, which reports it as
    # configuration (the script used to die parsing it for its defaults)
    monkeypatch.setenv("TEMPEST_THREADS", value)
    run = run_script("reproduce_section_iv", "--n", "20", "--paths", "2", "--steps", "5",
                     "--out", str(tmp_path / "iv"))
    assert run.returncode == 1
    assert run.stderr.startswith("config error:") and "Traceback" not in run.stderr


def test_figure_data_emits_the_figure_3_panels(tmp_path):
    out = tmp_path / "figs"
    run = run_script("make_figure_data", "--out", str(out))
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in out.iterdir()) == \
        ["figure3_a.csv", "figure3_b.csv", "figure3_c.csv"]
