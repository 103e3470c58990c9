"""Self-tests of the benchmark: tracer arithmetic, oracles that can fail, inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import unispec.cli as cli  # noqa: E402
from unispec import ensembles  # noqa: E402


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


def graph_file(tmp_path: Path, name: str, n: int, edges) -> str:
    path = tmp_path / name
    workloads.write_edge_list(path, n, edges)
    return str(path)


# ---------------------------------------------------------------------------
# tracer


def test_self_time_of_nested_calls():
    # root [0, 10] calls mid [1, 5.5], which calls leaf [4, 5]; root then calls leaf [6, 8]
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 6.0, 8.0, 10.0])
    t = tracing.Tracer(clock=ticks.__next__)
    leaf = t.wrap("walks.leaf", lambda: None)
    mid = t.wrap("graph.mid", lambda: leaf())

    def body():
        mid()
        leaf()

    root = t.wrap("cli.root", body)
    t.job = 0
    root()
    spans = list(t.spans())
    assert [(s.name, s.start, s.end, s.parent) for s in spans] == [
        ("cli.root", 0.0, 10.0, -1),
        ("graph.mid", 1.0, 5.5, 0),
        ("walks.leaf", 4.0, 5.0, 1),
        ("walks.leaf", 6.0, 8.0, 0),
    ]
    times = t.self_times(0)
    assert times == {"cli.root": (3.5, 1), "graph.mid": (3.5, 1), "walks.leaf": (3.0, 2)}
    assert sum(v for v, _ in times.values()) == 10.0
    assert t.self_times(1) == {}


def test_traced_job_is_byte_identical_and_self_times_cover_it(tmp_path):
    rng = random.Random(5)
    path = graph_file(tmp_path, "g.edges", 30, workloads.random_regular_edges(30, 3, rng))
    argv = ["analyze", "--input", path, "--kmax", "2"]
    originals = {name: getattr(cli, name) for name in ("run", "load_graph", "degree_stats")}
    plain = run_cli(argv)
    inst = tracing.install(tracing.Tracer())
    try:
        assert cli.run is not originals["run"] and cli.load_graph is not originals["load_graph"]
        inst.tracer.job = 0
        traced = run_cli(argv)
    finally:
        tracing.uninstall(inst)
    assert {name: getattr(cli, name) for name in originals} == originals
    assert traced == plain
    layers = tracing.layer_metrics(inst, {0: 1.0})
    assert set(layers) == set(tracing.LAYER_UNITS)
    root = [s for s in inst.tracer.spans() if s.parent < 0]
    assert [s.name for s in root] == ["cli.run"]
    total = sum(layers[f"{m}.self_s"] for m in tracing.MODULES) + layers["ensembles.rng.setup_s"]
    assert total == pytest.approx(root[0].end - root[0].start, rel=1e-9)
    assert layers["spectra.solves"] == 5 and layers["nbw.kernel_bytes"] == (2 * 45) ** 2 * 8
    assert layers["cover.balls_built"] > 0 and 0 < layers["cover.distinct_ratio"] <= 1


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_UNITS) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_norm_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# oracles: each accepts a real report and rejects a corrupted one


def test_mckay_formula_matches_the_transfer_recursion():
    for d in (2, 3, 4, 5):
        assert tuple(oracles.regular_tree_closed_walks(d, k) for k in range(12)) == \
            ensembles.regular_tree_walks(d, 11)


def test_analyze_oracle(tmp_path):
    path = graph_file(tmp_path, "g.edges", 40, workloads.random_regular_edges(40, 4, random.Random(1)))
    rep = json.loads(run_cli(["analyze", "--input", path]))
    assert oracles.check_analyze(rep, n=40, d=4) == []
    failed_row = copy.deepcopy(rep)
    failed_row["checks"][0]["pass"] = False
    assert oracles.check_analyze(failed_row, n=40, d=4)
    off_sigma = copy.deepcopy(rep)
    off_sigma["spectra"]["adjacency"]["sigma_1_to_5"][0] += 1e-6
    assert oracles.check_analyze(off_sigma, n=40, d=4)
    assert oracles.check_analyze(rep, n=40, d=3)


def test_cover_oracle(tmp_path):
    path = graph_file(tmp_path, "g.edges", 20, workloads.random_regular_edges(20, 3, random.Random(2)))
    rep = json.loads(run_cli(["cover", "--input", path, "--radius", "5"]))
    assert oracles.check_cover(rep, n=20, d=3, radius=5) == []
    flipped = copy.deepcopy(rep)
    flipped["walk_table"]["counts"][6] += 1
    assert oracles.check_cover(flipped, n=20, d=3, radius=5)
    odd = copy.deepcopy(rep)
    odd["walk_table"]["counts"][3] = 1
    assert oracles.check_cover(odd, n=20, d=3, radius=5)
    rho = copy.deepcopy(rep)
    rho["rho_estimate"]["values"][-1] *= 1.001
    assert oracles.check_cover(rho, n=20, d=3, radius=5)


def test_census_oracle(tmp_path):
    edges = workloads.random_regular_edges(24, 3, random.Random(3))
    path = graph_file(tmp_path, "g.edges", 24, edges)
    rep = json.loads(run_cli(["census", "--input", path, "--radius", "2"]))
    assert oracles.check_census(rep, 24, edges, radius=2) == []
    off_by_one = copy.deepcopy(rep)
    off_by_one["total"] += 1
    assert oracles.check_census(off_by_one, 24, edges, radius=2)
    merged = copy.deepcopy(rep)
    merged["classes"] = [{"code": "all", "count": 24}]
    assert oracles.check_census(merged, 24, edges, radius=2)


def test_grid_census_oracle(tmp_path):
    side = 7
    edges = workloads.relabel(side * side, workloads.grid_edges(side), random.Random(4))
    path = graph_file(tmp_path, "grid.edges", side * side, edges)
    rep = json.loads(run_cli(["census", "--input", path, "--radius", "2"]))
    assert oracles.check_grid_census(rep, side, radius=2) == []
    assert oracles.grid_ball_classes(5, 1) == [4, 9, 12]
    off_by_one = copy.deepcopy(rep)
    off_by_one["classes"][0]["count"] -= 1
    assert oracles.check_grid_census(off_by_one, side, radius=2)
    inexact = copy.deepcopy(rep)
    inexact["exact"] = False
    assert oracles.check_grid_census(inexact, side, radius=2)


def test_sphere_oracle():
    pi = {2: 0.5, 3: 0.5}
    rep = json.loads(run_cli(["sample", "ugw", "--pi", "2:0.5,3:0.5", "--stat", "sphere",
                              "--r", "3", "--samples", "3000", "--seed", "7"]))
    assert oracles.check_sphere(rep, pi, r=3, samples=3000, seed=7) == []
    assert oracles.check_sphere(rep, pi, r=3, samples=3001, seed=7)
    assert oracles.check_sphere(rep, pi, r=3, samples=3000, seed=8)
    biased = dict(rep, mean=rep["mean"] + 5 * rep["stderr"])
    assert oracles.check_sphere(biased, pi, r=3, samples=3000, seed=7)


def test_ugw_walks_oracle():
    pi = {2: 0.5, 3: 0.5}
    rep = json.loads(run_cli(["sample", "ugw", "--pi", "2:0.5,3:0.5", "--stat", "walks",
                              "--k", "3", "--samples", "200", "--seed", "7"]))
    assert oracles.check_ugw_walks(rep, pi, k=3, samples=200, seed=7) == []
    assert oracles.check_ugw_walks(rep, pi, k=3, samples=200, seed=6)
    too_many = dict(rep, mean=oracles.regular_tree_closed_walks(3, 3) + 1.0)
    assert oracles.check_ugw_walks(too_many, pi, k=3, samples=200, seed=7)


# ---------------------------------------------------------------------------
# inputs and the command


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 3, tmp_path)
        assert a.files == workloads.build(name, 3, tmp_path).files
        if a.files:
            assert a.files != workloads.build(name, 4, tmp_path).files
    edges = workloads.random_regular_edges(50, 4, random.Random(9))
    degree = [0] * 50
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [4] * 50 and len(set(edges)) == 100 and all(u != v for u, v in edges)
    assert oracles.connected(50, edges)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "cover", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
