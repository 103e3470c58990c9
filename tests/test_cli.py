import csv
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from unispec import bounds, cli, cover, ensembles, graph, nbw, spectra, walks
from unispec.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_cycle_stdout(capsys):
    code, out, err = run_cli(capsys, "analyze", "--gen", "cycle:100", "--out", "-")
    assert code == 0, err
    report = json.loads(out)
    sig = report["spectra"]["adjacency"]["sigma_1_to_5"]
    # even cycle: -2 is an eigenvalue, so sigma_2 = 2; 2cos(2pi/n) bounds it
    assert abs(sig[1] - 2.0) < 1e-9
    assert sig[1] >= 2 * math.cos(2 * math.pi / 100)
    assert report["config"]["gen"] == "cycle:100"
    assert report["graph"] == {"n": 100, "m": 100, "connected": True}
    assert all(check["pass"] for check in report["checks"])


def test_analyze_check_rows(capsys):
    code, out, err = run_cli(capsys, "analyze", "--gen", "complete:5")
    assert code == 0, err
    report = json.loads(out)
    assert [row["name"] for row in report["checks"]] == [
        "core_peel_idempotent", "hoory_lambda_two_forms",
        "adjacency_moment_walk_equivalence", "markov_moment_return_equivalence",
        "lifting_w2k_cover_le_base_k4",
        "nbw_stationarity", "nbw_reversal_invariance", "nbw_entropy_consistency",
        "jensen_tree_radius_b1_ge_b2", "hoory_equals_entropy_bound", "cover_tail_mass_bound",
        "tail_mass_constant_self_consistency",
    ]
    # the threshold row is b2 of the SRW radius bounds under its own key
    values = report["bounds"]
    assert values["srw_tail_threshold"]["value"] == values["srw_radius_moment_bound"]["value"]


def test_analyze_deterministic(capsys, tmp_path):
    # identical configs (including --out) give byte-identical reports
    target = tmp_path / "report.json"
    assert run_cli(capsys, "analyze", "--gen", "complete:5", "--out", str(target))[0] == 0
    first = target.read_bytes()
    assert run_cli(capsys, "analyze", "--gen", "complete:5", "--out", str(target))[0] == 0
    assert target.read_bytes() == first
    _, out1, _ = run_cli(capsys, "analyze", "--gen", "random_regular:12:3", "--seed", "5")
    _, out2, _ = run_cli(capsys, "analyze", "--gen", "random_regular:12:3", "--seed", "5")
    assert out1 == out2


def test_analyze_missing_input(capsys):
    code, out, err = run_cli(capsys, "analyze", "--input", "missing.edges")
    assert code == 2
    assert "cannot read" in err


def test_analyze_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--gen", "cycle:5", "--input", "x")
    assert code == 2


def test_analyze_csv_eigenvalues(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--gen", "cycle:4", "--format", "csv")
    assert code == 0
    values = sorted(float(line) for line in out.strip().splitlines())
    assert [round(v, 9) for v in values] == [-2.0, -0.0, 0.0, 2.0]


def test_analyze_tail_mass_grid_tops(capsys):
    # the adjacency grid runs up to sigma_1 (2 on a cycle), the Markov grid up to 1
    code, out, err = run_cli(capsys, "analyze", "--gen", "cycle:6")
    assert code == 0, err
    summaries = json.loads(out)["spectra"]
    adjacency_grid = [a for a, _ in summaries["adjacency"]["tail_mass_grid"]]
    markov_grid = [a for a, _ in summaries["markov"]["tail_mass_grid"]]
    assert adjacency_grid == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
    assert markov_grid == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for summary in summaries.values():
        assert summary["max_residual"] <= 1e-8 * max(1, 2)


def test_verify_all_complete4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--gen", "complete:4")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_nbw_rejects_leafy(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nbw", "--gen", "path:5")
    assert code == 2
    assert "leafless" in err


def test_verify_all_skips_leaf_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--gen", "path:5")
    assert code == 0
    assert "skipped" in out


def test_verify_disconnected_input(capsys, tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("n 4\n0 1\n2 3\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--input", str(path))
    assert code == 0
    assert "disconnected" in out
    code, _, err = run_cli(capsys, "verify", "--suite", "lifting", "--input", str(path))
    assert code == 2
    assert "connected" in err


def test_cover_cycle_walk_table(capsys):
    code, out, _ = run_cli(capsys, "cover", "--gen", "cycle:8", "--radius", "4")
    assert code == 0
    report = json.loads(out)
    counts = report["walk_table"]["counts"]
    assert counts[: 9] == [1, 0, 2, 0, 6, 0, 20, 0, 70]
    values = report["rho_estimate"]["values"]
    assert values == sorted(values)
    assert report["rho_estimate"]["provenance"] == "truncated-k"


def test_cover_csv(capsys):
    code, out, _ = run_cli(capsys, "cover", "--gen", "cycle:8", "--radius", "3",
                           "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[2] == ["2", "2"]
    assert rows[4] == ["4", "6"]


def test_cover_requires_radius(capsys):
    code, _, err = run_cli(capsys, "cover", "--gen", "cycle:8")
    assert code == 2
    assert "radius" in err
    # walk lengths 2k need k >= 1; a census of radius-0 balls is defined
    for command in ("cover", "report"):
        code, _, err = run_cli(capsys, command, "--gen", "cycle:8", "--radius", "0")
        assert code == 2 and "--radius" in err, command
    assert run_cli(capsys, "census", "--gen", "cycle:8", "--radius", "0")[0] == 0
    code, _, err = run_cli(capsys, "census", "--gen", "cycle:8", "--radius", "-1")
    assert code == 2 and "--radius must be nonnegative, got -1" in err
    code, _, err = run_cli(capsys, "cover", "--gen", "cycle:8", "--radius", "-1")
    assert code == 2 and "--radius must be positive, got -1" in err


def test_sample_walks_point_mass(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "ugw", "--pi", "3:1", "--samples", "10",
        "--stat", "walks", "--k", "2", "--seed", "42",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mean"] == 15.0
    assert report["stderr"] == 0.0
    assert report["exact"] == 15.0
    assert report["samples"] == 10
    assert report["seed"] == 42


def test_sample_defaults_alone_run(capsys):
    # the default --stat walks reads k = 3: W_6 of the 2-regular tree is C(6, 3)
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "2:1", "--samples", "2")
    assert code == 0, err
    report = json.loads(out)
    assert report["exact"] == report["mean"] == 20.0


def test_sample_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "ugw", "--pi", "2:0.5,3:0.5", "--samples", "2000",
        "--stat", "sphere", "--r", "3", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["exact"] - 6.4) < 1e-12
    assert abs(report["mean"] - 6.4) <= 3 * report["stderr"]


def test_sample_sphere_growth_bound_radius(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "ugw", "--pi", "2:0.5,3:0.5", "--samples", "50",
        "--stat", "sphere", "--r", "5", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    pi = graph.DegreeDistribution.from_string("2:0.5,3:0.5")
    row = report["growth_bound"]
    assert row["bound"] == bounds.sphere_growth_bounds(pi, 5)[0]
    assert "depth" not in report["config"]
    assert sorted(row) == sorted([
        "name", "bound", "observed", "slack", "passed", "consistent_within_error",
        "bound_provenance", "observed_provenance", "stderr", "note"])
    assert row["passed"] is None  # never conflate "violated" with "noisy"
    assert row["observed"] == report["mean"]
    assert row["slack"] == row["observed"] - row["bound"]
    assert row["consistent_within_error"] is True
    assert (row["bound_provenance"], row["observed_provenance"]) == ("exact", "monte-carlo")


def test_sample_sphere_growth_bound_far_below(capsys, monkeypatch):
    # a mean far more than 3 stderrs below the bound (about 5.74 at r = 3) is inconsistent,
    # and still not failed
    far = ensembles.Estimate(mean=0.5, stderr=0.01, samples=10, seed=0)
    monkeypatch.setattr(ensembles, "estimate_sphere", lambda *args: (far, None))
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "2:0.5,3:0.5", "--samples", "10",
                             "--stat", "sphere", "--r", "3")
    assert code == 0, err
    row = json.loads(out)["growth_bound"]
    assert row["consistent_within_error"] is False
    assert row["slack"] < 0
    assert row["passed"] is None


def test_sample_sphere_leafy_law(capsys):
    # a law with leaves samples; only the growth bound needs minimum degree 2
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "1:0.5,3:0.5", "--stat", "sphere",
                             "--samples", "50")
    assert code == 0, err
    report = json.loads(out)
    assert report["exact"] == 4.5  # E[D] m^2 with E[D] = 2, m = E[D(D-1)] / E[D] = 1.5
    assert "growth_bound" not in report


def test_sample_sphere_node_budget(capsys):
    # 10-regular offspring: the depth-7 tree has 5,978,711 vertices, past the budget of 1e6
    # once its last generation is counted, as for --stat walks --k 7; |S_8| = 47,829,690
    for r in ("7", "8"):
        code, _, err = run_cli(capsys, "sample", "ugw", "--pi", "10:1", "--samples", "1",
                               "--stat", "sphere", "--r", r)
        assert code == 2, r
        assert "budget" in err


def test_module_entry_point_runs_the_command():
    # `python -m unispec.cli` from a source checkout runs the subcommand, not a silent exit 0
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "unispec.cli", "sample", "ugw", "--pi", "2:1",
                           "--stat", "sphere", "--samples", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["mean"] == 2.0


def test_sample_bad_pi(capsys):
    code, _, err = run_cli(capsys, "sample", "ugw", "--pi", "2:0.7,3:0.7",
                           "--stat", "walks", "--k", "1")
    assert code == 2
    # a probability too large for a float is checked exactly and named by its degree
    code, _, err = run_cli(capsys, "sample", "ugw", "--pi", "2:1e400", "--k", "2")
    assert code == 2 and "degree 2" in err, err


def test_sample_walks_on_the_one_regular_tree(capsys):
    # the 1-regular tree is K_2: every sample and the exact value are W_2k = 1
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "1:1", "--stat", "walks", "--k", "2",
                             "--samples", "5")
    assert code == 0, err
    report = json.loads(out)
    assert (report["exact"], report["mean"], report["stderr"]) == (1.0, 1.0, 0.0)


def test_sample_walks_past_the_float_range(capsys, monkeypatch):
    # walk counts near 1e160 have a float, though their squares do not
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "1:0.5,2:0.5", "--stat", "walks",
                             "--k", "300", "--samples", "5", "--seed", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert 1e150 < report["mean"] < math.inf and 0 < report["stderr"] < math.inf
    # a count past the float range exits 2 and names k; W_2k of the line first has none at k = 515
    monkeypatch.setattr(ensembles, "_walk_series", lambda *args: np.array([10 ** 400], object))
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "2:1", "--stat", "walks",
                             "--k", "5", "--samples", "2")
    assert (code, out) == (2, "") and "k = 5 passes the float range (max 1.8e+308)" in err, err


def test_sample_walks_past_the_float_range_exits_before_counting(capsys, monkeypatch):
    # W_2k of the line passes the float range at k = 515, so every sample's count does
    def count(*args):
        raise AssertionError("walks counted")

    monkeypatch.setattr(ensembles, "_walk_series", count)
    code, out, err = run_cli(capsys, "sample", "ugw", "--pi", "2:1", "--stat", "walks",
                             "--k", "515", "--samples", "2")
    assert (code, out) == (2, "") and "k = 515 passes the float range (max 1.8e+308)" in err, err


def test_census_grid(capsys):
    code, out, _ = run_cli(capsys, "census", "--gen", "grid:6", "--radius", "1")
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 36
    assert report["exact"] is True
    assert report["classes"][0]["count"] == 16  # (6-2)^2 interior class


def test_census_csv_rows_are_code_count_pairs(capsys):
    # exact codes contain commas; every CSV row must still parse into (code, count)
    code, out, _ = run_cli(capsys, "census", "--gen", "glued_clique_path:4:3", "--radius", "2")
    assert code == 0
    classes = [(c["code"], str(c["count"])) for c in json.loads(out)["classes"]]
    code, out, _ = run_cli(capsys, "census", "--gen", "glued_clique_path:4:3", "--radius", "2",
                           "--format", "csv")
    assert code == 0
    rows = [tuple(row) for row in csv.reader(io.StringIO(out))]
    assert rows == classes
    assert any("," in code for code, _ in rows)


def test_report_combined(capsys):
    code, out, _ = run_cli(capsys, "report", "--gen", "complete:4", "--radius", "3")
    assert code == 0
    report = json.loads(out)
    assert report["all_checks_pass"] is True
    assert len(report["rho_cover_estimate"]["values"]) == 3
    # the cover of one isolated vertex has no closed walk of positive length
    code, out, err = run_cli(capsys, "report", "--gen", "complete:1")
    assert code == 0, err
    assert json.loads(out)["rho_cover_estimate"]["values"] == [0.0] * 4
    code, out, err = run_cli(capsys, "cover", "--gen", "complete:1", "--radius", "2")
    assert code == 0, err
    assert json.loads(out)["rho_estimate"]["values"] == [0.0, 0.0]


def test_unknown_flags_exit_2(capsys, tmp_path):
    assert run_cli(capsys, "analyze", "--nonsense")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "analyze", "--gen", "cycle:5", "--threads", "2")[0] == 2
    assert run_cli(capsys, "verify", "--gen", "complete:4", "--suite", "mtp")[0] == 2
    assert run_cli(capsys, "sample", "ugw", "--pi", "2:0.5,3:0.5", "--stat", "sphere",
                   "--depth", "5")[0] == 2
    # each subcommand rejects the flags it does not read
    assert run_cli(capsys, "verify", "--gen", "complete:4", "--out", "x")[0] == 2
    assert run_cli(capsys, "census", "--gen", "grid:4", "--radius", "1", "--kmax", "2")[0] == 2
    assert run_cli(capsys, "analyze", "--gen", "cycle:5", "--radius", "3")[0] == 2
    walks = ["sample", "ugw", "--pi", "3:1", "--k", "1", "--samples", "2"]
    for argv in (walks + ["--kmax", "2"], walks + ["--radius", "2"],
                 ["verify", "--gen", "complete:4", "--format", "csv"],
                 ["verify", "--gen", "complete:4", "--pretty"],
                 ["census", "--gen", "grid:4", "--radius", "1", "--pretty", "--format", "csv"],
                 ["analyze", "--gen", "cycle:5", "--format", "csv", "--pretty"],
                 ["verify", "--gen", "complete:4", "--radius", "2"]):
        assert run_cli(capsys, *argv)[0] == 2, argv
    # no prefix matching, and --format only where a CSV rendering exists: rejected by the parser
    for argv in (["report", "--gen", "cycle:5", "--r", "2"],
                 ["cover", "--gen", "cycle:5", "--r", "3"],
                 ["analyze", "--gen", "cycle:5", "--k", "2"],
                 ["report", "--gen", "cycle:5", "--format", "csv"],
                 walks + ["--format", "csv"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err, argv
    # values the parser accepts but the command cannot use name the flag or the path
    code, _, err = run_cli(capsys, "analyze", "--gen", "cycle:5", "--seed", "-1")
    assert code == 2 and "--seed must be nonnegative" in err
    out = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "cover", "--gen", "cycle:5", "--radius", "2", "--out", str(out))
    assert code == 2 and err.startswith(f"error: cannot write {out}: "), err


def test_sample_rejects_flag_of_other_stat(capsys):
    base = ["sample", "ugw", "--pi", "3:1", "--samples", "2"]
    code, _, err = run_cli(capsys, *base, "--stat", "walks", "--k", "1", "--r", "9")
    assert code == 2 and "--r" in err
    code, _, err = run_cli(capsys, *base, "--stat", "sphere", "--k", "3")
    assert code == 2 and "--k" in err
    assert run_cli(capsys, *base, "--stat", "sphere", "--r", "2")[0] == 0


def _count_solves(monkeypatch):
    # the commands solve on a background thread through the private solves: every solve
    # runs `_solve`, a Markov one inside `_markov`
    calls = {"_solve": 0, "_markov": 0}
    for name in calls:
        original = getattr(spectra, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectra, name, counted)

    def no_kernel(*args, **kwargs):
        raise AssertionError("dense NBW kernel built")

    monkeypatch.setattr(nbw, "nbw_transition", no_kernel)
    return calls


def test_analyze_solves_each_spectrum_once(capsys, monkeypatch):
    calls = _count_solves(monkeypatch)
    code, _, err = run_cli(capsys, "analyze", "--gen", "random_regular:20:3", "--seed", "2")
    assert code == 0, err
    assert calls == {"_solve": 2, "_markov": 1}


def test_verify_solves_only_needed_spectra(capsys, monkeypatch):
    # the suites that read no spectrum start no solve and no thread; `all` starts one thread
    calls, started = _count_solves(monkeypatch), []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for suite in ("graph", "nbw", "lifting"):
        code, _, err = run_cli(capsys, "verify", "--suite", suite, "--gen", "complete:5")
        assert code == 0, (suite, err)
    assert calls == {"_solve": 0, "_markov": 0} and started == []
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--gen", "complete:5")
    assert code == 0, err
    assert calls == {"_solve": 2, "_markov": 1} and len(started) == 1


def test_suite_error_after_the_solves_started_joins_their_thread(capsys, monkeypatch):
    # the NBW suite raises while the adjacency solve is still under way on its thread; the
    # command still exits 1 with the suite's error, and only after that thread has ended
    solving, release, workers = threading.Event(), threading.Event(), []
    original = spectra._solve

    def held(g, sym):
        workers.append(threading.current_thread())
        solving.set()
        release.wait(10)
        time.sleep(0.05)  # still solving when the suite's error reaches the command
        return original(g, sym)

    def broken(g):
        assert solving.wait(10)
        release.set()
        raise RuntimeError("stationarity exploded")

    monkeypatch.setattr(spectra, "_solve", held)
    monkeypatch.setattr(nbw, "stationarity_check", broken)
    before = set(threading.enumerate())
    code, out, err = run_cli(capsys, "analyze", "--gen", "random_regular:20:3", "--seed", "2")
    assert (code, out, err) == (1, "", "internal error: stationarity exploded\n")
    assert workers and workers[0] is not threading.main_thread() and not workers[0].is_alive()
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--suite", "all"],
                                  ["verify", "--suite", "walks"], ["verify", "--suite", "bounds"],
                                  ["report"]])
def test_failed_solve_reports_as_when_solved_in_line(capsys, monkeypatch, argv):
    # with no residual allowed, every command fails as the synchronous adjacency solve did;
    # with only the Markov solve failing, every command that starts that solve fails with
    # its error and `verify --suite bounds` passes. Both hold also when a suite that runs
    # while the spectra are solved raises as well
    g = graph.generate("random_regular", 20, 3, seed=2)
    argv = [*argv, "--gen", "random_regular:20:3", "--seed", "2"]
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "RESIDUAL_FACTOR", 0)
        with pytest.raises(ArithmeticError) as solved_in_line:
            spectra.adjacency_spectrum(g)
        expected = (1, "", f"internal error: {solved_in_line.value}\n")
        assert run_cli(capsys, *argv) == expected
        patch.setattr(nbw, "stationarity_check", lambda g: 1 / 0)
        assert run_cli(capsys, *argv) == expected

    def failed_markov(g, adjacency):
        raise ArithmeticError("Markov solve failed")

    monkeypatch.setattr(spectra, "_markov", failed_markov)
    if argv[:3] == ["verify", "--suite", "bounds"]:  # it starts no Markov solve
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and "FAIL" not in out, out
        return
    expected = (1, "", "internal error: Markov solve failed\n")
    assert run_cli(capsys, *argv) == expected
    monkeypatch.setattr(nbw, "stationarity_check", lambda g: 1 / 0)
    assert run_cli(capsys, *argv) == expected


def test_dense_limit_spares_the_suites_that_read_no_spectrum(capsys, monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_LIMIT_DEFAULT", 5)
    calls = _count_solves(monkeypatch)
    for suite in ("graph", "nbw"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--gen", "grid:6")
        assert code == 0 and "FAIL" not in out, (suite, out, err)
    assert calls == {"_solve": 0, "_markov": 0}


def test_dense_limit_fails_walks_before_any_walk_column(capsys, monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_LIMIT_DEFAULT", 5)

    def column(*args):
        raise AssertionError("walk column computed")

    monkeypatch.setattr(walks, "closed_walk_counts", column)
    monkeypatch.setattr(walks, "srw_return_probs", column)
    code, out, err = run_cli(capsys, "verify", "--suite", "walks", "--gen", "grid:6")
    assert (code, out, err) == (2, "", "error: n=36 exceeds dense eigensolver limit 5\n")


def test_public_functions_run_on_the_main_thread(capsys, monkeypatch):
    # the benchmark's span tracer wraps every name in each module's __all__, and every
    # module-namespace alias of it, and assumes one thread: only the private solves may
    # run on the solve thread
    threads = {}

    def on_thread(name, fn):
        def wrapped(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread() is threading.main_thread())
            return fn(*args, **kwargs)
        return wrapped

    wrappers = {}
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "unispec" or name.startswith("unispec.")}
    for mod in modules.values():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = on_thread(f"{mod.__name__}.{attr}", fn)
    wrappers[id(spectra._solve)] = on_thread("unispec.spectra._solve", spectra._solve)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[id(value)])
    graph_args = ["--gen", "random_regular:20:3", "--seed", "2"]
    for argv in (["analyze"], ["verify", "--suite", "all"], ["report"]):
        assert cli.run([*argv, *graph_args]) == 0, (argv, capsys.readouterr().err)
    assert threads.pop("unispec.spectra._solve") == {False}
    assert "unispec.walks.closed_walk_counts" in threads and "unispec.cli.run" in threads
    assert {name for name, on_main in threads.items() if on_main != {True}} == set()


def test_concurrent_inputs_under_a_short_switch_interval():
    # four commands' inputs at once, each on its own graph with its own solve thread, on two
    # cores and with thread switches forced often: each reads the rows and spectra of a lone run
    graphs = [graph.generate("random_regular", 30, 3, seed=seed) for seed in range(4)]

    def solved(g):
        with cli._Inputs(g, 4, 4) as inputs:
            return cli._run_suites(inputs, "all"), inputs.adjacency, inputs.markov

    expected, results = [solved(g) for g in graphs], [None] * len(graphs)

    def run(i):
        results[i] = [solved(graphs[i]) for _ in range(10)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(graphs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[rows] * 10 for rows in expected]


def test_cover_rows_once_per_command(capsys, monkeypatch):
    # one cone-type refinement per command, at its largest order: `cover` reads both the ball
    # size (radius rounds) and the rows (kmax <= radius) off one quotient
    orders = []
    original = cover._cone_types

    def counted(g, rounds):
        orders.append(rounds)
        return original(g, rounds)

    monkeypatch.setattr(cover, "_cone_types", counted)
    graph = ["--gen", "random_regular:20:3", "--seed", "2"]
    for argv, expected in ((["analyze"], [4]), (["verify", "--suite", "all"], [4]),
                           (["verify", "--suite", "lifting"], [4]),
                           (["verify", "--suite", "bounds"], [4]),
                           (["verify", "--suite", "nbw"], []),
                           (["cover", "--radius", "6"], [6]),
                           (["cover", "--radius", "6", "--kmax", "2"], [6]), (["report"], [4]),
                           (["report", "--radius", "2", "--kmax", "6"], [4]),
                           (["report", "--radius", "7", "--kmax", "2"], [7])):
        orders.clear()
        code, _, err = run_cli(capsys, *argv, *graph)
        assert code == 0, (argv, err)
        assert orders == expected, argv


def test_cover_series_runs_on_the_quotient(capsys, monkeypatch):
    # a structural speed guard: the series must see the cone-type classes, not all 2m + n
    # branches, so a silent return to the full series fails here without a timing test
    branches = []
    original = cover.branch_series

    def counted(succ, order, weight=None):
        branches.append(len(succ))
        return original(succ, order, weight)

    monkeypatch.setattr(cover, "branch_series", counted)
    for gen, check in (("random_regular:200:3", lambda b: b == 2),  # one edge class, one root
                       ("grid:6", lambda b: b < 2 * 60 + 36)):
        branches.clear()
        code, _, err = run_cli(capsys, "cover", "--gen", gen, "--radius", "10")
        assert code == 0, err
        assert len(branches) == 1 and check(branches[0]), (gen, branches)


def test_gen_spec_errors(capsys):
    code, _, err = run_cli(capsys, "analyze", "--gen", "cycle:abc")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--gen", "widget:3")
    assert code == 2
    assert "unknown family" in err


def test_pretty_render(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--gen", "cycle:6", "--pretty")
    assert code == 0
    assert "degree_stats" in out
    assert not out.lstrip().startswith("{")


def test_pretty_with_out_writes_json_to_the_file_and_the_table_to_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "analyze", "--gen", "cycle:6", "--pretty",
                             "--out", str(target))
    assert code == 0, err
    assert json.loads(target.read_text())["config"]["pretty"] is True
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "schema: unispec.analyze.v1" in out.splitlines()


def test_readme_cli_section_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert documented == {flag for flag in cli._FLAGS if flag.startswith("--")}


def test_report_cover_series(capsys, tmp_path):
    # cover moments need no ball: radius 25 would be a 100,663,294-node cubic cover ball
    code, out, err = run_cli(capsys, "report", "--gen", "random_regular:30:3", "--radius", "25")
    assert code == 0, err
    assert len(json.loads(out)["rho_cover_estimate"]["values"]) == 25
    # and cover counts that ball without building it
    code, out, err = run_cli(capsys, "cover", "--gen", "random_regular:30:3", "--radius", "25")
    assert code == 0, err
    assert json.loads(out)["ball"] == {"vertices": 100_663_294, "radius": 25}
    for name, text, message in (
            ("two_triangles", "n 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n", "requires a connected graph"),
            ("empty", "", "requires a nonempty graph")):
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        for argv in (["report"], ["cover", "--radius", "3"]):
            code, _, err = run_cli(capsys, *argv, "--input", str(path))
            assert code == 2, argv
            assert f"universal cover {message}" in err, argv
    # a census of no roots is still a census
    assert run_cli(capsys, "census", "--input", str(path), "--radius", "1")[0] == 0


def test_budget_violation_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cover, "COVER_NODE_BUDGET", 10)
    code, _, err = run_cli(capsys, "cover", "--gen", "complete:6", "--radius", "8")
    assert code == 2
    assert "budget" in err


def test_analyze_leafy_graph_reports_only_the_degree_bound(capsys):
    code, out, err = run_cli(capsys, "analyze", "--gen", "path:5")
    assert code == 0, err
    values = json.loads(out)["bounds"]
    assert sorted(values) == ["alon_boppana_degree_bound", "note"]
    assert values["alon_boppana_degree_bound"]["provenance"] == "exact"
    assert values["note"] == "degree-moment bounds undefined: graph has a leaf"


def test_census_requires_radius(capsys):
    code, out, err = run_cli(capsys, "census", "--gen", "cycle:5")
    assert (code, out, err) == (2, "", "error: census requires --radius\n")


def test_internal_error_exits_1(capsys, monkeypatch):
    # the README promises exit code 1 for an internal error
    def broken(*args):
        raise RuntimeError("census exploded")

    monkeypatch.setattr(ensembles, "ball_census", broken)
    code, out, err = run_cli(capsys, "census", "--gen", "cycle:5", "--radius", "1")
    assert (code, out, err) == (1, "", "internal error: census exploded\n")


def test_suite_preconditions_report_a_leaf_before_a_disconnection(capsys, tmp_path):
    path = tmp_path / "leafy_two_components.edges"
    path.write_text("n 5\n0 1\n2 3\n3 4\n")
    code, _, err = run_cli(capsys, "verify", "--suite", "bounds", "--input", str(path))
    assert code == 2
    assert err == "error: suite 'bounds' requires a leafless graph (min degree >= 2)\n"
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--input", str(path))
    assert code == 0, err
    names = [line.split()[1] for line in out.splitlines()[:-1]]
    assert names == ["core_peel_idempotent", "adjacency_moment_walk_equivalence",
                     "markov_moment_return_equivalence", "lifting_suite_skipped_disconnected",
                     "nbw_suite_skipped_leaf_present", "bounds_suite_skipped_leaf_present"]
    assert out.splitlines()[-1] == "6/6 checks passed"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "nbw"], "suite 'nbw' requires a leafless graph (min degree >= 2)"),
    (["verify", "--suite", "bounds"], "suite 'bounds' requires a leafless graph (min degree >= 2)"),
    (["verify", "--suite", "graph"], "degree_stats needs at least one vertex"),
    (["verify", "--suite", "walks"], "degree_stats needs at least one vertex"),
    (["verify", "--suite", "lifting"], "degree_stats needs at least one vertex"),
    (["verify", "--suite", "all"], "degree_stats needs at least one vertex"),
    (["analyze"], "degree_stats needs at least one vertex"),
])
def test_empty_graph_error_order(capsys, tmp_path, argv, message):
    # a single suite's graph conditions are checked first, then the degree stats are read,
    # before any suite runs
    path = tmp_path / "empty.edges"
    path.write_text("")
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, digest", [
    (["--gen", "grid:8", "--radius", "2"],
     "d3ab75dffc1ddd0408d99da72be40487221172debd64c73628c3167a7dd742da"),
    (["--gen", "complete:9", "--radius", "1"],
     "fe4a076e782e6c9a312a71ecc95819ba5913024883c5aa5af9f45e92c00ea5e9"),
    (["--gen", "glued_clique_path:5:6", "--radius", "3"],
     "d0fb5f2b003e5d06088c2818579a5a5b611da7f2e1aed66bea2d0679aced6c84"),
    (["--gen", "grid:12", "--radius", "4"],
     "03a84c7d9e448db9b13fdae282f749e7a86b1705db594de7fcb9b4bb7c38fbd8"),
    (["--gen", "cycle:7", "--radius", "0"],
     "0c386bcf5116fbc8b75ded7d28c82c93011059908307defc4705fe6213de5a8d"),
])
def test_census_report_bytes(capsys, argv, digest):
    # Whole census reports, canonical codes included: tree and cyclic exact codes, and the
    # h... hash fallback of 41-vertex cyclic grid balls (grid:12, exact false). The codes are
    # pure Python, so the bytes do not depend on BLAS or the platform. A deliberate change of
    # the code format updates these hashes and is named in CHANGES.md.
    code, out, err = run_cli(capsys, "census", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["--gen", "random_regular:200:3", "--radius", "10"],
     "ef65eda1116a965559c6336f4effe2ec421b3b55cd923a407b91ea12bf3f0c2b"),
    (["--gen", "grid:6", "--radius", "8"],
     "1b2d00ed26214d9ecbc3259b4b17a04fa7825d805048e2e9b2d1a37cf332d6fe"),
    (["--gen", "glued_clique_path:8:10", "--radius", "6"],
     "fd12fd41bfa77995dbc06d3658a74c97644131bc30f735833145f9f78a1c13b9"),
    (["--gen", "path:1", "--radius", "2"],
     "8603ad2fa8051f7660cbef7d389eec07f053e2314e243a70a05739d806318ae1"),
    (["--gen", "complete:4", "--radius", "6", "--format", "csv"],
     "3526c46aa18502e9dd19c772476debb72a7929c0bf9d16b0430d6d65aaa6fe4e"),
    (["--gen", "grid:6", "--radius", "8", "--kmax", "3"],
     "4f1e1789ebeee1825aa45c3a3cccc429f2b95b6a5da2e850a2f75d24aa507cf4"),
    (["--gen", "glued_clique_path:8:10", "--radius", "9", "--kmax", "2"],
     "9a58667631ef1aabf8f94dffe450b772bf42e1317bcfccccb6d61e5c10cc8b9c"),
    (["--gen", "path:6", "--radius", "8", "--kmax", "2"],  # 2 rounds would count 9 vertices, not 6
     "90266ef7b6ec54bccaba21439b65b580f730267f5f8a7cda35d1c7f0a6c219a3"),
])
def test_cover_report_bytes(capsys, argv, digest):
    # Whole cover reports, recorded before the walk rows moved to the cone-type quotient:
    # the benchmark's shape (one edge class), a grid and a glued clique path (many classes),
    # a graph with no edges, and the CSV table; the last three, recorded before the ball size
    # moved there too, read rows of order kmax < radius off the radius-round quotient. Rows are
    # exact integers and the estimates are math.exp/math.log of them, so the bytes do not
    # depend on BLAS or the platform.
    code, out, err = run_cli(capsys, "cover", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
