import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from unispec import bounds, cli, cover, ensembles, nbw, spectra
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
    assert [row["name"] for row in json.loads(out)["checks"]] == [
        "core_peel_idempotent", "hoory_lambda_two_forms",
        "adjacency_moment_walk_equivalence", "markov_moment_return_equivalence",
        "lifting_w2k_cover_le_base_k4",
        "nbw_stationarity", "nbw_reversal_invariance", "nbw_entropy_consistency",
        "jensen_tree_radius_b1_ge_b2", "hoory_equals_entropy_bound", "cover_tail_mass_bound",
        "tail_mass_constant_self_consistency",
    ]


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
    pi = ensembles.DegreeDistribution.from_string("2:0.5,3:0.5")
    assert report["growth_bound"]["bound"] == bounds.sphere_growth_bounds(pi, 5)[0]
    assert "depth" not in report["config"]


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
    # the regular tree of degree 1 has no walk series
    code, _, err = run_cli(capsys, "sample", "ugw", "--pi", "1:1", "--stat", "walks", "--k", "2",
                           "--samples", "5")
    assert code == 2 and "degree must be >= 2" in err, err


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
    calls = {"adjacency_spectrum": 0, "markov_spectrum": 0}
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
    assert calls == {"adjacency_spectrum": 1, "markov_spectrum": 1}


def test_verify_solves_only_needed_spectra(capsys, monkeypatch):
    calls = _count_solves(monkeypatch)
    code, _, err = run_cli(capsys, "verify", "--suite", "nbw", "--gen", "complete:5")
    assert code == 0, err
    assert calls == {"adjacency_spectrum": 0, "markov_spectrum": 0}
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--gen", "complete:5")
    assert code == 0, err
    assert calls == {"adjacency_spectrum": 1, "markov_spectrum": 1}


def test_cover_rows_once_per_command(capsys, monkeypatch):
    orders = []
    original = cover.cover_walk_rows

    def counted(g, kmax):
        orders.append(kmax)
        return original(g, kmax)

    monkeypatch.setattr(cover, "cover_walk_rows", counted)
    graph = ["--gen", "random_regular:20:3", "--seed", "2"]
    for argv, expected in ((["analyze"], [4]), (["verify", "--suite", "all"], [4]),
                           (["verify", "--suite", "lifting"], [4]),
                           (["verify", "--suite", "bounds"], [4]),
                           (["verify", "--suite", "nbw"], []),
                           (["cover", "--radius", "6"], [6]), (["report"], [4]),
                           (["report", "--radius", "2", "--kmax", "6"], [4]),
                           (["report", "--radius", "7", "--kmax", "2"], [7])):
        orders.clear()
        code, _, err = run_cli(capsys, *argv, *graph)
        assert code == 0, (argv, err)
        assert orders == expected, argv


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
    monkeypatch.setenv("UNISPEC_NODE_BUDGET", "10")
    code, _, err = run_cli(capsys, "cover", "--gen", "complete:6", "--radius", "8")
    assert code == 2
    assert "budget" in err
