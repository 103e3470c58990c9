"""Batch command-line front end: analyze, cover, sample, census, verify, report.

Reports are machine-first JSON with bit-stable field ordering; two runs with
the same resolved configuration produce byte-identical output. ``--pretty``
renders the same data as a human table. Exit codes: 0 success, 1 internal
error or failed verification, 2 validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import bounds as bounds_mod
from . import cover as cover_mod
from . import ensembles, nbw, spectra, walks
from .graph import (
    DegreeStats,
    Graph,
    GraphInputError,
    core_peel,
    degree_stats,
    generate,
    load_graph,
)

__all__ = ["DEFAULT_SEED", "RunConfig", "main", "run"]

DEFAULT_SEED = 0xC0FFEE
SCHEMA_PREFIX = "unispec"


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    input: str | None = None
    gen: str | None = None
    radius: int | None = None
    kmax: int | None = None
    samples: int | None = None
    seed: int = DEFAULT_SEED
    out: str = "-"
    format: str = "json"
    pretty: bool = False
    suite: str | None = None
    stat: str | None = None
    pi: str | None = None
    k: int | None = None
    r: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_gen_spec(spec: str, seed: int) -> Graph:
    parts = spec.split(":")
    family = parts[0]
    try:
        params = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise GraphInputError(f"non-integer parameter in generator spec {spec!r}") from None
    return generate(family, *params, seed=seed)


def _resolve_graph(cfg: RunConfig) -> Graph:
    if (cfg.input is None) == (cfg.gen is None):
        raise GraphInputError("exactly one of --input or --gen is required")
    if cfg.input is not None:
        try:
            return load_graph(cfg.input)
        except OSError as exc:
            raise GraphInputError(f"cannot read {cfg.input}: {exc.strerror}") from None
    return _parse_gen_spec(cfg.gen, cfg.seed)


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _pretty_lines(payload, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(pad + "-")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _write_report(payload: dict, cfg: RunConfig, csv_text: str | None = None) -> None:
    if cfg.format == "csv":  # only subcommands with a CSV rendering register --format
        _emit(csv_text, cfg.out)
        return
    if cfg.pretty:
        text = "\n".join(_pretty_lines(payload)) + "\n"
        if cfg.out == "-":
            _emit(text, "-")
        else:
            _emit(_dump_json(payload), cfg.out)
            sys.stdout.write(text)
        return
    _emit(_dump_json(payload), cfg.out)


# ----------------------------------------------------------------------------
# Check suites (shared by verify and analyze)
# ----------------------------------------------------------------------------


def _check(name: str, ok: bool, deviation: float | None = None, note: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "deviation": deviation, "note": note}


def _suite_graph(g: Graph, stats: DegreeStats) -> list[dict]:
    peeled = core_peel(g)
    again = core_peel(peeled.core)
    rows = [_check("core_peel_idempotent", again.core == peeled.core, 0.0)]
    if stats.hoory_lambda is not None and stats.dlog_mean is not None:
        dev = abs(math.log(stats.hoory_lambda) - stats.dlog_mean / stats.d_av)
        rows.append(_check("hoory_lambda_two_forms", dev <= 1e-12, dev))
    return rows


def _suite_walks(g: Graph, kmax: int, report: spectra.EigenReport,
                 mreport: spectra.EigenReport | None) -> list[dict]:
    # entry k of a walk table does not depend on the length the iteration runs to
    n = g.vertex_count
    worst = 0.0
    columns = zip(*(walks.closed_walk_counts(g, x, kmax).counts for x in range(n)))
    for k, column in enumerate(columns):
        mom = spectra.moment(report.measure, k)
        worst = max(worst, abs(mom - sum(column) / n) / max(1.0, abs(mom)))
    rows = [_check("adjacency_moment_walk_equivalence", worst <= 1e-9, worst)]
    if mreport is not None:
        worst_m = 0.0
        columns = zip(*(walks.srw_return_probs(g, x, kmax) for x in range(n)))
        for k, column in enumerate(columns):
            mom = spectra.moment(mreport.measure, k)
            worst_m = max(worst_m, abs(mom - sum(column) / n))
        rows.append(_check("markov_moment_return_equivalence", worst_m <= 1e-9, worst_m))
    return rows


def _suite_lifting(g: Graph, cover_rows: list[list[int]]) -> list[dict]:
    ok = all(row.ok for base in range(min(g.vertex_count, 16))
             for row in cover_mod.verify_lifting(g, cover_rows, base))
    return [_check(f"lifting_w2k_cover_le_base_k{len(cover_rows[0]) - 1}", ok,
                   0.0 if ok else 1.0)]


def _suite_nbw(g: Graph, stats: DegreeStats) -> list[dict]:
    report = nbw.stationarity_check(g)
    dev = abs(nbw.nbw_entropy_rate(g) - nbw.nbw_entropy(stats))
    return [
        _check("nbw_stationarity", report.stationarity_deviation <= 1e-12,
               report.stationarity_deviation),
        _check("nbw_reversal_invariance", report.reversal_deviation <= 1e-12,
               report.reversal_deviation),
        _check("nbw_entropy_consistency", dev <= 1e-12, dev),
    ]


def _suite_bounds(g: Graph, stats: DegreeStats, cover_rows: list[list[int]],
                  measure: spectra.SpectralMeasure) -> list[dict]:
    rows = []
    b1, b2 = bounds_mod.tree_spectral_radius_bounds(stats)
    rows.append(_check("jensen_tree_radius_b1_ge_b2", b1 >= b2 - 1e-12, max(0.0, b2 - b1)))
    dev = abs(bounds_mod.hoory_bound(stats) - b1)
    rows.append(_check("hoory_equals_entropy_bound", dev <= 1e-12, dev))
    rho = spectra.sigma(measure, 1)
    moments = [sum(column) / g.vertex_count for column in list(zip(*cover_rows))[1:]]
    rho_est = cover_mod.rho_cover_estimate(cover_rows)[-1]
    ok = True
    for k, moment in enumerate(moments, 1):
        for i in range(1, 20):
            a = rho_est * i / 20.0
            lower = bounds_mod.tail_mass_lower_bound(moment, rho, a, k)
            ok &= spectra.tail_mass(measure, a) >= lower - 1e-12
    rows.append(_check("cover_tail_mass_bound", ok, 0.0 if ok else 1.0))
    eps = 0.3 * rho_est
    c, big_k = bounds_mod.tail_mass_constant(eps, rho, moments, rho_est)
    mass = spectra.tail_mass(measure, rho_est - eps)
    rows.append(_check("tail_mass_constant_self_consistency", mass >= c > 0.0, max(0.0, c - mass),
                       note=f"K={big_k}"))
    return rows


SUITES = ("graph", "walks", "lifting", "nbw", "bounds", "all")


def _run_suites(g: Graph, suite: str, kmax: int, adjacency: spectra.EigenReport | None = None,
                markov: spectra.EigenReport | None = None,
                cover_rows: list[list[int]] | None = None) -> list[dict]:
    """Rows of the selected suites. A spectrum, or the ``cover_walk_rows`` of order
    min(kmax, 4), that is not passed in is computed once, if a suite needs it."""
    leafless = g.vertex_count > 0 and g.min_degree >= 2
    connected = g.is_connected()
    if suite in ("nbw", "bounds") and not leafless:
        raise GraphInputError(f"suite {suite!r} requires a leafless graph (min degree >= 2)")
    if suite in ("lifting", "bounds") and not connected:
        raise GraphInputError(f"suite {suite!r} requires a connected graph")
    stats = degree_stats(g)
    rows: list[dict] = []
    wanted = SUITES[:-1] if suite == "all" else (suite,)
    for name in wanted:
        if name in ("nbw", "bounds") and not leafless:
            rows.append(_check(f"{name}_suite_skipped_leaf_present", True, None,
                               note="skipped: graph has a leaf"))
            continue
        if name in ("lifting", "bounds") and not connected:
            rows.append(_check(f"{name}_suite_skipped_disconnected", True, None,
                               note="skipped: graph is disconnected"))
            continue
        if name in ("walks", "bounds") and adjacency is None:
            adjacency = spectra.adjacency_spectrum(g)
        if name == "walks" and markov is None and g.min_degree >= 1:
            markov = spectra.markov_spectrum(g)
        if name in ("lifting", "bounds") and cover_rows is None:
            cover_rows = cover_mod.cover_walk_rows(g, min(kmax, 4))
        if name == "graph":
            rows.extend(_suite_graph(g, stats))
        elif name == "walks":
            rows.extend(_suite_walks(g, min(kmax, 6), adjacency, markov))
        elif name == "lifting":
            rows.extend(_suite_lifting(g, cover_rows))
        elif name == "nbw":
            rows.extend(_suite_nbw(g, stats))
        elif name == "bounds":
            rows.extend(_suite_bounds(g, stats, cover_rows, adjacency.measure))
    return rows


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------


def _spectrum_summary(report: spectra.EigenReport | None) -> dict | None:
    """sigma_1..5 and tail masses on a 10-point grid up to sigma_1 (adjacency) or 1 (Markov)."""
    if report is None:
        return None
    sig = [spectra.sigma(report.measure, j) for j in range(1, 6)]
    top = sig[0] if report.measure.kind == "adjacency" else 1.0
    grid = [round(top * i / 10.0, 12) for i in range(10)]
    return {
        "sigma_1_to_5": sig,
        "tail_mass_grid": [[a, spectra.tail_mass(report.measure, a)] for a in grid],
        "max_residual": report.max_residual,
        "provenance": "exact",
    }


def _cmd_analyze(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    stats = degree_stats(g)
    report_adj = spectra.adjacency_spectrum(g)
    report_markov = spectra.markov_spectrum(g) if g.min_degree >= 1 else None
    bound_values: dict[str, object] = {
        "alon_boppana_degree_bound": {
            "value": 2.0 * math.sqrt(max(stats.d_av - 1.0, 0.0)),
            "provenance": "exact",
        }
    }
    if stats.min_degree >= 2:
        b1, b2 = bounds_mod.tree_spectral_radius_bounds(stats)
        s1, s2 = bounds_mod.tree_srw_radius_bounds(stats)
        r = cfg.r if cfg.r is not None else 3
        g1, g2 = bounds_mod.sphere_growth_bounds(stats, r)
        bound_values.update(
            {
                "tree_radius_entropy_bound": {"value": b1, "provenance": "exact"},
                "tree_radius_mean_degree_bound": {"value": b2, "provenance": "exact"},
                "hoory_bound": {"value": bounds_mod.hoory_bound(stats), "provenance": "exact"},
                "srw_radius_entropy_bound": {"value": s1, "provenance": "exact"},
                "srw_radius_moment_bound": {"value": s2, "provenance": "exact"},
                "srw_tail_threshold": {"value": bounds_mod.srw_tail_threshold(stats),
                                       "provenance": "exact"},
                f"sphere_growth_bounds_r{r}": {"value": [g1, g2], "provenance": "exact"},
            }
        )
    else:
        bound_values["note"] = "degree-moment bounds undefined: graph has a leaf"
    checks = _run_suites(g, "all", cfg.kmax if cfg.kmax is not None else 4,
                         report_adj, report_markov)
    payload = {
        "schema": f"{SCHEMA_PREFIX}.analyze.v1",
        "config": cfg.to_dict(),
        "graph": {"n": g.vertex_count, "m": g.edge_count, "connected": g.is_connected()},
        "degree_stats": asdict(stats),
        "spectra": {"adjacency": _spectrum_summary(report_adj),
                    "markov": _spectrum_summary(report_markov)},
        "bounds": bound_values,
        "checks": checks,
    }
    _write_report(payload, cfg, csv_text=spectra.eigenvalues_csv(report_adj.measure))
    return 0


def _cmd_cover(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    if cfg.radius is None:
        raise GraphInputError("cover requires --radius")
    kmax = min(cfg.kmax if cfg.kmax is not None else cfg.radius, cfg.radius)
    ball_size = cover_mod.cover_ball_size(g, 0, cfg.radius)
    rows = cover_mod.cover_walk_rows(g, kmax)
    counts = [0] * (2 * kmax + 1)  # closed walks in a tree have even length
    counts[::2] = rows[0]
    estimate = cover_mod.rho_cover_estimate(rows)
    payload = {
        "schema": f"{SCHEMA_PREFIX}.cover.v1",
        "config": cfg.to_dict(),
        "graph": {"n": g.vertex_count, "m": g.edge_count},
        "walk_table": {"base": 0, "counts": counts, "provenance": "exact"},
        "rho_estimate": {
            "values": estimate,
            "provenance": "truncated-k",
            "note": "lower estimate of the cover spectral radius; no extrapolation",
        },
        "ball": {"vertices": ball_size, "radius": cfg.radius},
    }
    csv_text = "".join(f"{k},{c}\n" for k, c in enumerate(counts))
    _write_report(payload, cfg, csv_text=csv_text)
    return 0


def _cmd_sample(cfg: RunConfig) -> int:
    pi = ensembles.DegreeDistribution.from_string(cfg.pi)
    stat = cfg.stat
    r = cfg.r if cfg.r is not None else 3
    exact: float | None = None
    unread = "r" if stat == "walks" else "k"
    if getattr(cfg, unread) is not None:
        raise GraphInputError(f"--stat {stat} does not read --{unread}")
    if stat == "walks":
        if cfg.k is None:
            raise GraphInputError("--stat walks requires --k")
        est = ensembles.estimate_walk_moment(pi, cfg.k, cfg.samples, cfg.seed)
        if pi.is_point_mass():
            exact = float(ensembles.regular_tree_walks(pi.support[0], cfg.k)[cfg.k])
    else:
        est, exact = ensembles.estimate_sphere(pi, r, cfg.samples, cfg.seed)
    payload = {
        "schema": f"{SCHEMA_PREFIX}.sample.v1",
        "config": cfg.to_dict(),
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "exact": exact,
        "provenance": "monte-carlo",
    }
    if stat == "sphere" and pi.min_degree >= 2:
        b1, _ = bounds_mod.sphere_growth_bounds(pi, r)
        payload["growth_bound"] = bounds_mod.BoundReport(
            name="sphere_growth_lower_bound",
            bound=b1,
            observed=est.mean,
            bound_provenance="exact",
            observed_provenance="monte-carlo",
            stderr=est.stderr,
        ).to_dict()
    _write_report(payload, cfg)
    return 0


def _cmd_census(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    if cfg.radius is None:
        raise GraphInputError("census requires --radius")
    census = ensembles.ball_census(g, cfg.radius)
    classes = sorted(census.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    payload = {
        "schema": f"{SCHEMA_PREFIX}.census.v1",
        "config": cfg.to_dict(),
        "radius": census.radius,
        "total": census.total,
        "exact": census.exact,
        "classes": [{"code": code, "count": count} for code, count in classes],
    }
    buffer = io.StringIO()  # the csv module quotes codes that contain commas
    csv.writer(buffer, lineterminator="\n").writerows(classes)
    _write_report(payload, cfg, csv_text=buffer.getvalue())
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    rows = _run_suites(g, cfg.suite, cfg.kmax if cfg.kmax is not None else 4)
    failed = 0
    for row in rows:
        status = "PASS" if row["pass"] else "FAIL"
        failed += 0 if row["pass"] else 1
        dev = "" if row["deviation"] is None else f" deviation={row['deviation']:.3e}"
        note = f" ({row['note']})" if row["note"] else ""
        sys.stdout.write(f"{status} {row['name']}{dev}{note}\n")
    sys.stdout.write(f"{len(rows) - failed}/{len(rows)} checks passed\n")
    return 0 if failed == 0 else 1


def _cmd_report(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    radius = cfg.radius if cfg.radius is not None else 4
    kmax = cfg.kmax if cfg.kmax is not None else 4
    # coefficient j of every branch series depends only on those below j, so slices are exact
    rows = cover_mod.cover_walk_rows(g, max(radius, min(kmax, 4)))
    estimate = cover_mod.rho_cover_estimate([row[:radius + 1] for row in rows])
    checks = _run_suites(g, "all", kmax, cover_rows=[row[:min(kmax, 4) + 1] for row in rows])
    stats = degree_stats(g)
    payload = {
        "schema": f"{SCHEMA_PREFIX}.report.v1",
        "config": cfg.to_dict(),
        "graph": {"n": g.vertex_count, "m": g.edge_count},
        "degree_stats": asdict(stats),
        "rho_cover_estimate": {"values": estimate, "provenance": "truncated-k"},
        "checks": checks,
        "all_checks_pass": all(row["pass"] for row in checks),
    }
    _write_report(payload, cfg)
    return 0


# ----------------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------------


_FLAGS = {
    "what": {"choices": ("ugw",)},
    "--input": {"help": "edge-list file ('u v' per line, '#' comments)"},
    "--gen": {"help": "generator spec family:param[:param]"},
    "--pi": {"required": True, "help": 'degree law, e.g. "2:0.5,3:0.5"'},
    "--samples": {"type": int, "default": 1000},
    "--stat": {"choices": ("walks", "sphere"), "default": "walks"},
    "--k": {"type": int, "help": "walk-length parameter (counts walks of length 2k)"},
    "--r": {"type": int, "help": "sphere radius (default 3)"},
    "--kmax": {"type": int},
    "--radius": {"type": int},
    "--suite": {"choices": SUITES, "default": "all"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--out": {"default": "-", "help": "output path, '-' for stdout"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--pretty": {"action": "store_true", "help": "render a human table"},
}
_GRAPH = ("--input", "--gen", "--seed")
_OUTPUT = ("--out", "--pretty")

# each subcommand registers only the flags it reads, so any other flag exits 2;
# --format only where there is a CSV rendering, and prefix matching is off
_SUBCOMMANDS = {
    "analyze": ("degree stats, spectra, bounds, self-checks",
                _GRAPH + _OUTPUT + ("--format", "--kmax", "--r")),
    "cover": ("truncated universal cover walk table and radius estimate",
              _GRAPH + _OUTPUT + ("--format", "--kmax", "--radius")),
    "sample": ("Monte Carlo estimates over random trees",
               ("what", "--pi", "--samples", "--stat", "--k", "--r", "--seed") + _OUTPUT),
    "census": ("canonical rooted-ball census", _GRAPH + _OUTPUT + ("--format", "--radius")),
    "verify": ("run a check suite and print pass/fail lines", _GRAPH + ("--kmax", "--suite")),
    "report": ("combined analyze + cover + checks report",
               _GRAPH + _OUTPUT + ("--kmax", "--radius")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unispec",
        allow_abbrev=False,
        description="Spectra, walk counts, universal covers, and NBW statistics of finite graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    values = {k: v for k, v in vars(args).items() if k in fields}
    cfg = RunConfig(**values)
    # radius-0 balls have a census; cover and report need walk lengths 2k with k >= 1
    radius_min = 0 if cfg.subcommand == "census" else 1
    for name in ("radius", "kmax", "samples", "k", "r"):
        value = getattr(cfg, name)
        least = radius_min if name == "radius" else 1
        if value is not None and value < least:
            word = "nonnegative" if least == 0 else "positive"
            raise GraphInputError(f"--{name} must be {word}, got {value}")
    if cfg.seed < 0:
        raise GraphInputError(f"--seed must be nonnegative, got {cfg.seed}")
    if cfg.pretty and cfg.format == "csv":
        raise GraphInputError("--pretty renders JSON; it cannot be combined with --format csv")
    return cfg


_COMMANDS = {
    "analyze": _cmd_analyze,
    "cover": _cmd_cover,
    "sample": _cmd_sample,
    "census": _cmd_census,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
