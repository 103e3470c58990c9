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
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

from . import bounds as bounds_mod
from . import cover as cover_mod
from . import ensembles, nbw, spectra, walks
from .graph import (
    DegreeDistribution,
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


def _pretty_lines(payload: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(payload, dict):
        items = [(f"{key}:", payload[key]) for key in sorted(payload)]
    else:
        items = [("-", value) for value in payload]
    lines = []
    for label, value in items:
        if isinstance(value, (dict, list)):
            lines.append(pad + label)
            lines.extend(_pretty_lines(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {value}")
    return lines


def _write_report(cfg: RunConfig, body: dict, csv_text: str | None = None) -> int:
    """Stamp ``body`` with the subcommand's schema and the resolved config, write it, return 0."""
    payload = {"schema": f"{SCHEMA_PREFIX}.{cfg.subcommand}.v1", "config": asdict(cfg), **body}
    if cfg.format == "csv":  # only subcommands with a CSV rendering register --format
        _emit(csv_text, cfg.out)
    elif cfg.pretty:
        text = "\n".join(_pretty_lines(payload)) + "\n"
        if cfg.out == "-":
            _emit(text, "-")
        else:
            _emit(_dump_json(payload), cfg.out)
            sys.stdout.write(text)
    else:
        _emit(_dump_json(payload), cfg.out)
    return 0


def _solved_spectrum(solve: Callable, g: Graph, matrix) -> spectra.Spectrum:
    return spectra._spectrum(*solve(g, matrix))


# ----------------------------------------------------------------------------
# Check suites (shared by verify, analyze and report)
# ----------------------------------------------------------------------------


class _Inputs:
    """What one command reads of graph ``g``, each field computed on first read: a command
    solves each spectrum at most once and makes at most one ``cover_walk_rows`` call, of
    order ``cover_order``. The suites read its first min(kmax, 4) + 1 columns; coefficient j
    of every branch series depends only on those below j, so slices are exact.

    The dense solves run on a one-worker executor while the command's thread goes on with
    work that reads no spectrum; the future of each kind, kept in start order, holds its
    ``Spectrum`` or its failure. Use it as a context manager: leaving it shuts the executor
    down and waits for its worker."""

    def __init__(self, g: Graph, kmax: int, cover_order: int):
        self.g, self.kmax, self.cover_order = g, kmax, cover_order
        self._solver = ThreadPoolExecutor(max_workers=1, thread_name_prefix="unispec-dense-solves")
        self._solves: dict[str, Future] = {}  # kind -> future of its Spectrum, in start order

    def __enter__(self) -> _Inputs:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._solver.shutdown(wait=True)
        failed = [f.exception() for f in self._solves.values() if f.exception() is not None]
        if failed and failed[0] is not exc:
            raise failed[0]  # the first failed solve came first when the solves ran in line

    def solve_spectra(self, *kinds: str) -> None:
        """Check the sizes of the solves of ``kinds`` ("adjacency", "markov") not started yet,
        then submit those solves to the executor. Call it where the spectra are first needed,
        so each error surfaces where the solve ran in line.

        The worker calls no public function, since the span tracer of ``perfbench/tracer.py``
        assumes one thread. The adjacency matrix is built here, on the calling thread, so the
        worker goes straight into ``eigh``, which runs without the interpreter lock. The one
        worker runs the solves in submission order, so the Markov solve scales the shared
        matrix in place only after the adjacency solve has read it."""
        kinds = [k for k in kinds if k not in self._solves
                 and (k == "adjacency" or self.g.min_degree >= 1)]
        for kind in kinds:
            spectra._check_dense(self.g, f"{kind}_spectrum")
        if kinds:
            matrix = self.g.adjacency_matrix()
            for kind in kinds:
                solve = spectra._solve if kind == "adjacency" else spectra._markov
                self._solves[kind] = self._solver.submit(_solved_spectrum, solve, self.g, matrix)

    def _spectrum(self, kind: str) -> spectra.Spectrum:
        self.solve_spectra(kind)
        return self._solves[kind].result()

    @cached_property
    def stats(self) -> DegreeStats:
        return degree_stats(self.g)

    @property
    def adjacency(self) -> spectra.Spectrum:
        return self._spectrum("adjacency")

    @property
    def markov(self) -> spectra.Spectrum | None:
        return self._spectrum("markov") if self.g.min_degree >= 1 else None

    @cached_property
    def cover_rows(self) -> list[list[int]]:
        return cover_mod.cover_walk_rows(self.g, self.cover_order)

    @cached_property
    def suite_rows(self) -> list[list[int]]:
        return [row[:min(self.kmax, 4) + 1] for row in self.cover_rows]


def _check(name: str, ok: bool, deviation: float | None = None, note: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "deviation": deviation, "note": note}


def _suite_graph(inputs: _Inputs) -> list[dict]:
    stats = inputs.stats
    peeled = core_peel(inputs.g)
    again = core_peel(peeled.core)
    rows = [_check("core_peel_idempotent", again.core == peeled.core, 0.0)]
    if stats.hoory_lambda is not None and stats.dlog_mean is not None:
        dev = abs(math.log(stats.hoory_lambda) - stats.dlog_mean / stats.d_av)
        rows.append(_check("hoory_lambda_two_forms", dev <= 1e-12, dev))
    return rows


def _suite_walks(inputs: _Inputs) -> Callable[[], list[dict]]:
    # entry k of a walk table does not depend on the length the iteration runs to; Markov
    # moments lie in [-1, 1], so their relative deviation is the absolute one
    g, kmax = inputs.g, min(inputs.kmax, 6)
    inputs.solve_spectra("adjacency", "markov")
    checks = [("adjacency_moment_walk_equivalence", "adjacency", walks.closed_walk_counts)]
    if g.min_degree >= 1:
        checks.append(("markov_moment_return_equivalence", "markov", walks.srw_return_probs))
    columns = [list(zip(*(series(g, x, kmax) for x in range(g.vertex_count))))
               for _, _, series in checks]

    def rows() -> list[dict]:
        out = []
        for (name, kind, _), table in zip(checks, columns):
            spectrum = getattr(inputs, kind)
            worst = 0.0
            for k, column in enumerate(table):
                mom = spectra.moment(spectrum, k)
                worst = max(worst, abs(mom - sum(column) / g.vertex_count) / max(1.0, abs(mom)))
            out.append(_check(name, worst <= 1e-9, worst))
        return out

    return rows


def _suite_lifting(inputs: _Inputs) -> list[dict]:
    g, cover_rows = inputs.g, inputs.suite_rows
    ok = all(row.ok for base in range(min(g.vertex_count, 16))
             for row in cover_mod.verify_lifting(g, cover_rows, base))
    return [_check(f"lifting_w2k_cover_le_base_k{len(cover_rows[0]) - 1}", ok,
                   0.0 if ok else 1.0)]


def _suite_nbw(inputs: _Inputs) -> list[dict]:
    g = inputs.g
    report = nbw.stationarity_check(g)
    dev = abs(nbw.nbw_entropy_rate(g) - nbw.nbw_entropy(inputs.stats))
    return [
        _check("nbw_stationarity", report.stationarity_deviation <= 1e-12,
               report.stationarity_deviation),
        _check("nbw_reversal_invariance", report.reversal_deviation <= 1e-12,
               report.reversal_deviation),
        _check("nbw_entropy_consistency", dev <= 1e-12, dev),
    ]


def _suite_bounds(inputs: _Inputs) -> list[dict]:
    inputs.solve_spectra("adjacency")
    stats, cover_rows = inputs.stats, inputs.suite_rows
    rows = []
    b1, b2 = bounds_mod.tree_spectral_radius_bounds(stats)
    rows.append(_check("jensen_tree_radius_b1_ge_b2", b1 >= b2 - 1e-12, max(0.0, b2 - b1)))
    dev = abs(bounds_mod.hoory_bound(stats) - b1)
    rows.append(_check("hoory_equals_entropy_bound", dev <= 1e-12, dev))
    adjacency = inputs.adjacency
    rho = spectra.sigma(adjacency, 1)
    moments = [sum(column) / inputs.g.vertex_count for column in list(zip(*cover_rows))[1:]]
    rho_est = cover_mod.rho_cover_estimate(cover_rows)[-1]
    levels = [rho_est * i / 20.0 for i in range(1, 20)]
    masses = [spectra.tail_mass(adjacency, a) for a in levels]
    ok = True
    for k, moment in enumerate(moments, 1):
        for a, mass in zip(levels, masses):
            ok &= mass >= bounds_mod.tail_mass_lower_bound(moment, rho, a, k) - 1e-12
    rows.append(_check("cover_tail_mass_bound", ok, 0.0 if ok else 1.0))
    eps = 0.3 * rho_est
    c, big_k = bounds_mod.tail_mass_constant(eps, rho, moments, rho_est)
    mass = spectra.tail_mass(adjacency, rho_est - eps)
    rows.append(_check("tail_mass_constant_self_consistency", mass >= c > 0.0, max(0.0, c - mass),
                       note=f"K={big_k}"))
    return rows


# name -> (needs a leafless graph, needs a connected graph, suite), in report order; a suite
# returns its rows, or, if it compares against a spectrum, a callable that returns them once
# the suites after it have run, so they run while the spectra are solved
_SUITE_TABLE = {
    "graph": (False, False, _suite_graph),
    "walks": (False, False, _suite_walks),
    "lifting": (False, True, _suite_lifting),
    "nbw": (True, False, _suite_nbw),
    "bounds": (True, True, _suite_bounds),
}
SUITES = (*_SUITE_TABLE, "all")


def _unmet(inputs: _Inputs, name: str) -> tuple[str, str, str] | None:
    """(skip-row tag, requirement, reason) of the first graph condition of suite ``name``
    that the graph fails, a leaf before a disconnection; None if it meets them all."""
    needs_leafless, needs_connected, _ = _SUITE_TABLE[name]
    if needs_leafless and inputs.g.min_degree < 2:
        return "leaf_present", "a leafless graph (min degree >= 2)", "graph has a leaf"
    if needs_connected and not inputs.g.is_connected():
        return "disconnected", "a connected graph", "graph is disconnected"
    return None


def _run_suites(inputs: _Inputs, suite: str) -> list[dict]:
    """Rows of the selected suites. A suite whose graph condition fails raises when chosen
    alone and writes a skip row under ``all``."""
    unmet = None if suite == "all" else _unmet(inputs, suite)
    if unmet:
        raise GraphInputError(f"suite {suite!r} requires {unmet[1]}")
    inputs.stats  # noqa: B018 - the degree stats reject an empty graph before any suite runs
    parts: list[list[dict] | Callable[[], list[dict]]] = []
    for name in _SUITE_TABLE if suite == "all" else (suite,):
        unmet = _unmet(inputs, name)
        if unmet:
            parts.append([_check(f"{name}_suite_skipped_{unmet[0]}", True, None,
                                 note=f"skipped: {unmet[2]}")])
        else:
            parts.append(_SUITE_TABLE[name][2](inputs))
    return [row for part in parts for row in (part() if callable(part) else part)]


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------


def _spectrum_summary(spectrum: spectra.Spectrum, top: float) -> dict:
    """sigma_1..5 and tail masses on the 10-point grid top * i / 10, i = 0..9."""
    grid = [round(top * i / 10.0, 12) for i in range(10)]
    return {
        "sigma_1_to_5": [spectra.sigma(spectrum, j) for j in range(1, 6)],
        "tail_mass_grid": [[a, spectra.tail_mass(spectrum, a)] for a in grid],
        "max_residual": spectrum.max_residual,
        "provenance": "exact",
    }


def _cmd_analyze(cfg: RunConfig) -> int:
    kmax = cfg.kmax if cfg.kmax is not None else 4
    with _Inputs(_resolve_graph(cfg), kmax, min(kmax, 4)) as inputs:
        g, stats = inputs.g, inputs.stats
        inputs.solve_spectra("adjacency", "markov")
        values = {"alon_boppana_degree_bound": bounds_mod.alon_boppana_degree_bound(stats)}
        if stats.min_degree >= 2:
            b1, b2 = bounds_mod.tree_spectral_radius_bounds(stats)
            s1, s2 = bounds_mod.tree_srw_radius_bounds(stats)
            r = cfg.r if cfg.r is not None else 3
            values.update({
                "tree_radius_entropy_bound": b1,
                "tree_radius_mean_degree_bound": b2,
                "hoory_bound": bounds_mod.hoory_bound(stats),
                "srw_radius_entropy_bound": s1,
                "srw_radius_moment_bound": s2,
                "srw_tail_threshold": s2,
                f"sphere_growth_bounds_r{r}": list(bounds_mod.sphere_growth_bounds(stats, r)),
            })
        bound_rows: dict[str, object] = {
            name: {"value": value, "provenance": "exact"} for name, value in values.items()}
        if stats.min_degree < 2:
            bound_rows["note"] = "degree-moment bounds undefined: graph has a leaf"
        checks = _run_suites(inputs, "all")
        adjacency, markov = inputs.adjacency, inputs.markov
    return _write_report(cfg, {
        "graph": {"n": g.vertex_count, "m": g.edge_count, "connected": g.is_connected()},
        "degree_stats": asdict(stats),
        "spectra": {
            "adjacency": _spectrum_summary(adjacency, spectra.sigma(adjacency, 1)),
            "markov": None if markov is None else _spectrum_summary(markov, 1.0),
        },
        "bounds": bound_rows,
        "checks": checks,
    }, csv_text=spectra.eigenvalues_csv(adjacency))


def _cmd_cover(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    if cfg.radius is None:
        raise GraphInputError("cover requires --radius")
    kmax = min(cfg.kmax if cfg.kmax is not None else cfg.radius, cfg.radius)
    types = cover_mod._cone_types(g, cfg.radius)  # radius >= kmax rounds keep the rows exact
    ball_size = cover_mod._ball_size(*types, 0, cfg.radius)
    rows = cover_mod._walk_rows(*types, kmax)
    counts = [0] * (2 * kmax + 1)  # closed walks in a tree have even length
    counts[::2] = rows[0]
    return _write_report(cfg, {
        "graph": {"n": g.vertex_count, "m": g.edge_count},
        "walk_table": {"base": 0, "counts": counts, "provenance": "exact"},
        "rho_estimate": {
            "values": cover_mod.rho_cover_estimate(rows),
            "provenance": "truncated-k",
            "note": "lower estimate of the cover spectral radius; no extrapolation",
        },
        "ball": {"vertices": ball_size, "radius": cfg.radius},
    }, csv_text="".join(f"{k},{c}\n" for k, c in enumerate(counts)))


def _cmd_sample(cfg: RunConfig) -> int:
    pi = DegreeDistribution.from_string(cfg.pi)
    stat = cfg.stat
    r = cfg.r if cfg.r is not None else 3
    k = cfg.k if cfg.k is not None else 3
    exact: float | None = None
    unread = "r" if stat == "walks" else "k"
    if getattr(cfg, unread) is not None:
        raise GraphInputError(f"--stat {stat} does not read --{unread}")
    if stat == "walks":
        est = ensembles.estimate_walk_moment(pi, k, cfg.samples, cfg.seed)
        if pi.is_point_mass():
            exact = float(ensembles.regular_tree_walks(pi.support[0], k)[k])
    else:
        est, exact = ensembles.estimate_sphere(pi, r, cfg.samples, cfg.seed)
    body = {
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "exact": exact,
        "provenance": "monte-carlo",
    }
    if stat == "sphere" and pi.min_degree >= 2:
        b1, _ = bounds_mod.sphere_growth_bounds(pi, r)
        body["growth_bound"] = {
            "name": "sphere_growth_lower_bound",
            "bound": b1,
            "observed": est.mean,
            "slack": est.mean - b1,
            "passed": None,  # a Monte Carlo mean neither passes nor fails a bound
            "consistent_within_error": est.mean + 3.0 * est.stderr >= b1,
            "bound_provenance": "exact",
            "observed_provenance": "monte-carlo",
            "stderr": est.stderr,
            "note": "",
        }
    return _write_report(cfg, body)


def _cmd_census(cfg: RunConfig) -> int:
    g = _resolve_graph(cfg)
    if cfg.radius is None:
        raise GraphInputError("census requires --radius")
    census = ensembles.ball_census(g, cfg.radius)
    classes = sorted(census.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    buffer = io.StringIO()  # the csv module quotes codes that contain commas
    csv.writer(buffer, lineterminator="\n").writerows(classes)
    return _write_report(cfg, {
        "radius": census.radius,
        "total": census.total,
        "exact": census.exact,
        "classes": [{"code": code, "count": count} for code, count in classes],
    }, csv_text=buffer.getvalue())


def _cmd_verify(cfg: RunConfig) -> int:
    kmax = cfg.kmax if cfg.kmax is not None else 4
    with _Inputs(_resolve_graph(cfg), kmax, min(kmax, 4)) as inputs:
        rows = _run_suites(inputs, cfg.suite)
    for row in rows:
        dev = "" if row["deviation"] is None else f" deviation={row['deviation']:.3e}"
        note = f" ({row['note']})" if row["note"] else ""
        sys.stdout.write(f"{'PASS' if row['pass'] else 'FAIL'} {row['name']}{dev}{note}\n")
    passed = sum(row["pass"] for row in rows)
    sys.stdout.write(f"{passed}/{len(rows)} checks passed\n")
    return 0 if passed == len(rows) else 1


def _cmd_report(cfg: RunConfig) -> int:
    radius = cfg.radius if cfg.radius is not None else 4
    kmax = cfg.kmax if cfg.kmax is not None else 4
    with _Inputs(_resolve_graph(cfg), kmax, max(radius, min(kmax, 4))) as inputs:
        estimate = cover_mod.rho_cover_estimate([row[:radius + 1] for row in inputs.cover_rows])
        checks = _run_suites(inputs, "all")
    return _write_report(cfg, {
        "graph": {"n": inputs.g.vertex_count, "m": inputs.g.edge_count},
        "degree_stats": asdict(inputs.stats),
        "rho_cover_estimate": {"values": estimate, "provenance": "truncated-k"},
        "checks": checks,
        "all_checks_pass": all(row["pass"] for row in checks),
    })


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
    "--k": {"type": int, "help": "walk-length parameter (counts walks of length 2k; default 3)"},
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

# name -> (help, flags, handler); each subcommand registers only the flags it reads,
# so any other flag exits 2; --format only where there is a CSV rendering, and prefix
# matching is off
_SUBCOMMANDS = {
    "analyze": ("degree stats, spectra, bounds, self-checks",
                _GRAPH + _OUTPUT + ("--format", "--kmax", "--r"), _cmd_analyze),
    "cover": ("truncated universal cover walk table and radius estimate",
              _GRAPH + _OUTPUT + ("--format", "--kmax", "--radius"), _cmd_cover),
    "sample": ("Monte Carlo estimates over random trees",
               ("what", "--pi", "--samples", "--stat", "--k", "--r", "--seed") + _OUTPUT,
               _cmd_sample),
    "census": ("canonical rooted-ball census", _GRAPH + _OUTPUT + ("--format", "--radius"),
               _cmd_census),
    "verify": ("run a check suite and print pass/fail lines", _GRAPH + ("--kmax", "--suite"),
               _cmd_verify),
    "report": ("combined analyze + cover + checks report",
               _GRAPH + _OUTPUT + ("--kmax", "--radius"), _cmd_report),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unispec",
        allow_abbrev=False,
        description="Spectra, walk counts, universal covers, and NBW statistics of finite graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, _) in _SUBCOMMANDS.items():
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


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return _SUBCOMMANDS[cfg.subcommand][2](cfg)
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
