"""Benchmark of the unispec batch CLI, one workload per process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; unispec is imported from ``src/``.
A run generates the workload's input files from the seed, then repeats the
workload's batch of CLI jobs (in-process ``unispec.cli.run`` calls with stdout
captured) until ``--seconds`` is used up, and checks every report with an
oracle from ``oracles.py``. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it spends half the time untraced and half traced
and reports per-layer metrics (see ``tracer.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A per-run record with the
environment, every job's timing, exit code and report sha256 goes to
``perfbench/results/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import probe
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path("perfbench") / "work"
RESULTS = Path("perfbench") / "results"
SETUP_ROUNDS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import numpy, unispec.cli; print(time.perf_counter() - t)"
)
# a traced job's layer self times must cover its wall time up to this much
TRACE_SUM_TOLERANCE = (0.01, 0.002)  # (share of wall, seconds)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def setup_round(name: str, seed: int) -> tuple[float, workloads.Workload]:
    """One set-up as a user pays it: import numpy and unispec in a fresh
    interpreter, then generate and write the workload's input files."""
    child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], capture_output=True,
                           text=True, timeout=120, check=True)
    start = time.perf_counter()
    workdir = WORKDIR / name
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed, workdir)
    for path, (n, edges) in wl.files.items():
        workloads.write_edge_list(Path(path), n, edges)
    return float(child.stdout) + time.perf_counter() - start, wl


def run_job(job: workloads.Job, cli) -> dict:
    """Run one job beside a speed probe and check its report."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with probe.Probe() as speed:
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(job.argv)
        except Exception as exc:  # noqa: BLE001 - a crashing job is a failed operation
            code, err = None, io.StringIO(repr(exc))
        wall = time.perf_counter() - start
    text = out.getvalue()
    rec = {"job": job.name, "wall_s": wall, "speed_factor": speed.factor,
           "norm_s": wall / speed.factor, "exit": code,
           "sha256": hashlib.sha256(text.encode()).hexdigest(), "problems": []}
    if code != 0:
        rec["problems"].append(f"exit {code}: {err.getvalue().strip()[-500:]}")
        return rec
    try:
        report = json.loads(text)
        rec["problems"] = job.check(report)
        if isinstance(report.get("exact"), bool):
            rec["exact"] = report["exact"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        rec["problems"].append(f"report does not parse as expected: {exc!r}")
    return rec


def run_batches(wl, cli, budget: float, first_sha: dict, traced: bool) -> list[dict]:
    """Run the job batch until ``budget`` seconds would be exceeded (at least once).

    Every report must be byte-identical to the first report of the same job in
    this process, traced or not.
    """
    batches = []
    start = time.perf_counter()
    while True:
        batch = {"jobs": [], "traced": traced}
        inst = tracing.install(tracing.Tracer()) if traced else None
        try:
            for job_id, job in enumerate(wl.jobs):
                if inst:
                    inst.tracer.job = job_id
                rec = run_job(job, cli)
                sha = first_sha.setdefault(job.name, rec["sha256"])
                if rec["sha256"] != sha:
                    rec["problems"].append("report bytes differ from this job's first report")
                batch["jobs"].append(rec)
        finally:
            if inst:
                tracing.uninstall(inst)
        batch["wall_s"] = sum(r["wall_s"] for r in batch["jobs"])
        batch["norm_s"] = sum(r["norm_s"] for r in batch["jobs"])
        if inst:
            factors = {i: r["speed_factor"] for i, r in enumerate(batch["jobs"])}
            batch["layers"] = tracing.layer_metrics(inst, factors)
            batch["tracer"] = inst.tracer
            check_trace_sum(batch)
        batches.append(batch)
        elapsed = time.perf_counter() - start
        if elapsed * (len(batches) + 1) / len(batches) > budget:
            return batches


def check_trace_sum(batch: dict) -> None:
    """The layer self times of a traced batch must add up to its job time."""
    layers = batch["layers"]
    total = sum(layers[f"{m}.self_s"] for m in tracing.MODULES) + layers["ensembles.rng.setup_s"]
    share, floor = TRACE_SUM_TOLERANCE
    if abs(total - batch["norm_s"]) > share * batch["norm_s"] + floor:
        batch["jobs"][-1]["problems"].append(
            f"layer self times sum to {total:.6f} s, traced jobs took {batch['norm_s']:.6f} s")


def write_spans(path: Path, batches: list[dict]) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("batch\tspan\tparent\tjob\tname\tstart\tend\n")
        for b, batch in enumerate(batches):
            batch["tracer"].write_tsv(fh, b)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "unispec" / "cli.py").is_file():
        sys.stderr.write(f"error: no unispec sources under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    # the job's thread and the speed probe's thread use the nproc = 2 cores
    for var in THREAD_VARS:
        os.environ[var] = "1"

    start = time.perf_counter()
    sys.path.insert(0, "src")
    import numpy
    import unispec.cli as cli
    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "unispec":
        sys.stderr.write(f"error: unispec imported from {cli.__file__}, not {ROOT / 'src'}\n")
        return 2

    rounds = [setup_round(args.workload, args.seed) for _ in range(SETUP_ROUNDS)]
    wl = rounds[-1][1]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(), "inprocess_import_s": import_s,
    }

    first_sha: dict[str, str] = {}
    if args.trace:
        plain = run_batches(wl, cli, args.seconds / 2, first_sha, traced=False)
        traced = run_batches(wl, cli, args.seconds / 2, first_sha, traced=True)
        batches = plain + traced
        metrics = {
            name: {"value": statistics.median(b["layers"][name] for b in traced),
                   "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()
        }
        overhead = (statistics.median(b["norm_s"] for b in traced)
                    - statistics.median(b["norm_s"] for b in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        batches = run_batches(wl, cli, args.seconds, first_sha, traced=False)
        metrics = {
            "wall_norm_s": {"value": statistics.median(b["norm_s"] for b in batches), "unit": "s"},
            "setup_s": {"value": statistics.median(t for t, _ in rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    jobs = [rec for b in batches for rec in b["jobs"]]
    failed = sum(1 for rec in jobs if rec["problems"])
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(RESULTS / f"{stem}.spans.tsv.gz", traced)
    record = {
        "env": env,
        "setup_rounds_s": [t for t, _ in rounds],
        "batches": [{k: v for k, v in b.items() if k != "tracer"} for b in batches],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for rec in batches[0]["jobs"]:
        flag = f" exact={rec['exact']}" if "exact" in rec else ""
        print(f"{rec['job']}: {rec['wall_s']:.3f} s wall, {rec['norm_s']:.3f} s normalised, "
              f"sha256={rec['sha256'][:16]}{flag}"
              f"{' FAILED: ' + '; '.join(rec['problems']) if rec['problems'] else ''}")
    print(f"record: {RESULTS / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
