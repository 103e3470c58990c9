"""Outside-in span tracing of unispec, done entirely from the benchmark.

``install`` wraps every public function of each unispec module (the names in
its ``__all__``) and replaces every module-namespace alias of it, so a call
made through ``from .walks import closed_walk_counts`` in another module is
traced too. It also wraps ``numpy.random.default_rng``. Each call records one
span (name, start, end, parent span, job id) in memory; ``uninstall`` puts the
original functions back.

A span's self time is its duration minus the durations of its child spans.
Calls are single-threaded and strictly nested, so the children of a span are
disjoint intervals inside it, and the self times of all spans of a job add up
to the duration of the job's root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, NamedTuple

# the layers, in call-graph order from the CLI down
MODULES = ("cli", "bounds", "cover", "ensembles", "nbw", "spectra", "walks", "graph")
RNG_SPAN = "rng.default_rng"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a job's root
    job: int


class Tracer:
    """In-memory span recorder. Not thread-safe: only the job's thread calls unispec.

    Spans live in flat arrays rather than one object each, which keeps the
    memory and garbage-collector cost of the hundreds of thousands of spans of
    a traced ``analyze`` job out of the measurement.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._jobs = array("q")
        self._name_of = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``observe(args, kwargs,
        result)`` runs after the span closes, so its cost lands in the caller."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        starts, ends, parents, jobs, name_of = (
            self._starts, self._ends, self._parents, self._jobs, self._name_of)
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            name_of.append(name_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def spans(self):
        for i in range(len(self._starts)):
            yield Span(self.names[self._name_of[i]], self._starts[i], self._ends[i],
                       self._parents[i], self._jobs[i])

    def self_times(self, job: int) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time, number of spans) over the spans of ``job``."""
        import numpy as np

        start = np.frombuffer(self._starts, dtype=np.float64)
        dur = np.frombuffer(self._ends, dtype=np.float64) - start
        parent = np.frombuffer(self._parents, dtype=np.int64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        keep = np.frombuffer(self._jobs, dtype=np.int64) == job
        name_of = np.frombuffer(self._name_of, dtype=np.int64)[keep]
        totals = np.bincount(name_of, weights=(dur - child)[keep], minlength=len(self.names))
        counts = np.bincount(name_of, minlength=len(self.names))
        return {name: (float(totals[i]), int(counts[i]))
                for i, name in enumerate(self.names) if counts[i]}

    def write_tsv(self, fh, batch: int) -> None:
        for i, s in enumerate(self.spans()):
            fh.write(f"{batch}\t{i}\t{s.parent}\t{s.job}\t{s.name}\t{s.start!r}\t{s.end!r}\n")


class Counters:
    """Work counters read from the arguments and results of traced calls."""

    def __init__(self):
        self.kernel_bytes = 0
        self.solves = 0
        self.solve_keys: set = set()
        self.balls_built = 0
        self.nodes_built = 0
        self.ball_keys: set = set()
        self.canon_calls = 0
        self.canon_exact = 0
        self.ugw_nodes = 0

    def nbw_transition(self, args, kwargs, result):
        self.kernel_bytes = max(self.kernel_bytes, result.matrix.nbytes)

    def spectrum(self, kind):
        def observe(args, kwargs, result):
            self.solves += 1
            self.solve_keys.add((kind, args[0]))
        return observe

    def universal_cover_ball(self, args, kwargs, result):
        self.balls_built += 1
        self.nodes_built += result.tree.vertex_count
        self.ball_keys.add((args[0], args[1], result.radius))

    def canonical_rooted_code(self, args, kwargs, result):
        self.canon_calls += 1
        self.canon_exact += bool(result[1])

    def sample_ugw(self, args, kwargs, result):
        self.ugw_nodes += result.graph.vertex_count

    def observers(self) -> dict[str, Callable]:
        """Span name -> observer of that function's calls."""
        return {
            "nbw.nbw_transition": self.nbw_transition,
            "spectra.adjacency_spectrum": self.spectrum("adjacency"),
            "spectra.markov_spectrum": self.spectrum("markov"),
            "cover.universal_cover_ball": self.universal_cover_ball,
            "ensembles.canonical_rooted_code": self.canonical_rooted_code,
            "ensembles.sample_ugw": self.sample_ugw,
        }


class Installation(NamedTuple):
    tracer: Tracer
    counters: Counters
    patched: list  # (namespace object, attribute, original)


def install(tracer: Tracer) -> Installation:
    """Wrap unispec's public functions and ``numpy.random.default_rng``."""
    import numpy as np

    counters = Counters()
    observers = counters.observers()
    wrappers: dict[int, Callable] = {}
    for short in MODULES:
        mod = sys.modules[f"unispec.{short}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = tracer.wrap(name, fn, observers.get(name))
    patched = []
    namespaces = [m for n, m in sys.modules.items() if n == "unispec" or n.startswith("unispec.")]
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    rng = np.random.default_rng
    patched.append((np.random, "default_rng", rng))
    np.random.default_rng = tracer.wrap(RNG_SPAN, rng)
    return Installation(tracer, counters, patched)


def uninstall(inst: Installation) -> None:
    for namespace, attr, original in reversed(inst.patched):
        setattr(namespace, attr, original)


LAYER_UNITS = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "nbw.mtp_check.self_s": "s",
    "nbw.kernel_bytes": "bytes",
    "spectra.solves": "count",
    "spectra.distinct_ratio": "ratio",
    "walks.closed_walk_counts.self_s": "s",
    "walks.closed_walk_counts.calls": "count",
    "walks.srw_return_probs.self_s": "s",
    "walks.srw_return_probs.calls": "count",
    "cover.balls_built": "count",
    "cover.nodes_built": "count",
    "cover.distinct_ratio": "ratio",
    "ensembles.canon.self_s": "s",
    "ensembles.canon.calls": "count",
    "ensembles.canon.exact_ratio": "ratio",
    "ensembles.sample_ugw.self_s": "s",
    "ensembles.ugw_nodes": "count",
    "ensembles.rng.setups": "count",
    "ensembles.rng.setup_s": "s",
    "graph.bfs_distances.calls": "count",
    "trace.spans": "count",
}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(inst: Installation, speed_factors: dict[int, float]) -> dict[str, float]:
    """Per-layer self times and counters over the spans of the jobs in ``speed_factors``.

    Each job's self times are divided by its speed factor (see ``probe.py``).
    Every ``<layer>.self_s`` plus ``ensembles.rng.setup_s`` adds up to the
    jobs' root-span time divided the same way. Ratios whose base is 0 read 0.
    """
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for job, factor in speed_factors.items():
        for name, (t, n) in inst.tracer.self_times(job).items():
            by_name[name] = by_name.get(name, 0.0) + t / factor
            calls[name] = calls.get(name, 0) + n
    layer = {m: 0.0 for m in MODULES}
    for name, t in by_name.items():
        prefix = name.split(".", 1)[0]
        if prefix in layer:
            layer[prefix] += t
    c = inst.counters
    out = {f"{m}.self_s": layer[m] for m in MODULES}
    out.update({
        "nbw.mtp_check.self_s": by_name.get("nbw.mtp_check", 0.0),
        "nbw.kernel_bytes": c.kernel_bytes,
        "spectra.solves": c.solves,
        "spectra.distinct_ratio": _ratio(len(c.solve_keys), c.solves),
        "walks.closed_walk_counts.self_s": by_name.get("walks.closed_walk_counts", 0.0),
        "walks.closed_walk_counts.calls": calls.get("walks.closed_walk_counts", 0),
        "walks.srw_return_probs.self_s": by_name.get("walks.srw_return_probs", 0.0),
        "walks.srw_return_probs.calls": calls.get("walks.srw_return_probs", 0),
        "cover.balls_built": c.balls_built,
        "cover.nodes_built": c.nodes_built,
        "cover.distinct_ratio": _ratio(len(c.ball_keys), c.balls_built),
        "ensembles.canon.self_s": by_name.get("ensembles.canonical_rooted_code", 0.0),
        "ensembles.canon.calls": c.canon_calls,
        "ensembles.canon.exact_ratio": _ratio(c.canon_exact, c.canon_calls),
        "ensembles.sample_ugw.self_s": by_name.get("ensembles.sample_ugw", 0.0),
        "ensembles.ugw_nodes": c.ugw_nodes,
        "ensembles.rng.setups": calls.get(RNG_SPAN, 0),
        "ensembles.rng.setup_s": by_name.get(RNG_SPAN, 0.0),
        "graph.bfs_distances.calls": calls.get("graph.bfs_distances", 0),
        "trace.spans": sum(calls.values()),
    })
    return out
