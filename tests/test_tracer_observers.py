"""The benchmark tracer's work counters read the values the library returns.

``perfbench/tracer.py`` observes a few functions by reading fields of their results.
Only traced benchmark runs call those observers, so this test feeds each one the
result of a real call: a changed return type fails here, not only in a traced run.
The test modules and the benchmark's modules also stay importable in one pytest session.
"""

import importlib.util
from pathlib import Path

from unispec import (
    DegreeDistribution,
    adjacency_spectrum,
    canonical_rooted_code,
    generate,
    markov_spectrum,
    nbw_transition,
    sample_ugw,
    universal_cover_ball,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

CYCLE = generate("cycle", 6)
LAW = DegreeDistribution.from_string("2:0.5,3:0.5")

# span name -> (function, positional arguments) of one call per observer
CALLS = {
    "nbw.nbw_transition": (nbw_transition, (CYCLE,)),
    "spectra.adjacency_spectrum": (adjacency_spectrum, (CYCLE,)),
    "spectra.markov_spectrum": (markov_spectrum, (CYCLE,)),
    "cover.universal_cover_ball": (universal_cover_ball, (CYCLE, 0, 2)),
    "ensembles.canonical_rooted_code": (canonical_rooted_code, (CYCLE, 0, 2)),
    "ensembles.sample_ugw": (sample_ugw, (LAW, 3, 1)),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_observers_accept_the_library_results():
    counters = _load_tracer().Counters()
    observers = counters.observers()
    assert sorted(observers) == sorted(CALLS)
    for name, (fn, args) in CALLS.items():
        observers[name](args, {}, fn(*args))
    assert counters.kernel_bytes == 12 * 12 * 8  # 2m = 12 directed edges, float64
    assert counters.solves == 2
    assert counters.balls_built == 1 and counters.nodes_built == 5  # a path of radius 2
    assert counters.canon_calls == 1 and counters.canon_exact == 1
    assert counters.ugw_nodes >= 1


def test_no_test_module_shadows_a_benchmark_module():
    # pytest puts each test directory on sys.path and imports its modules by stem, so a
    # tests/oracles.py would stand in for perfbench's ``import oracles`` in one session
    tests = {path.stem for path in Path(__file__).parent.glob("*.py")}
    benchmark = {path.stem for path in PERFBENCH.glob("*.py")}
    assert sorted(tests & benchmark - {"conftest"}) == []
