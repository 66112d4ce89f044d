"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {graph,paths,decompose,verify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
One single-threaded client sends each request after the previous one
finished (closed loop).  A repetition runs every generated input once,
after gc.collect() with the collector left on; at least MIN_REPS run, and
more while one more still ends within --seconds.  Each request's latency
is its fastest over the repetitions, and wall_s is the sum of those: the
time of one repetition with host contention filtered out (see stats.py).
setup_s is the median of SETUP_REPEATS set-ups before the first repetition
and one after each repetition.

With --trace 0 the metrics are end to end.  With --trace 1 a quarter of
the time runs untraced to warm up, then TRACED_REPS repetitions run with a
timing wrapper around every public library function (see spans.py), each
followed by an untraced one.  The metrics are per layer: counts from the
first traced repetition, self times the median over the traced ones, and
the tracing overhead, traced minus untraced median repetition time.  The spans are written to
.perfbench/spans-<workload>/.

The second-to-last stdout line is a JSON record of details (sample
counts, tail percentile, failures); the last line is the result.  The
exit code is 2 when the library cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spans, stats, workloads  # noqa: E402

LAYERS = ("weyl", "weights", "partitions", "paths", "iso", "tensor", "kk",
          "verify", "cli")
SETUP_REPEATS = 9
MIN_REPS = 3
TRACED_REPS = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "req_p50_ms": "ms", "req_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import kkcrystals afresh from ROOT/src: the package and its modules."""
    for name in [n for n in sys.modules
                 if n == "kkcrystals" or n.startswith("kkcrystals.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("kkcrystals")
        modules = [importlib.import_module("kkcrystals." + n) for n in LAYERS]
    except ImportError as exc:
        raise LibraryMissing("cannot import kkcrystals from %s: %s" % (src, exc))
    if src not in Path(package.__file__).resolve().parents:
        raise LibraryMissing("kkcrystals was imported from %s, not from %s"
                             % (package.__file__, src))
    return package, modules


def setup(workload: str, seed: int):
    """Import the library and generate the inputs, timed."""
    start = time.perf_counter()
    package, modules = load_library()
    lib = SimpleNamespace(**dict(zip(LAYERS, modules)))
    data = workloads.generate(workload, seed)
    items = workloads.prepare(lib, workload, data)
    return package, modules, lib, data, items, time.perf_counter() - start


def time_setup(workload: str, seed: int) -> float:
    """The time of one more setup, whose library and inputs are dropped:
    the modules in use are put back into sys.modules."""
    saved = {name: module for name, module in sys.modules.items()
             if name == "kkcrystals" or name.startswith("kkcrystals.")}
    seconds = setup(workload, seed)[-1]
    for name in [n for n in sys.modules
                 if n == "kkcrystals" or n.startswith("kkcrystals.")]:
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


def run_rep(lib, request, items, checks, tracer=None) -> dict:
    """One repetition over every input; request latencies in seconds."""
    latencies, outputs, work = [], [], 0
    gc.collect()
    rep_start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.request_id += 1
        start = time.perf_counter()
        try:
            units, output = request(lib, item, checks)
        except Exception as exc:  # a failed request is counted and reported
            checks.expect(False, "%r raised %r", item, exc)
            units, output = 0, None
        latencies.append(time.perf_counter() - start)
        work += units
        outputs.append(output)
    return {"seconds": time.perf_counter() - rep_start,
            "latencies": latencies, "work": work, "outputs": outputs}


def measure(lib, request, items, checks, seconds: float, min_reps: int,
            between=None):
    """At least min_reps repetitions, then more while one more still ends
    within the given seconds; between() is called after each one."""
    reps = []
    start = time.perf_counter()
    while (len(reps) < min_reps or time.perf_counter() - start
           + reps[-1]["seconds"] <= seconds):
        reps.append(run_rep(lib, request, items, checks))
        if between is not None:
            between()
    return reps


def end_to_end(reps, setup_s: float) -> tuple[dict, dict]:
    fastest = stats.fastest_latencies([r["latencies"] for r in reps])
    wall = sum(fastest)
    latency = stats.latency_summary(fastest)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "work_per_s": reps[0]["work"] / wall,
        "req_p50_ms": latency["p50"] * 1000,
        "req_tail_ms": latency["tail"] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"reps": len(reps), "work_per_rep": reps[0]["work"],
               "requests": latency["n"],
               "tail_percentile": latency["tail_percentile"]}
    return metrics, details


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(package, modules, lib, workload, seed, items, checks, seconds):
    """Untraced warm-up repetitions, then TRACED_REPS traced ones, each
    followed by an untraced one; layer metrics from the traced repetitions
    and the tracing overhead against the untraced ones beside them."""
    request = workloads.REQUESTS[workload]
    warm = measure(lib, request, items, checks, seconds / 4, 1)
    tracer = spans.Tracer(package, modules)
    traced, untraced, marks, observed = [], [], [0], []
    for _ in range(TRACED_REPS):
        tracer.install()
        try:
            traced.append(run_rep(lib, request, items, checks, tracer))
        finally:
            tracer.remove()
        marks.append(len(tracer))
        observed.append(tracer.take_observed())
        untraced.append(run_rep(lib, request, items, checks))
    reference = warm[0]["outputs"]
    for rep in traced:
        for k, (got, want) in enumerate(zip(rep["outputs"], reference)):
            checks.expect(got == want, "traced output %d differs", k)
    per_rep = [tracer.by_name(lo, hi) for lo, hi in zip(marks, marks[1:])]
    counts = [{name: v[0] for name, v in rep.items()} for rep in per_rep]
    for rep_counts, rep_observed in zip(counts[1:], observed[1:]):
        checks.expect(rep_counts == counts[0] and rep_observed == observed[0],
                      "call counts differ between traced repetitions")
    layers = [spans.layer_metrics(rep) for rep in per_rep]
    metrics = {}
    for name, (kind, _) in spans.LAYER_SPANS.items():
        metrics[name] = (layers[0][name] if kind == "calls" else
                         statistics.median(layer[name] for layer in layers))
    work = warm[0]["work"]
    (accepted, tested), (live, factors), cases = observed[0]
    info = lib.paths.direction_weight.cache_info()
    metrics.update({
        "partitions.signature_per_vertex":
            _ratio(metrics["partitions.signature.calls"], work),
        "tensor.rule_per_vertex": _ratio(metrics["tensor.rule.calls"], work),
        "paths.direction_weight.hit_ratio":
            _ratio(info.hits, info.hits + info.misses),
        "kk.membership.accept_ratio": _ratio(accepted, tested),
        "kk.gf.live_factor_ratio": _ratio(live, factors),
        "verify.cases": cases,
        "trace.overhead_s":
            statistics.median(r["seconds"] for r in traced)
            - statistics.median(r["seconds"] for r in untraced),
    })
    # one directory per workload, overwritten by the next traced run
    out_dir = ROOT / ".perfbench" / ("spans-" + workload)
    tracer.write(out_dir, seed)
    details = {"warm_reps": len(warm), "traced_reps": len(traced),
               "spans": len(tracer), "spans_dir": str(out_dir.relative_to(ROOT)),
               "work_per_rep": work,
               "membership_tests": tested, "gf_factors": factors}
    return metrics, details


def _unit(name: str) -> str:
    if name.endswith("_per_vertex"):
        return "calls/unit"
    if name == "kk.gf.live_factor_ratio":
        return "computed_ratio"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.REQUESTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        package, modules, lib, data, items, setup_s = setup(
            args.workload, args.seed)
    except LibraryMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    checks = workloads.Checks()
    if args.trace:
        metrics, details = per_layer(package, modules, lib, args.workload,
                                     args.seed, items, checks, args.seconds)
        units = {name: _unit(name) for name in metrics}
    else:
        # set-up is timed SETUP_REPEATS times up front and once more after
        # every repetition, so that its median spans the whole run
        setups = [setup_s] + [time_setup(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        reps = measure(lib, workloads.REQUESTS[args.workload], items, checks,
                       args.seconds, MIN_REPS, lambda: setups.append(
                           time_setup(args.workload, args.seed)))
        metrics, details = end_to_end(reps, statistics.median(setups))
        details["setups"] = len(setups)
        units = END_TO_END_UNITS
    if args.workload == "decompose":
        details.update(workloads.decompose_shape(data))
    details.update({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace,
                    "work_unit": workloads.WORK_UNITS[args.workload],
                    "fail_frac": _ratio(checks.failed, checks.attempted),
                    "failures": checks.messages})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
