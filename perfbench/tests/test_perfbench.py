"""Tests of the benchmark's own arithmetic and input generation; they need
only the standard library."""

import random
import types

import pytest

from perfbench import spans, stats, workloads


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert spans.self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]


def test_self_times_sum_to_root_duration():
    parent = [-1, 0, 1, 1, 0, -1]
    start = [0.0, 1.0, 1.5, 2.5, 4.0, 20.0]
    end = [10.0, 3.5, 2.0, 3.0, 6.0, 21.0]
    own = spans.self_times(parent, start, end)
    assert sum(own[:5]) == pytest.approx(10.0)
    assert own[5] == pytest.approx(1.0)


def test_layer_metrics_sum_by_name_and_layer():
    per_name = {"partitions.signature": [5, 0.5], "partitions.phi": [2, 0.25],
                "tensor.tensor_f": [3, 0.125], "tensor.crystal_graph": [1, 1.0]}
    layers = spans.layer_metrics(per_name)
    assert layers["partitions.signature.calls"] == 5
    assert layers["partitions.ops.calls"] == 2
    assert layers["partitions.self_s"] == 0.75
    assert layers["tensor.rule.calls"] == 3
    assert layers["tensor.graph.self_s"] == 1.0
    assert layers["paths.self_s"] == 0


def _fake_library():
    """A package with two modules: alpha defines f (calling g) and g;
    beta binds alpha's f under its own name."""
    package = types.ModuleType("fake")
    alpha = types.ModuleType("fake.alpha")
    beta = types.ModuleType("fake.beta")
    exec("def g(x):\n    return x + 1\n"
         "def f(x):\n    return g(x) * 2\n", alpha.__dict__)
    beta.f = alpha.f
    package.f = alpha.f
    return package, alpha, beta


def test_tracer_wraps_every_binding_and_restores_them():
    package, alpha, beta = _fake_library()
    original = alpha.f
    tracer = spans.Tracer(package, [alpha, beta], methods={})
    tracer.install()
    try:
        assert beta.f(1) == 4 and package.f(2) == 6
    finally:
        tracer.remove()
    assert alpha.f is original and beta.f is original and package.f is original
    assert [tracer.names[k] for k in tracer.name] == [
        "alpha.f", "alpha.g", "alpha.f", "alpha.g"]
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert {k: v[0] for k, v in tracer.by_name().items()} == {
        "alpha.f": 2, "alpha.g": 2}
    assert tracer.by_name(2)["alpha.f"][0] == 1


@pytest.mark.parametrize("n, per_mille", [
    (1, 500), (19, 500), (20, 500), (99, 500), (100, 900), (199, 900),
    (200, 950), (999, 950), (1000, 990), (9999, 990), (10000, 999)])
def test_tail_percentile_keeps_ten_samples_beyond(n, per_mille):
    assert stats.tail_per_mille(n) == per_mille
    if n >= 20:
        rank = -(-per_mille * n // 1000)
        assert n - rank >= stats.TAIL_MIN_BEYOND


def test_latency_summary_reports_tail_at_nearest_rank():
    latencies = [float(k) for k in range(200, 0, -1)]
    assert stats.latency_summary(latencies) == {
        "n": 200, "p50": 100.5, "tail_percentile": 95.0, "tail": 190.0}


def test_fastest_latencies_take_each_request_minimum():
    assert stats.fastest_latencies([[7.0]]) == [7.0]
    reps = [[3.0, 1.0, 2.0], [2.5, 4.0, 2.0], [9.0, 1.5, 0.5]]
    assert stats.fastest_latencies(reps) == [2.5, 1.0, 0.5]


@pytest.mark.parametrize("workload", ["paths", "decompose"])
def test_seed_fixes_the_inputs(workload):
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    assert workloads.generate(workload, 8) != first


def test_paths_inputs_are_distinct_partitions_in_range():
    for left, charge, right in workloads.generate("paths", 3):
        assert charge in (0, 1)
        for parts in (left, right):
            assert all(a > b for a, b in zip(parts, parts[1:] + (0,)))
            assert (workloads.PATHS_MIN_BOXES <= sum(parts)
                    <= workloads.PATHS_MAX_BOXES)
            assert (workloads.PATHS_MIN_LARGEST <= parts[0]
                    <= workloads.PATHS_MAX_LARGEST)


def test_strict_partition_sampler_is_uniform_on_small_sizes():
    q = workloads.strict_partition_counts(10)
    assert [q[n][n] for n in range(11)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    rng = random.Random(0)
    seen = {workloads.sample_strict_partition(rng, 9, q) for _ in range(400)}
    assert len(seen) == 8
    bounded = {workloads.sample_strict_partition(rng, 9, q, 4)
               for _ in range(200)}
    assert bounded == {(4, 3, 2)}
    bounded = {workloads.sample_strict_partition(rng, 7, q, 5)
               for _ in range(200)}
    assert bounded == {(5, 2), (4, 3), (4, 2, 1)}


def test_decompose_inputs_have_valid_parity_and_span_the_range():
    data = workloads.generate("decompose", 5)
    ps = [int(argv[4]) for argv in data]
    for argv, p in zip(data, ps):
        lam = int(argv[2])
        assert p == 0 or p % 2 == (1 if lam == 0 else 0)
        assert int(argv[6]) in workloads.DECOMPOSE_CUTOFFS
    assert max(ps) >= workloads.DECOMPOSE_P_MAX
    shape = workloads.decompose_shape(data)
    assert 0 < shape["p_above_2c_plus_2"] < len(data)
