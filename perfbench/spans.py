"""Per-layer tracing from outside the library.

``Tracer.install`` puts a timing wrapper around every public function of
every ``kkcrystals`` module, in every module namespace that binds it (so
``tensor.phi``, ``partitions.phi`` and ``verify.signature`` all record),
and around a few methods by patching the class attribute; ``remove`` puts
the originals back, and the two may alternate.  Each call becomes a span (name, start, end, parent, request id) kept in flat arrays
in memory.  A span's self time is its duration minus the durations of its
direct children; layer metrics sum calls and self time over span names.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path

# methods traced by patching the class attribute; every attribute of the
# class bound to one of these functions is patched (Weight.__rmul__ is
# Weight.__mul__)
METHODS = {
    "kkcrystals.weights": {"Weight": ("__post_init__", "__add__", "__sub__",
                                      "__neg__", "__mul__", "display")},
    "kkcrystals.tensor": {"CrystalGraph": ("to_dot",)},
}

PARTITION_OPS = {"partitions.e_op", "partitions.f_op", "partitions.phi",
                 "partitions.epsilon"}
PATH_OPS = {"paths.e_path", "paths.f_path", "paths.path_phi",
            "paths.path_epsilon"}
TENSOR_RULE = {"tensor.tensor_e", "tensor.tensor_f"}
KK_ORACLE = {"kk.decomposition_via_crystal", "kk.in_kk_crystal_by_weyl"}

# per-layer metric -> (kind, span names or layer prefix); "calls" and
# "self_s" aggregate over the names, a str selects a whole layer
LAYER_SPANS = {
    "weyl.calls": ("calls", "weyl"),
    "weyl.self_s": ("self_s", "weyl"),
    "weights.calls": ("calls", "weights"),
    "weights.weight_new": ("calls", {"weights.Weight.__post_init__"}),
    "weights.self_s": ("self_s", "weights"),
    "partitions.signature.calls": ("calls", {"partitions.signature"}),
    "partitions.ops.calls": ("calls", PARTITION_OPS),
    "partitions.self_s": ("self_s", "partitions"),
    "partitions.enumerate.self_s": ("self_s", {"partitions.enumerate_regular"}),
    "paths.ops.calls": ("calls", PATH_OPS),
    "paths.self_s": ("self_s", "paths"),
    "iso.calls": ("calls", "iso"),
    "iso.self_s": ("self_s", "iso"),
    "tensor.rule.calls": ("calls", TENSOR_RULE),
    "tensor.rule.self_s": ("self_s", TENSOR_RULE),
    "tensor.oracle.calls": ("calls", {"tensor.concat_path_op"}),
    "tensor.oracle.self_s": ("self_s", {"tensor.concat_path_op"}),
    "tensor.graph.self_s": ("self_s", {"tensor.crystal_graph"}),
    "tensor.render.self_s": ("self_s", {"tensor.CrystalGraph.to_dot"}),
    "kk.members.self_s": ("self_s", {"kk.kk_crystal_members"}),
    "kk.decomposition.self_s": ("self_s", {"kk.decomposition"}),
    "kk.oracle.self_s": ("self_s", KK_ORACLE),
    "verify.self_s": ("self_s", "verify"),
    "cli.self_s": ("self_s", "cli"),
}


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the durations of its direct children;
    spans of one thread nest, so the children never overlap."""
    own = [e - s for s, e in zip(start, end)]
    for k, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[k] - start[k]
    return own


def _factor_counts(spec, cutoff: int) -> tuple[int, int]:
    """(live, all) generating-function factors of decomposition(spec,
    cutoff): the j <= p of the spec's parity, live when j <= 2 cutoff + 1."""
    def count(top):
        return (top + 1) // 2 if spec.lambda_type == 0 else top // 2
    return count(min(spec.p, 2 * cutoff + 1)), count(spec.p)


class Tracer:
    """Timing wrappers over a loaded kkcrystals package."""

    def __init__(self, package, modules, methods=METHODS):
        self.package = package
        self.modules = modules
        self.methods = methods
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = 0
        self._open: list[int] = []
        # values computed from the arguments and results of a few calls
        self.membership = [0, 0]      # in_kk_crystal: accepted, calls
        self.gf_factors = [0, 0]      # decomposition: live, all
        self.verify_cases = 0
        self._observers = {
            "kk.in_kk_crystal": self._observe_membership,
            "kk.decomposition": self._observe_decomposition,
            "verify.run_suites": self._observe_suites,
        }
        self._patches = self._plan()

    # --- observers ------------------------------------------------------

    def take_observed(self) -> tuple:
        """The observed values since the last take, which resets them."""
        taken = (tuple(self.membership), tuple(self.gf_factors),
                 self.verify_cases)
        self.membership = [0, 0]
        self.gf_factors = [0, 0]
        self.verify_cases = 0
        return taken

    def _observe_membership(self, args, kwargs, result):
        self.membership[0] += bool(result)
        self.membership[1] += 1

    def _observe_decomposition(self, args, kwargs, result):
        bound = dict(zip(("spec", "cutoff"), args), **kwargs)
        live, total = _factor_counts(bound["spec"], bound["cutoff"])
        self.gf_factors[0] += live
        self.gf_factors[1] += total

    def _observe_suites(self, args, kwargs, result):
        self.verify_cases += sum(r.cases for r in result)

    # --- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, open_spans = self.start, self.end, self._open
        observe = self._observers.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            requests.append(tracer.request_id)
            ends.append(0.0)
            open_spans.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(function) -> (span name, function) for every public function
        defined in a kkcrystals module."""
        out = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and callable(value)
                        and not inspect.isclass(value)
                        and getattr(value, "__module__", None) == module.__name__):
                    out[id(value)] = ("%s.%s" % (layer, attr), value)
        return out

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        wrappers = {key: (fn, self._wrap(name, fn))
                    for key, (name, fn) in self._targets().items()}
        plan = [(module, attr, *wrappers[id(value)])
                for module in (self.package, *self.modules)
                for attr, value in vars(module).items() if id(value) in wrappers]
        by_name = {m.__name__: m for m in self.modules}
        for module_name, classes in self.methods.items():
            layer = module_name.rsplit(".", 1)[1]
            for cls_name, method_names in classes.items():
                cls = getattr(by_name[module_name], cls_name)
                for method in method_names:
                    fn = vars(cls)[method]
                    traced = self._wrap("%s.%s.%s" % (layer, cls_name, method), fn)
                    plan.extend((cls, attr, fn, traced)
                                for attr, value in vars(cls).items() if value is fn)
        return plan

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def by_name(self, lo: int = 0, hi: int | None = None) -> dict[str, list]:
        """span name -> [calls, self seconds] over the spans lo .. hi."""
        hi = len(self) if hi is None else hi
        parent = [p - lo if p >= lo else -1 for p in self.parent[lo:hi]]
        own = self_times(parent, self.start[lo:hi], self.end[lo:hi])
        out: dict[str, list] = {}
        for nid, seconds in zip(self.name[lo:hi], own):
            entry = out.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        return out

    def write(self, directory: Path, seed: int):
        """The spans as flat binary arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name", "parent", "request", "start", "end"):
            column = getattr(self, field)
            with open(directory / (field + ".bin"), "wb") as handle:
                column.tofile(handle)
        (directory / "index.json").write_text(json.dumps({
            "seed": seed, "names": self.names, "spans": len(self),
            "columns": {"name": "i", "parent": "i", "request": "i",
                        "start": "d", "end": "d"}}))


def layer_metrics(per_name: dict[str, list]) -> dict[str, float]:
    """Sum calls or self time over the span names of each layer metric."""
    out = {}
    for metric, (kind, names) in LAYER_SPANS.items():
        if isinstance(names, str):
            selected = [v for k, v in per_name.items()
                        if k.split(".", 1)[0] == names]
        else:
            selected = [v for k, v in per_name.items() if k in names]
        column = 0 if kind == "calls" else 1
        out[metric] = sum(v[column] for v in selected)
    return out
