"""The four workloads: seeded input generation, one request, and the
checks on its output.

``generate`` turns a seed into plain data (argv lists and part tuples) and
needs nothing but the standard library; ``prepare`` turns that data into
library objects.  A request runs through the public API, or through the
in-process CLI entry point ``kkcrystals.cli.main`` with stdout captured to
memory.  Every library function is looked up on its module at call time,
so the wrappers the traced run installs are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random

GRAPH_ARGV = ("graph", "--lambda", "0", "--p", "5", "--max-boxes", "20")
GRAPH_VERTICES = 5173
GRAPH_EDGES = 6415
# sha256 of the captured stdout of GRAPH_ARGV; the output must stay
# byte-identical
GRAPH_SHA256 = "d54810659c5ab154c9036cd7c008904cfdd9b2eed57f0bbeeae87596144e1a9e"

VERIFY_ARGV = ("verify", "all")
VERIFY_CHECKS = 19
VERIFY_CASES = 23006

PATHS_REQUESTS = 100
PATHS_MIN_BOXES = 100
PATHS_MAX_BOXES = 400
# a request's cost follows the largest parts of its factors (the length of
# their paths), so the largest part is stratified over this range as well;
# every size in the box range has partitions with each such largest part
PATHS_MIN_LARGEST = 30
PATHS_MAX_LARGEST = 90
PATHS_COMPARISONS = 18  # per request, see paths_request

DECOMPOSE_REQUESTS = 128
# the heaviest requests are the largest p, so this bound sets how many
# repetitions fit in a run, and so how many samples each request gets
DECOMPOSE_P_MAX = 2 ** 20
DECOMPOSE_CUTOFFS = tuple(range(4, 13))

WORK_UNITS = {"graph": "vertices", "paths": "comparisons",
              "decompose": "tables", "verify": "cases"}


class Checks:
    """Counts attempted and failed output checks; keeps the first few
    failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str, *args):
        """Count one check; the message is formatted only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message % args)


# --- input generation (standard library only) ---------------------------

def _stratified(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of count equal slices of [0, 1), shuffled:
    the spread of the inputs barely depends on the seed."""
    draws = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(draws)
    return draws


def strict_partition_counts(n_max: int) -> list[list[int]]:
    """q[n][k]: the number of partitions of n into distinct parts <= k."""
    q = [[1] * (n_max + 1)] + [[0] * (n_max + 1) for _ in range(n_max)]
    for n in range(1, n_max + 1):
        row = q[n]
        for k in range(1, n_max + 1):
            row[k] = row[k - 1] + (q[n - k][k - 1] if k <= n else 0)
    return q


def sample_strict_partition(rng: random.Random, n: int, q: list[list[int]],
                            bound: int | None = None) -> tuple[int, ...]:
    """A partition of n into distinct parts <= bound (default n), uniform
    among all of them."""
    parts = []
    bound = n if bound is None else bound
    while n:
        r = rng.randrange(q[n][bound])
        # q[n - j][j - 1] partitions have largest part exactly j
        largest = min(bound, n)
        while r >= q[n - largest][largest - 1]:
            r -= q[n - largest][largest - 1]
            largest -= 1
        parts.append(largest)
        n -= largest
        bound = largest - 1
    return tuple(parts)


def _valid_p(lambda_type: int, p: int) -> int:
    """Nearest p with the parity KKSpec accepts for lambda_type."""
    if lambda_type == 0:
        return p if p == 0 or p % 2 else p + 1
    return p - p % 2


def generate(workload: str, seed: int):
    """The inputs of one repetition, as plain data."""
    rng = random.Random(seed)
    if workload == "graph":
        return [list(GRAPH_ARGV)]
    if workload == "verify":
        return [list(VERIFY_ARGV)]
    if workload == "paths":
        # size and largest part are stratified separately for each factor;
        # the rest of a factor is uniform among the partitions with that
        # size and largest part
        q = strict_partition_counts(PATHS_MAX_BOXES)
        span = PATHS_MAX_BOXES - PATHS_MIN_BOXES + 1
        largest_span = PATHS_MAX_LARGEST - PATHS_MIN_LARGEST + 1

        def factors():
            sizes = _stratified(rng, PATHS_REQUESTS)
            largest = _stratified(rng, PATHS_REQUESTS)
            for u, v in zip(sizes, largest):
                n = PATHS_MIN_BOXES + int(u * span)
                m = PATHS_MIN_LARGEST + int(v * largest_span)
                yield (m,) + sample_strict_partition(rng, n - m, q, m - 1)

        lefts, rights = list(factors()), list(factors())
        return [(left, k % 2, right)
                for k, (left, right) in enumerate(zip(lefts, rights))]
    if workload == "decompose":
        # p is log-uniform in [0, DECOMPOSE_P_MAX], one draw in each of n
        # equal slices of the log scale; lambda alternates and the cutoffs
        # cycle over the slices, so every (lambda, cutoff) meets small and
        # large p alike, and the seed moves p only inside its slice.  Below
        # p ~ 10^4 the cost is set by lambda and the cutoff, so a random
        # lambda per slice would move the median latency by 8% from seed
        # to seed.  Every seed visits the top of the p range once, so that
        # peak memory measures the same worst case.
        n = DECOMPOSE_REQUESTS
        log_top = math.log(DECOMPOSE_P_MAX + 1)
        out = []
        for k in range(n):
            lam = k % 2
            u = 1.0 if k == n - 1 else (k + rng.random()) / n
            p = _valid_p(lam, round(math.exp(u * log_top)) - 1)
            cutoff = DECOMPOSE_CUTOFFS[k % len(DECOMPOSE_CUTOFFS)]
            out.append(["decompose", "--lambda", str(lam), "--p", str(p),
                        "--cutoff", str(cutoff), "--oracle"])
        rng.shuffle(out)
        return out
    raise ValueError("unknown workload %r" % workload)


def decompose_shape(data) -> dict:
    """Properties of a decompose input set that later changes depend on."""
    above = sum(1 for argv in data if int(argv[4]) > 2 * int(argv[6]) + 2)
    return {"requests": len(data), "p_above_2c_plus_2": above,
            "p_above_2c_plus_2_share": above / len(data),
            "p_max": max(int(argv[4]) for argv in data)}


def prepare(lib, workload: str, data):
    """Library objects for the generated inputs."""
    if workload != "paths":
        return data
    make = lib.partitions.ChargedPartition
    return [(make(left, charge), make(right, 0)) for left, charge, right in data]


# --- requests -----------------------------------------------------------

def run_cli(lib, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = lib.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def graph_request(lib, argv, checks: Checks):
    code, out = run_cli(lib, argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    checks.expect(code == 0, "graph exited with %r", code)
    checks.expect(out.endswith("vertices %d edges %d\n"
                               % (GRAPH_VERTICES, GRAPH_EDGES)),
                  "graph counts changed: %r", out[-40:])
    checks.expect(digest == GRAPH_SHA256, "graph stdout digest %s", digest)
    last = out.rstrip("\n").rsplit("\n", 1)[-1].split()
    vertices = int(last[1]) if len(last) == 4 and last[0] == "vertices" else 0
    return vertices, digest


def verify_request(lib, argv, checks: Checks):
    code, out = run_cli(lib, argv)
    lines = out.splitlines()
    cases = 0
    for line in lines:
        checks.expect(line.startswith("ok "), "verify: %s", line)
        if line.endswith(" cases)"):
            cases += int(line.rsplit("(", 1)[1].split()[0])
    checks.expect(code == 0, "verify exited with %r", code)
    checks.expect(len(lines) == VERIFY_CHECKS, "verify ran %d checks", len(lines))
    checks.expect(cases == VERIFY_CASES, "verify counted %d cases", cases)
    return cases, hashlib.sha256(out.encode()).hexdigest()


def decompose_request(lib, argv, checks: Checks):
    code, out = run_cli(lib, argv)
    lines = out.splitlines()
    cutoff = int(argv[6])
    checks.expect(code == 0, "%s exited with %r", argv, code)
    checks.expect(bool(lines) and lines[-1] == "# oracle agreement: yes",
                  "%s: no oracle agreement", argv)
    checks.expect(len(lines) == cutoff + 3 and lines[0].startswith("n\ta_n"),
                  "%s: malformed table", argv)
    return 1, out


def paths_request(lib, item, checks: Checks):
    """Iso round trips, e_i/f_i in both models compared through the
    bijection, the tensor rule's inverse law, and the tensor rule against
    the concatenated-path oracle: PATHS_COMPARISONS comparisons."""
    iso, partitions, paths, tensor = lib.iso, lib.partitions, lib.paths, lib.tensor
    b1, b2 = item
    p1 = iso.partition_to_path(b1)
    p2 = iso.partition_to_path(b2)
    seen = []
    for cp, path in ((b1, p1), (b2, p2)):
        checks.expect(iso.path_to_partition(path) == cp,
                      "iso round trip fails at %s", cp)
        for i in (0, 1):
            for op, path_op in ((partitions.f_op, paths.f_path),
                                (partitions.e_op, paths.e_path)):
                image = op(cp, i)
                path_image = path_op(path, i)
                via = None if image is None else iso.partition_to_path(image)
                checks.expect(via == path_image, "%s_%d: models disagree at %s",
                              op.__name__, i, cp)
                seen.append(path_image)
    t = tensor.TensorElement(b1, b2)
    for i in (0, 1):
        down = tensor.tensor_f(i, t)
        up = tensor.tensor_e(i, t)
        checks.expect(down is None or tensor.tensor_e(i, down) == t,
                      "e_%d f_%d is not the identity at %s", i, i, t)
        checks.expect(up is None or tensor.tensor_f(i, up) == t,
                      "f_%d e_%d is not the identity at %s", i, i, t)
        for op, image in (("f", down), ("e", up)):
            oracle = tensor.concat_path_op(i, p1, p2, op)
            expected = None if image is None else (
                iso.partition_to_path(image.left),
                iso.partition_to_path(image.right))
            checks.expect(oracle == expected, "tensor %s_%d disagrees with "
                          "the path oracle at %s", op, i, t)
            seen.append(oracle)
    return PATHS_COMPARISONS, tuple(seen)


REQUESTS = {"graph": graph_request, "paths": paths_request,
            "decompose": decompose_request, "verify": verify_request}
