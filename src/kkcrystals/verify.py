"""Exhaustive desk-scale verification suites.

Every theorem the library leans on is re-checked here against an
independent brute-force oracle: Bruhat order against the subword
characterisation, signature reduction against deletion of all reducible
substrings, the partition/path bijection against operator commutation,
the tensor rule against concatenated-path operators, and the submodule
membership and multiplicity formulas against direct enumeration.  The
command-line `verify` subcommand and the test suite both drive these.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement
from math import lcm

from .iso import partition_to_path, path_to_partition
from .kk import (KKSpec, MultiplicityTable, _p_allowed,
                 associated_weyl_element, decomposition,
                 decomposition_via_crystal, dominant_set, in_kk_crystal,
                 in_kk_crystal_by_weyl, kk_crystal_graph, weight_of_dominant)
from .partitions import (ChargedPartition, _one_enumeration,
                         closed_form_signature, e_op, enumerate_regular,
                         epsilon, f_op, phi, reduce_signature, signature,
                         signs, weight_of)
from .paths import (LSPath, _int_profile, direction_weight, e_path, f_path,
                    is_lambda_dominant)
from .tensor import (TensorElement, concat_path_op, is_highest_weight,
                     tensor_e, tensor_f, tensor_pairs)
from .weights import _checked_tuple, fundamental, pair_coroot, simple_root
from .weyl import (WeylElement, act, bruhat_ideal_min, bruhat_leq,
                   coset_element, double_coset_min, double_coset_min_index,
                   left_multiply)

FAILURE_CAP = 5


class CheckResult(_checked_tuple("CheckResult", "name cases failures")):
    """Cases and the first FAILURE_CAP failure messages of one check."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def check(name: str):
    """Make the check `name` of a generator that yields one outcome per
    case, None or the case's first failure message.  An Exception, in a
    case or in producing one, ends the check as one more failed case."""
    def decorate(outcomes):
        @functools.wraps(outcomes)
        def run(*sizes, **named_sizes) -> CheckResult:
            cases = outcomes(*sizes, **named_sizes)  # binds, runs nothing
            count, failures = 0, []
            try:
                for outcome in cases:
                    count += 1
                    if outcome is not None and len(failures) < FAILURE_CAP:
                        failures.append(outcome)
            except Exception as exc:
                count += 1
                failures.append("%s: %s" % (type(exc).__name__, exc))
            return CheckResult(name, count, failures[:FAILURE_CAP])
        return run
    return decorate


# --- brute-force oracles -------------------------------------------------

def subword_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the subword characterisation (each element has a
    unique reduced word here)."""
    uw, ww = u.word(), w.word()
    k = 0
    for g in ww:
        if k < len(uw) and uw[k] == g:
            k += 1
    return k == len(uw)


def _is_reducible(signs: str) -> bool:
    balance = 0
    for s in signs:
        balance += 1 if s == "-" else -1
        if balance < 0:
            return False
    return balance == 0


def formal_reduction(entries: tuple[tuple[str, int], ...]
                     ) -> tuple[tuple[str, int], ...]:
    """Delete the union of all reducible substrings, found by exhaustive
    search over substrings."""
    string = signs(entries)
    drop: set[int] = set()
    for a in range(len(string)):
        for b in range(a + 1, len(string) + 1):
            if _is_reducible(string[a:b]):
                drop.update(range(a, b))
    return tuple(e for k, e in enumerate(entries) if k not in drop)


def move_at_column(cp: ChargedPartition, c: int,
                   step: int) -> ChargedPartition:
    """cp with a box added below column c (step 1) or the bottom box of
    column c removed (step -1), found from the column height."""
    h = sum(1 for p in cp.parts if p >= c)
    parts = list(cp.parts) + [0]
    parts[h if step > 0 else h - 1] += step
    return ChargedPartition(tuple(p for p in parts if p), cp.charge)


def kernel_disagreement(cp: ChargedPartition, i: int,
                        reduced: tuple[tuple[str, int], ...]) -> str | None:
    """Where the one-pass operators part from the reduced column scan:
    phi and epsilon must count its '+' and '-', f_i must add at the column
    of its rightmost '+' and e_i remove at the column of its leftmost
    '-'; None when they agree."""
    plus = [c for s, c in reduced if s == "+"]
    minus = [c for s, c in reduced if s == "-"]
    if (phi(cp, i), epsilon(cp, i)) != (len(plus), len(minus)):
        return "phi/epsilon differ from the scan at %s, i=%d" % (cp, i)
    if f_op(cp, i) != (move_at_column(cp, plus[-1], 1) if plus else None):
        return "f moved a box off the scan's column at %s, i=%d" % (cp, i)
    if e_op(cp, i) != (move_at_column(cp, minus[0], -1) if minus else None):
        return "e moved a box off the scan's column at %s, i=%d" % (cp, i)
    return None


def string_length(x, op, i: int, bound: int) -> int:
    """How many times in a row op(., i) applies from x, at most bound + 1."""
    k = 0
    while k <= bound and (x := op(x, i)) is not None:
        k += 1
    return k


def all_elements(len_max: int) -> list[WeylElement]:
    out = [WeylElement(0, None)]
    for length in range(1, len_max + 1):
        out.append(WeylElement(length, 0))
        out.append(WeylElement(length, 1))
    return out


def labelled_partitions(max_boxes: int):
    """Every (charged partition, label) pair with at most max_boxes boxes,
    charge 0 first, each partition with label 0 then label 1."""
    for charge in (0, 1):
        for cp in enumerate_regular(charge, max_boxes):
            yield cp, 0
            yield cp, 1


def kk_specs(p_max: int):
    """Every submodule crystal with p at most p_max, lambda_type 0 first."""
    for lambda_type in (0, 1):
        for p in _valid_p_values(lambda_type, p_max):
            yield KKSpec(lambda_type, p)


def _valid_p_values(lambda_type: int, p_max: int) -> list[int]:
    return [p for p in range(p_max + 1) if _p_allowed(lambda_type, p)]


# --- suites ---------------------------------------------------------------

@check("bruhat closed form vs subword oracle")
def check_bruhat_subword(len_max: int):
    elems = all_elements(len_max)
    for u in elems:
        for w in elems:
            bad = bruhat_leq(u, w) != subword_leq(u, w)
            yield "disagree on (%s, %s)" % (u, w) if bad else None


@check("left multiplication is an involution per generator")
def check_left_multiply_involution(len_max: int):
    for w in all_elements(len_max):
        for g in (0, 1):
            bad = left_multiply(g, left_multiply(g, w)) != w
            yield "s%d twice moved %s" % (g, w) if bad else None


@check("iterated wedges compute the Bruhat-ideal minimum")
def check_ideal_min(len_max: int):
    elems = all_elements(len_max)
    for x in elems:
        ideal = [u for u in elems if subword_leq(u, x)]
        for y in elems:
            z = bruhat_ideal_min(x, y)
            orbit = [left_multiply_word(u, y) for u in ideal]
            bad = z not in orbit or any(not bruhat_leq(z, v) for v in orbit)
            yield "min I(%s)%s gave %s" % (x, y, z) if bad else None


def left_multiply_word(u: WeylElement, y: WeylElement) -> WeylElement:
    for g in reversed(u.word()):
        y = left_multiply(g, y)
    return y


@check("double-coset minimum closed form vs wedge route")
def check_double_coset_index(index_max: int):
    for lambda_type in (0, 1):
        for n in range(index_max + 1):
            tau = coset_element(lambda_type, n)
            for m in range(index_max + 1):
                z = bruhat_ideal_min(tau.inverse(), coset_element(0, m))
                w = double_coset_min(lambda_type, z)
                expected = coset_element(
                    0, double_coset_min_index(lambda_type, n, m))
                bad = w != expected
                yield ("type %d, n=%d, m=%d: %s != %s"
                       % (lambda_type, n, m, w, expected) if bad else None)


@check("closed-form signatures vs column scan")
def check_signature_closed_form(max_boxes: int):
    for cp, i in labelled_partitions(max_boxes):
        if cp.parts:
            bad = closed_form_signature(cp, i) != signs(signature(cp, i))
            yield "%s, i=%d" % (cp, i) if bad else None


@check("stack cancellation vs reducible-substring deletion")
def check_reduction_oracle(max_boxes: int):
    for cp, i in labelled_partitions(max_boxes):
        sig = signature(cp, i)
        reduced = reduce_signature(sig)
        string = signs(reduced)
        if reduced != formal_reduction(sig):
            yield "%s, i=%d" % (cp, i)
        elif string != "+" * string.count("+") + "-" * string.count("-"):
            yield "reduced signature %r is not plus-then-minus" % string
        else:
            yield kernel_disagreement(cp, i, reduced)


def inverse_disagreement(cp: ChargedPartition, i: int) -> str | None:
    """Where e_i and f_i fail to be partial inverses at cp or step the
    weight by other than the simple root; None when they pass.  An
    operator that would leave the 2-regular partitions raises instead,
    since its image cannot be constructed."""
    down = f_op(cp, i)
    if down is not None and e_op(down, i) != cp:
        return "e f != id at %s, i=%d" % (cp, i)
    up = e_op(cp, i)
    if up is not None and f_op(up, i) != cp:
        return "f e != id at %s, i=%d" % (cp, i)
    if up is not None and weight_of(up) != weight_of(cp) + simple_root(i):
        return "weight step wrong at %s, i=%d" % (cp, i)
    return None


@check("raising and lowering operators are partial inverses")
def check_operator_inverses(max_boxes: int):
    for cp, i in labelled_partitions(max_boxes):
        yield inverse_disagreement(cp, i)


@check("epsilon and phi count the operator string lengths")
def check_string_lengths(max_boxes: int):
    for cp, i in labelled_partitions(max_boxes):
        eps, ph = epsilon(cp, i), phi(cp, i)
        if string_length(cp, e_op, i, eps) != eps:
            yield "epsilon mismatch at %s, i=%d" % (cp, i)
        elif string_length(cp, f_op, i, ph) != ph:
            yield "phi mismatch at %s, i=%d" % (cp, i)
        else:
            yield None


def iso_disagreement(cp: ChargedPartition, i: int) -> str | None:
    """Where the bijection fails to carry f_i and e_i at cp to the path
    operators, or those fail to undo each other; None when they pass."""
    path = partition_to_path(cp)
    for op, cp_op, path_op, back, undo in (("f", f_op, f_path, "e", e_path),
                                           ("e", e_op, e_path, "f", f_path)):
        image_cp, image_path = cp_op(cp, i), path_op(path, i)
        if (image_cp is None) != (image_path is None):
            return "%s kill mismatch at %s, i=%d" % (op, cp, i)
        if image_cp is not None and partition_to_path(image_cp) != image_path:
            return "%s images differ at %s, i=%d" % (op, cp, i)
        if image_path is not None and undo(image_path, i) != path:
            return "%s %s != id on paths at %s, i=%d" % (back, op, cp, i)
    return None


@check("partition/path bijection commutes with the operators")
def check_iso_commutation(max_boxes: int):
    for charge in (0, 1):
        lam = fundamental(charge)
        for cp in enumerate_regular(charge, max_boxes):
            path = partition_to_path(cp)
            off = [k for k in (path.m, path.n) if direction_weight(charge, k)
                   != act(coset_element(charge, k), lam)]
            if path_to_partition(path) != cp:
                yield "round trip failed at %s" % (cp,)
            elif path.weight() != weight_of(cp):
                yield "weights differ at %s" % (cp,)
            elif (path.m, path.n) != cp.bounding_rect:
                yield "directions miss the bounding rectangle at %s" % (cp,)
            elif off:
                yield "direction weight %d is off at %s" % (off[0], cp)
            else:
                yield iso_disagreement(cp, 0) or iso_disagreement(cp, 1)


@check("every canonical path comes from exactly one partition")
def check_path_bijectivity(m_max: int):
    for shape in (0, 1):
        for n in range(m_max + 1):
            # weakly decreasing steps in 1..n, at most m_max - n of them
            for length in range(m_max - n + 1):
                for steps in combinations_with_replacement(range(n, 0, -1),
                                                           length):
                    path = LSPath(shape, n, steps)
                    bad = partition_to_path(path_to_partition(path)) != path
                    yield "round trip failed at %s" % (path,) if bad else None


@check("path dominance matches the raising-operator test")
def check_dominance(max_boxes: int):
    for cp in enumerate_regular(0, max_boxes):
        path = partition_to_path(cp)
        for j in (0, 1):
            by_path = is_lambda_dominant(path, j)
            by_ops = all(epsilon(cp, i) <= (1 if i == j else 0) for i in (0, 1))
            wanted = 1 if j == 0 else 0
            by_parts = all(p % 2 == wanted for p in cp.parts)
            bad = by_path != by_ops or by_path != by_parts
            yield "%s, fundamental %d" % (cp, j) if bad else None


def integrality_disagreement(path: LSPath, i: int) -> str | None:
    """Where the exact profile of path parts from the profile scaled by
    D = lcm(1, ..., m + 1), rebuilt off the steps (step / k is the time at
    which direction k ends) and the direction weights, or where a local
    minimum of h is not an integer; None when neither."""
    D = lcm(*range(1, path.m + 2))
    dirs, times, values = [], [0], [0]
    for j in range(len(path.steps), -1, -1):
        k = path.n + j
        t = path.steps[j - 1] * (D // k) if j else D
        weight = direction_weight(path.shape, k)
        dirs.append(pair_coroot(weight, 1))
        values.append(values[-1] + pair_coroot(weight, i) * (t - times[-1]))
        times.append(t)
    exact_dirs, exact_times, H = _int_profile((path,), i)
    scaled = [(a * D // q, (floor * q + rest) * D // q)
              for (a, q), (floor, rest) in zip(exact_times, H)]
    if (exact_dirs, scaled) != (dirs, list(zip(times, values))):
        return "scaled profile differs at %s, i=%d" % (path, i)
    if any(v % D for u, v, w in zip(values, values[1:], values[2:])
           if v < u and v <= w):
        return "%s, i=%d" % (path, i)
    return None


@check("pairing profiles have integer local minima")
def check_path_integrality(max_boxes: int):
    for cp, i in labelled_partitions(max_boxes):
        yield integrality_disagreement(partition_to_path(cp), i)


def tensor_rule_disagreement(t: TensorElement, left_path: LSPath,
                             right_path: LSPath, i: int,
                             op: str) -> str | None:
    """Where the tensor rule parts from the root operator op ('f' or 'e')
    on the concatenation of the factors' paths; None when they agree."""
    via_rule = (tensor_f if op == "f" else tensor_e)(i, t)
    via_paths = concat_path_op(i, left_path, right_path, op)
    if (via_rule is None) != (via_paths is None):
        return "%s kill mismatch at %s, i=%d" % (op, t, i)
    if via_rule is None:
        return None
    # the rule moves one factor; only a factor that moved is converted
    left, right = via_rule.left, via_rule.right
    if via_paths != (left_path if left == t.left else partition_to_path(left),
                     right_path if right == t.right
                     else partition_to_path(right)):
        return "%s images differ at %s, i=%d" % (op, t, i)
    return None


@check("tensor rule vs concatenated-path operators")
def check_tensor_convention(side_boxes: int):
    rights = [(b2, partition_to_path(b2))
              for b2 in enumerate_regular(0, side_boxes)]
    for charge in (0, 1):
        for b1 in enumerate_regular(charge, side_boxes):
            p1 = partition_to_path(b1)
            for b2, p2 in rights:
                t = TensorElement(b1, b2)
                for i in (0, 1):
                    for op in ("f", "e"):
                        yield tensor_rule_disagreement(t, p1, p2, i, op)


def structure_disagreement(t: TensorElement) -> str | None:
    """Where t breaks the highest-weight law or, highest, has a weight
    other than its summand's (`weight_of_dominant`), f_i or e_i steps the
    weight by other than the simple root or is not undone by the other,
    or raising increases the associated element; None when all hold."""
    wanted = 1 if t.left.charge == 0 else 0
    classified = (not t.left.parts
                  and all(p % 2 == wanted for p in t.right.parts))
    if is_highest_weight(t) != classified:
        return "highest-weight law fails at %s" % (t,)
    weight, element = t.weight(), associated_weyl_element(t)
    if classified and weight != weight_of_dominant(t.left.charge, t.right):
        return "highest weight differs from its summand's at %s" % (t,)
    for i in (0, 1):
        down, up = tensor_f(i, t), tensor_e(i, t)
        if down is not None and down.weight() != weight - simple_root(i):
            return "f weight step wrong at %s, i=%d" % (t, i)
        if down is not None and tensor_e(i, down) != t:
            return "e f != id at %s, i=%d" % (t, i)
        if up is not None and not bruhat_leq(associated_weyl_element(up),
                                             element):
            return "raising increased the associated element at %s" % (t,)
        if up is not None and up.weight() != weight + simple_root(i):
            return "e weight step wrong at %s, i=%d" % (t, i)
        if up is not None and tensor_f(i, up) != t:
            return "f e != id at %s, i=%d" % (t, i)
    return None


@check("tensor weights, highest-weight law, monotone descent")
def check_tensor_structure(max_boxes: int):
    for charge in (0, 1):
        for t in tensor_pairs(charge, max_boxes):
            yield structure_disagreement(t)


@check("submodule crystals are stable under the operators")
def check_kk_invariance(p_max: int, max_boxes: int):
    for spec in kk_specs(p_max):
        graph = kk_crystal_graph(spec, max_boxes)
        lowered = {(a, i): graph.vertices[b] for a, i, b in graph.edges}
        # e_i undoes f_i (check_tensor_structure): i-arrows into t are from
        # e_i(t); an arrow met twice leaves a string, which no e_i image equals
        raised = {}
        for a, i, b in graph.edges:
            raised[b, i] = "twice" if (b, i) in raised else graph.vertices[a]
        for k, t in enumerate(graph.vertices):
            at_bound = t.total_boxes >= max_boxes
            for i in (0, 1):
                up = tensor_e(i, t)
                down = tensor_f(i, t) if at_bound else lowered.get((k, i))
                escaped = not ((down is None or in_kk_crystal(spec, down))
                               and (up is None or in_kk_crystal(spec, up)))
                yield (None if not escaped and raised.get((k, i)) == up else
                       "%s K(%d, %d) at %s, i=%d"
                       % ("escaped" if escaped else "arrows differ from f_i in",
                          spec.lambda_type, spec.p, t, i))


@check("rectangle membership vs Bruhat-bound membership")
def check_kk_membership_routes(p_max: int, max_boxes: int):
    for spec in kk_specs(p_max):
        for t in tensor_pairs(spec.lambda_type, max_boxes):
            bad = in_kk_crystal(spec, t) != in_kk_crystal_by_weyl(spec, t)
            yield ("routes disagree for K(%d, %d) at %s"
                   % (spec.lambda_type, spec.p, t) if bad else None)


@check("generating-function tables vs highest-weight counts")
def check_kk_decomposition(p_max: int, cutoff: int):
    for spec in kk_specs(p_max):
        bad = (decomposition(spec, cutoff)
               != decomposition_via_crystal(spec, cutoff))
        yield ("tables differ for K(%d, %d)" % (spec.lambda_type, spec.p)
               if bad else None)


@check("large-p tables match the full tensor product")
def check_kk_stabilization(cutoff: int):
    for lambda_type in (0, 1):
        # sets of distinct odd (lambda_type 0) or even parts, by sum
        top = 2 * cutoff + 1
        coeffs = [0] * (top + 1)
        for dominant in dominant_set(lambda_type, top, top):
            coeffs[dominant.size] += 1
        odd = tuple(coeffs[1::2]) if lambda_type == 0 else None
        full = MultiplicityTable(tuple(coeffs[0::2]), odd)
        p = 2 * cutoff + 1 if lambda_type == 0 else 2 * cutoff + 2
        bad = decomposition(KKSpec(lambda_type, p), cutoff) != full
        yield ("stabilization fails for lambda_type %d" % lambda_type
               if bad else None)


@check("tables grow entrywise with p")
def check_kk_monotone(p_max: int, cutoff: int):
    for lambda_type in (0, 1):
        ps = _valid_p_values(lambda_type, p_max)
        for small, large in zip(ps, ps[1:]):
            ts = decomposition(KKSpec(lambda_type, small), cutoff)
            tl = decomposition(KKSpec(lambda_type, large), cutoff)
            if any(x > y for x, y in zip(ts.a, tl.a)):
                yield "a-entries drop from p=%d to p=%d" % (small, large)
            elif ts.b is not None and any(x > y for x, y in zip(ts.b, tl.b)):
                yield "b-entries drop from p=%d to p=%d" % (small, large)
            else:
                yield None


def suite_bruhat(len_max: int, index_max: int, **_) -> list[CheckResult]:
    return [check_bruhat_subword(len_max),
            check_left_multiply_involution(len_max),
            check_ideal_min(min(len_max, 6)),
            check_double_coset_index(index_max)]


def suite_signatures(max_boxes: int, **_) -> list[CheckResult]:
    return [check_signature_closed_form(max_boxes),
            check_reduction_oracle(max_boxes),
            check_operator_inverses(max_boxes),
            check_string_lengths(min(max_boxes, 10))]


def suite_iso(max_boxes: int, **_) -> list[CheckResult]:
    return [check_iso_commutation(max_boxes),
            check_path_bijectivity(max_boxes),
            check_dominance(max_boxes),
            check_path_integrality(max_boxes)]


def suite_tensor(side_boxes: int, max_boxes: int, **_) -> list[CheckResult]:
    return [check_tensor_convention(side_boxes),
            check_tensor_structure(max_boxes)]


def suite_kk(p_max: int, max_boxes: int, cutoff: int,
             **_) -> list[CheckResult]:
    return [check_kk_invariance(p_max, max_boxes),
            check_kk_membership_routes(p_max, max_boxes),
            check_kk_decomposition(max(p_max, 2), cutoff),
            check_kk_stabilization(cutoff),
            check_kk_monotone(max(p_max, 2), cutoff)]


SUITES = {
    "bruhat": suite_bruhat,
    "signatures": suite_signatures,
    "iso": suite_iso,
    "tensor": suite_tensor,
    "kk": suite_kk,
}


def run_suites(names, **sizes) -> list[CheckResult]:
    """The results of the named suites in order; each suite reads the
    sizes it names and ignores the rest; they share one enumeration."""
    with _one_enumeration():
        return [result for name in names for result in SUITES[name](**sizes)]
