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

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .iso import partition_to_path, path_to_partition
from .kk import (KKSpec, MultiplicityTable, decomposition,
                 decomposition_via_crystal, dominant_set, in_kk_crystal,
                 in_kk_crystal_by_weyl, kk_crystal_members)
from .partitions import (ChargedPartition, Signature, closed_form_signature,
                         e_op, enumerate_regular, epsilon, f_op, phi,
                         reduce_signature, signature, weight_of)
from .paths import (LSPath, _denominator, _int_profile, direction_weight,
                    e_path, f_path, h_function, is_lambda_dominant, shape_sign)
from .tensor import (TensorElement, associated_weyl_element, concat_path_op,
                     is_highest_weight, tensor_e, tensor_f, tensor_pairs)
from .weights import act, fundamental, simple_root
from .weyl import (WeylElement, bruhat_ideal, bruhat_ideal_min, bruhat_leq,
                   coset_element, double_coset_min, double_coset_min_index,
                   left_multiply)

FAILURE_CAP = 5


@dataclass
class CheckResult:
    """Cases and failures of one check.  A check runs its cases inside
    `with CheckResult(name) as res:`, so an Exception raised by a case
    ends the check with the failure "<ExceptionType>: <message>" and the
    cases counted so far."""

    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self):
        self.cases += 1

    def fail(self, message: str):
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(message)

    def __enter__(self) -> "CheckResult":
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        if not isinstance(exc, Exception):
            return False
        self.fail("%s: %s" % (kind.__name__, exc))
        return True


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


def formal_reduction(sig: Signature) -> Signature:
    """Delete the union of all reducible substrings, found by exhaustive
    search over substrings."""
    signs = sig.signs
    drop: set[int] = set()
    for a in range(len(signs)):
        for b in range(a + 1, len(signs) + 1):
            if _is_reducible(signs[a:b]):
                drop.update(range(a, b))
    return Signature(tuple(e for k, e in enumerate(sig.entries) if k not in drop))


def move_at_column(cp: ChargedPartition, c: int,
                   step: int) -> ChargedPartition:
    """cp with a box added below column c (step 1) or the bottom box of
    column c removed (step -1), found from the column height."""
    h = sum(1 for p in cp.parts if p >= c)
    parts = list(cp.parts) + [0]
    parts[h if step > 0 else h - 1] += step
    return ChargedPartition(tuple(p for p in parts if p), cp.charge)


def kernel_disagreement(cp: ChargedPartition, i: int,
                        reduced: Signature) -> str | None:
    """Where the one-pass operators part from the reduced column scan:
    phi and epsilon must count its '+' and '-', f_i must add at the column
    of its rightmost '+' and e_i remove at the column of its leftmost
    '-'; None when they agree."""
    plus = [c for s, c in reduced.entries if s == "+"]
    minus = [c for s, c in reduced.entries if s == "-"]
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
    if lambda_type == 0:
        return [0] + [p for p in range(1, p_max + 1, 2)]
    return [p for p in range(0, p_max + 1, 2)]


# --- suites ---------------------------------------------------------------

def check_bruhat_subword(len_max: int = 8) -> CheckResult:
    with CheckResult("bruhat closed form vs subword oracle") as res:
        elems = all_elements(len_max)
        for u in elems:
            for w in elems:
                res.count()
                if bruhat_leq(u, w) != subword_leq(u, w):
                    res.fail("disagree on (%s, %s)" % (u, w))
    return res


def check_left_multiply_involution(len_max: int = 8) -> CheckResult:
    with CheckResult("left multiplication is an involution per generator") as res:
        for w in all_elements(len_max):
            for g in (0, 1):
                res.count()
                if left_multiply(g, left_multiply(g, w)) != w:
                    res.fail("s%d twice moved %s" % (g, w))
    return res


def check_ideal_min(len_max: int = 6) -> CheckResult:
    with CheckResult("iterated wedges compute the Bruhat-ideal minimum") as res:
        elems = all_elements(len_max)
        for x in elems:
            ideal = bruhat_ideal(x)
            for y in elems:
                res.count()
                z = bruhat_ideal_min(x, y)
                orbit = [left_multiply_word(u, y) for u in ideal]
                if z not in orbit or any(not bruhat_leq(z, v) for v in orbit):
                    res.fail("min I(%s)%s gave %s" % (x, y, z))
    return res


def left_multiply_word(u: WeylElement, y: WeylElement) -> WeylElement:
    for g in reversed(u.word()):
        y = left_multiply(g, y)
    return y


def check_double_coset_index(index_max: int = 12) -> CheckResult:
    with CheckResult("double-coset minimum closed form vs wedge route") as res:
        for lambda_type in (0, 1):
            sign = "+" if lambda_type == 0 else "-"
            for n in range(index_max + 1):
                tau = coset_element(sign, n)
                for m in range(index_max + 1):
                    res.count()
                    z = bruhat_ideal_min(tau.inverse(), coset_element("+", m))
                    w = double_coset_min(lambda_type, z, 0)
                    expected = coset_element(
                        "+", double_coset_min_index(lambda_type, n, m))
                    if w != expected:
                        res.fail("type %d, n=%d, m=%d: %s != %s"
                                 % (lambda_type, n, m, w, expected))
    return res


def check_signature_closed_form(max_boxes: int = 12) -> CheckResult:
    with CheckResult("closed-form signatures vs column scan") as res:
        for cp, i in labelled_partitions(max_boxes):
            if cp.parts:
                res.count()
                if closed_form_signature(cp, i) != signature(cp, i).signs:
                    res.fail("%s, i=%d" % (cp, i))
    return res


def check_reduction_oracle(max_boxes: int = 12) -> CheckResult:
    with CheckResult("stack cancellation vs reducible-substring deletion") as res:
        for cp, i in labelled_partitions(max_boxes):
            res.count()
            sig = signature(cp, i)
            reduced = reduce_signature(sig)
            if reduced != formal_reduction(sig):
                res.fail("%s, i=%d" % (cp, i))
            signs = reduced.signs
            if signs != "+" * signs.count("+") + "-" * signs.count("-"):
                res.fail("reduced signature %r is not plus-then-minus" % signs)
            message = kernel_disagreement(cp, i, reduced)
            if message:
                res.fail(message)
    return res


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


def check_operator_inverses(max_boxes: int = 12) -> CheckResult:
    with CheckResult("raising and lowering operators are partial inverses") as res:
        for cp, i in labelled_partitions(max_boxes):
            res.count()
            message = inverse_disagreement(cp, i)
            if message:
                res.fail(message)
    return res


def check_string_lengths(max_boxes: int = 10) -> CheckResult:
    with CheckResult("epsilon and phi count the operator string lengths") as res:
        for cp, i in labelled_partitions(max_boxes):
            res.count()
            eps, ph = epsilon(cp, i), phi(cp, i)
            if string_length(cp, e_op, i, eps) != eps:
                res.fail("epsilon mismatch at %s, i=%d" % (cp, i))
            if string_length(cp, f_op, i, ph) != ph:
                res.fail("phi mismatch at %s, i=%d" % (cp, i))
    return res


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


def check_iso_commutation(max_boxes: int = 12) -> CheckResult:
    with CheckResult("partition/path bijection commutes with the operators") as res:
        for charge in (0, 1):
            sign, lam = shape_sign(charge), fundamental(charge)
            for cp in enumerate_regular(charge, max_boxes):
                path = partition_to_path(cp)
                res.count()
                if path_to_partition(path) != cp:
                    res.fail("round trip failed at %s" % cp)
                if path.evaluate(1) != weight_of(cp):
                    res.fail("weights differ at %s" % cp)
                if (path.m, path.n) != cp.bounding_rect:
                    res.fail("directions miss the bounding rectangle at %s" % cp)
                for k in (path.m, path.n):
                    if direction_weight(charge, k) != act(coset_element(sign, k), lam):
                        res.fail("direction weight %d is off at %s" % (k, cp))
                for i in (0, 1):
                    message = iso_disagreement(cp, i)
                    if message:
                        res.fail(message)
    return res


def check_path_bijectivity(m_max: int = 12) -> CheckResult:
    with CheckResult("every canonical path comes from exactly one partition") as res:
        for shape in (0, 1):
            for n in range(m_max + 1):
                for steps in _box_partitions(n, m_max - n):
                    res.count()
                    path = LSPath(shape, n, steps)
                    if partition_to_path(path_to_partition(path)) != path:
                        res.fail("round trip failed at %s" % path)
    return res


def _box_partitions(max_part: int, max_len: int):
    """Weakly decreasing tuples with at most max_len entries in
    1..max_part (possibly empty), shortest first."""
    for length in range(max_len + 1):
        yield from combinations_with_replacement(range(max_part, 0, -1), length)


def check_dominance(max_boxes: int = 12) -> CheckResult:
    with CheckResult("path dominance matches the raising-operator test") as res:
        for cp in enumerate_regular(0, max_boxes):
            path = partition_to_path(cp)
            for j in (0, 1):
                res.count()
                by_path = is_lambda_dominant(path, j)
                by_ops = all(epsilon(cp, i) <= (1 if i == j else 0) for i in (0, 1))
                wanted = 1 if j == 0 else 0
                by_parts = all(p % 2 == wanted for p in cp.parts)
                if by_path != by_ops or by_path != by_parts:
                    res.fail("%s, fundamental %d" % (cp, j))
    return res


def check_path_integrality(max_boxes: int = 12) -> CheckResult:
    with CheckResult("pairing profiles have integer local minima") as res:
        for cp, i in labelled_partitions(max_boxes):
            res.count()
            path = partition_to_path(cp)
            D = _denominator(path.m)
            points = h_function(path, i).points
            scaled = list(zip(*_int_profile(path, i, D)))
            if scaled != [(t * D, h * D) for t, h in points]:
                res.fail("scaled profile differs at %s, i=%d" % (cp, i))
            values = [v for _, v in points]
            for k in range(1, len(values) - 1):
                if values[k] < values[k - 1] and values[k] <= values[k + 1]:
                    if values[k].denominator != 1:
                        res.fail("%s, i=%d" % (cp, i))
    return res


def tensor_rule_disagreement(t: TensorElement, left_path: LSPath,
                             right_path: LSPath, i: int,
                             op: str) -> str | None:
    """Where the tensor rule parts from the root operator op ('f' or 'e')
    on the concatenation of the factors' paths; None when they agree."""
    via_rule = (tensor_f if op == "f" else tensor_e)(i, t)
    via_paths = concat_path_op(i, left_path, right_path, op)
    if (via_rule is None) != (via_paths is None):
        return "%s kill mismatch at %s, i=%d" % (op, t, i)
    if via_rule is not None and via_paths != (partition_to_path(via_rule.left),
                                              partition_to_path(via_rule.right)):
        return "%s images differ at %s, i=%d" % (op, t, i)
    return None


def check_tensor_convention(side_boxes: int = 6) -> CheckResult:
    with CheckResult("tensor rule vs concatenated-path operators") as res:
        rights = enumerate_regular(0, side_boxes)
        for charge in (0, 1):
            lefts = enumerate_regular(charge, side_boxes)
            for b1 in lefts:
                p1 = partition_to_path(b1)
                for b2 in rights:
                    p2 = partition_to_path(b2)
                    t = TensorElement(b1, b2)
                    for i in (0, 1):
                        for op in ("f", "e"):
                            res.count()
                            message = tensor_rule_disagreement(t, p1, p2, i, op)
                            if message:
                                res.fail(message)
    return res


def check_tensor_structure(max_boxes: int = 10) -> CheckResult:
    with CheckResult("tensor weights, highest-weight law, monotone descent") as res:
        for charge in (0, 1):
            wanted = 1 if charge == 0 else 0
            for t in tensor_pairs(charge, max_boxes):
                res.count()
                classified = (not t.left.parts
                              and all(p % 2 == wanted for p in t.right.parts))
                if is_highest_weight(t) != classified:
                    res.fail("highest-weight law fails at %s" % t)
                for i in (0, 1):
                    down = tensor_f(i, t)
                    if down is not None:
                        if down.weight() != t.weight() - simple_root(i):
                            res.fail("f weight step wrong at %s, i=%d" % (t, i))
                        if tensor_e(i, down) != t:
                            res.fail("e f != id at %s, i=%d" % (t, i))
                    up = tensor_e(i, t)
                    if up is not None and not bruhat_leq(
                            associated_weyl_element(up),
                            associated_weyl_element(t)):
                        res.fail("raising increased the associated element at %s"
                                 % (t,))
    return res


def check_kk_invariance(p_max: int = 5, max_boxes: int = 10) -> CheckResult:
    with CheckResult("submodule crystals are stable under the operators") as res:
        for spec in kk_specs(p_max):
            for t in kk_crystal_members(spec, max_boxes):
                for i in (0, 1):
                    res.count()
                    for image in (tensor_f(i, t), tensor_e(i, t)):
                        if image is not None and not in_kk_crystal(spec, image):
                            res.fail("escaped K(%d, %d) at %s, i=%d"
                                     % (spec.lambda_type, spec.p, t, i))
    return res


def check_kk_membership_routes(p_max: int = 5, max_boxes: int = 10) -> CheckResult:
    with CheckResult("rectangle membership vs Bruhat-bound membership") as res:
        for spec in kk_specs(p_max):
            for t in tensor_pairs(spec.lambda_type, max_boxes):
                res.count()
                if in_kk_crystal(spec, t) != in_kk_crystal_by_weyl(spec, t):
                    res.fail("routes disagree for K(%d, %d) at %s"
                             % (spec.lambda_type, spec.p, t))
    return res


def check_kk_decomposition(p_max: int = 9, cutoff: int = 6) -> CheckResult:
    with CheckResult("generating-function tables vs highest-weight counts") as res:
        for spec in kk_specs(p_max):
            res.count()
            if (decomposition(spec, cutoff)
                    != decomposition_via_crystal(spec, cutoff)):
                res.fail("tables differ for K(%d, %d)" % (spec.lambda_type, spec.p))
    return res


def check_kk_stabilization(cutoff: int = 6) -> CheckResult:
    with CheckResult("large-p tables match the full tensor product") as res:
        for lambda_type in (0, 1):
            res.count()
            # sets of distinct odd (lambda_type 0) or even parts, by sum
            top = 2 * cutoff + 1
            coeffs = [0] * (top + 1)
            for b in dominant_set(lambda_type, top, top):
                coeffs[b.size] += 1
            full = MultiplicityTable(coeffs[0::2],
                                     coeffs[1::2] if lambda_type == 0 else None,
                                     cutoff)
            p = 2 * cutoff + 1 if lambda_type == 0 else 2 * cutoff + 2
            if decomposition(KKSpec(lambda_type, p), cutoff) != full:
                res.fail("stabilization fails for lambda_type %d" % lambda_type)
    return res


def check_kk_monotone(p_max: int = 9, cutoff: int = 6) -> CheckResult:
    with CheckResult("tables grow entrywise with p") as res:
        for lambda_type in (0, 1):
            ps = _valid_p_values(lambda_type, p_max)
            for small, large in zip(ps, ps[1:]):
                res.count()
                ts = decomposition(KKSpec(lambda_type, small), cutoff)
                tl = decomposition(KKSpec(lambda_type, large), cutoff)
                if any(x > y for x, y in zip(ts.a, tl.a)):
                    res.fail("a-entries drop from p=%d to p=%d" % (small, large))
                if ts.b is not None and any(x > y for x, y in zip(ts.b, tl.b)):
                    res.fail("b-entries drop from p=%d to p=%d" % (small, large))
    return res


def suite_bruhat(len_max: int = 8, index_max: int = 12, **_) -> list[CheckResult]:
    return [check_bruhat_subword(len_max),
            check_left_multiply_involution(len_max),
            check_ideal_min(min(len_max, 6)),
            check_double_coset_index(index_max)]


def suite_signatures(max_boxes: int = 12, **_) -> list[CheckResult]:
    return [check_signature_closed_form(max_boxes),
            check_reduction_oracle(max_boxes),
            check_operator_inverses(max_boxes),
            check_string_lengths(min(max_boxes, 10))]


def suite_iso(max_boxes: int = 12, **_) -> list[CheckResult]:
    return [check_iso_commutation(max_boxes),
            check_path_bijectivity(max_boxes),
            check_dominance(max_boxes),
            check_path_integrality(max_boxes)]


def suite_tensor(side_boxes: int = 6, max_boxes: int = 10, **_) -> list[CheckResult]:
    return [check_tensor_convention(side_boxes),
            check_tensor_structure(max_boxes)]


def suite_kk(p_max: int = 5, max_boxes: int = 10, cutoff: int = 6, **_) \
        -> list[CheckResult]:
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
    results = []
    for name in names:
        results.extend(SUITES[name](**sizes))
    return results
