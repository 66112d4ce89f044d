"""Kostant-Kumar submodule crystals and their decomposition tables.

A submodule crystal is named by (lambda_type, p): lambda_type picks which
level-one module the left tensor factor comes from, and w_p^+ (p zero or
odd for lambda_type 0, zero or even for lambda_type 1, so that w_p^+ is
the minimal representative of its double coset; `_p_allowed` is the one
statement of that rule) is the extremal-weight parameter.  Membership of
a pair is a rectangle inequality in the bounding rectangles of the two
partitions, equivalently a Bruhat bound on the double-coset Weyl element
attached to the pair (`associated_weyl_element`, which only that route
reads); both routes are implemented and the tests compare them.  The
graph of a submodule crystal is its member list, by total size and then
in tuple order, with the f_i arrows.

Multiplicities of the irreducible summands come from truncations of the
distinct-odd-parts / distinct-even-parts product generating functions,
with the highest-weight-element count inside the crystal as the
independent oracle.
"""

from __future__ import annotations

from .partitions import ChargedPartition, _distinct_parts, enumerate_regular
from .tensor import (CrystalGraph, TensorElement, _pair, _pair_walk,
                     crystal_graph, is_highest_weight)
from .weights import (DELTA, Weight, _check_count, _check_label,
                      _checked_tuple, fundamental, simple_root)
from .weyl import (WeylElement, bruhat_leq, coset_element,
                   double_coset_min_index)


def _p_allowed(lambda_type: int, p: int) -> bool:
    """Whether w_p^+ is the minimal representative of its double coset
    for the left type: p is 0, odd for lambda_type 0, even for 1."""
    return p == 0 or p % 2 != lambda_type


class KKSpec(_checked_tuple("KKSpec", "lambda_type p")):
    """Names one submodule crystal; mu is always the 0th fundamental
    weight, so only the left type and the length parameter vary."""

    __slots__ = ()

    def __new__(cls, lambda_type: int, p: int):
        if type(lambda_type) is not int:
            raise TypeError("lambda_type must be an integer")
        _check_count(p, "p")
        _check_label(lambda_type, "lambda_type")
        if not _p_allowed(lambda_type, p):
            raise ValueError("for lambda_type %d, p must be 0 or %s"
                             % (lambda_type, "even" if lambda_type else "odd"))
        return tuple.__new__(cls, (lambda_type, p))


class MultiplicityTable(_checked_tuple("MultiplicityTable", "a b")):
    """Tuples of the outer multiplicities a_n (and b_n when the second weight
    family is present, else None) by null-root degree n = 0 .. cutoff."""

    __slots__ = ()

    @property
    def cutoff(self) -> int:
        return len(self.a) - 1

    def to_tsv(self) -> str:
        columns = (self.a,) if self.b is None else (self.a, self.b)
        lines = ["n\ta_n" + ("" if self.b is None else "\tb_n")]
        lines += ["\t".join(map(str, row))
                  for row in zip(range(len(self.a)), *columns)]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        out = {"cutoff": self.cutoff, "a": list(self.a)}
        if self.b is not None:
            out["b"] = list(self.b)
        return out


def _check_left_charge(spec: KKSpec, t: TensorElement) -> None:
    if t.left.charge != spec.lambda_type:
        raise ValueError("left charge %d does not match lambda_type %d"
                         % (t.left.charge, spec.lambda_type))


def _largest_right_part(spec: KKSpec, n: int) -> int:
    """The rectangle bound: largest right part when the left has n parts."""
    return n if spec.lambda_type == 0 and spec.p == 0 else n + spec.p + 1


def in_kk_crystal(spec: KKSpec, t: TensorElement) -> bool:
    """Rectangle-inequality membership test."""
    _check_left_charge(spec, t)
    m = t.right.parts[0] if t.right.parts else 0
    return m <= _largest_right_part(spec, len(t.left.parts))


def associated_weyl_element(t: TensorElement) -> WeylElement:
    """The minimal double-coset element attached to the pair, in closed
    form from the bounding rectangles: governs submodule membership.
    verify.check_double_coset_index checks the closed form against the
    wedge route min W_lambda I(tau^{-1}) w_m^+ W_0."""
    n = len(t.left.parts)
    m = t.right.parts[0] if t.right.parts else 0
    return coset_element(0, double_coset_min_index(t.left.charge, n, m))


def in_kk_crystal_by_weyl(spec: KKSpec, t: TensorElement) -> bool:
    """Membership via the Bruhat bound on the associated element."""
    _check_left_charge(spec, t)
    return bruhat_leq(associated_weyl_element(t), coset_element(0, spec.p))


def _dominant_parts(lambda_type: int, top: int) -> range:
    """The parts up to top that a dominant partition may have: odd for
    lambda_type 0, even for 1; the one statement of that rule."""
    return range(1 + lambda_type, top + 1, 2)


def dominant_set(lambda_type: int, m: int, max_size: int) -> list[ChargedPartition]:
    """Charge-0 partitions into distinct odd parts (lambda_type 0) or
    distinct even parts (lambda_type 1), largest part at most m, at most
    max_size boxes, in enumeration order; listed from those parts alone,
    so the cost follows the answer and not m."""
    _check_label(lambda_type)
    _check_count(m, "m")
    _check_count(max_size, "max_size")
    allowed = _dominant_parts(lambda_type, min(m, max_size))
    return [ChargedPartition(parts, 0)
            for parts in _distinct_parts(allowed, max_size)]


def weight_of_dominant(lambda_type: int, b: ChargedPartition) -> Weight:
    """Highest weight of the summand attached to a dominant partition:
    charge 0 and only the parts `_dominant_parts` allows, else ValueError."""
    _check_label(lambda_type)
    allowed = _dominant_parts(lambda_type, b.size)
    if b.charge or any(part not in allowed for part in b.parts):
        raise ValueError("%s is not dominant for lambda_type %d"
                         % (b.display(), lambda_type))
    k, rem = divmod(b.size, 2)
    if lambda_type == 0:
        top = 2 * fundamental(0) - k * DELTA
        return top - simple_root(0) if rem else top
    return fundamental(0) + fundamental(1) - k * DELTA


def decomposition(spec: KKSpec, cutoff: int) -> MultiplicityTable:
    """Generating-function route: expand the product of (1 + x^j) over
    odd (lambda_type 0) or even (lambda_type 1) j up to p.

    The table reads coefficients up to degree 2*cutoff + 1 only, and a
    factor with j above that degree cannot reach one, so the product
    stops at min(p, 2*cutoff + 1).  For p past that bound the table is
    the one of the whole tensor product."""
    _check_count(cutoff, "cutoff")
    max_degree = 2 * cutoff + 1
    coeffs = [1] + [0] * max_degree
    for j in _dominant_parts(spec.lambda_type, min(spec.p, max_degree)):
        for d in range(max_degree, j - 1, -1):
            coeffs[d] += coeffs[d - j]
    b = tuple(coeffs[1::2]) if spec.lambda_type == 0 else None
    return MultiplicityTable(tuple(coeffs[0::2]), b)


def decomposition_via_crystal(spec: KKSpec, cutoff: int) -> MultiplicityTable:
    """Independent oracle: count highest-weight pairs inside the crystal,
    bucketed by the size of the right factor."""
    _check_count(cutoff, "cutoff")
    a = [0] * (cutoff + 1)
    b = [0] * (cutoff + 1) if spec.lambda_type == 0 else None
    left = ChargedPartition((), spec.lambda_type)
    for cp in enumerate_regular(0, 2 * cutoff + 1):
        t = TensorElement(left, cp)
        if not in_kk_crystal(spec, t) or not is_highest_weight(t):
            continue
        k, rem = divmod(cp.size, 2)
        if rem:
            if b is None:
                raise AssertionError("odd sizes occur only for lambda_type 0")
            b[k] += 1
        else:
            a[k] += 1
    return MultiplicityTable(tuple(a), None if b is None else tuple(b))


def kk_crystal_members(spec: KKSpec, max_boxes: int) -> list[TensorElement]:
    """The `_pair_walk` pairs in the rectangle bound, by total size then as tuples."""
    walk = _pair_walk(spec.lambda_type, max_boxes)  # checks max_boxes first
    buckets = [[] for _ in range(max_boxes + 1)]
    for left, rights in walk:
        size, bound = left.size, _largest_right_part(spec, len(left.parts))
        for right in rights:
            if not right.parts or right.parts[0] <= bound:
                buckets[size + right.size].append(_pair(left, right))
    return [t for bucket in buckets for t in sorted(bucket)]


def kk_crystal_graph(spec: KKSpec, max_boxes: int) -> CrystalGraph:
    return crystal_graph(kk_crystal_members(spec, max_boxes), max_boxes)
