"""Kostant-Kumar submodule crystals and their decomposition tables.

A submodule crystal is named by (lambda_type, p): lambda_type picks which
level-one module the left tensor factor comes from, and w_p^+ (p zero or
odd for lambda_type 0, zero or even for lambda_type 1, so that w_p^+ is
the minimal representative of its double coset) is the extremal-weight
parameter.  Membership of a pair is a rectangle inequality in the
bounding rectangles of the two partitions, equivalently a Bruhat bound on
the associated double-coset element; both routes are implemented and the
tests compare them.  The graph of a submodule crystal is its member
list, in canonical order, with the f_i arrows among the members.

Multiplicities of the irreducible summands come from truncations of the
distinct-odd-parts / distinct-even-parts product generating functions,
with the highest-weight-element count inside the crystal as the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import ChargedPartition, enumerate_regular
from .tensor import (CrystalGraph, TensorElement, associated_weyl_element,
                     crystal_graph, is_highest_weight, tensor_pairs)
from .weights import Weight, fundamental, simple_root
from .weyl import _check_label, bruhat_leq, coset_element


@dataclass(frozen=True)
class KKSpec:
    """Names one submodule crystal; mu is always the 0th fundamental
    weight, so only the left type and the length parameter vary."""

    lambda_type: int
    p: int

    def __post_init__(self):
        if type(self.lambda_type) is not int or type(self.p) is not int:
            raise TypeError("lambda_type and p must be integers")
        _check_label(self.lambda_type, "lambda_type")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.lambda_type == 0 and self.p != 0 and self.p % 2 == 0:
            raise ValueError("for lambda_type 0, p must be 0 or odd")
        if self.lambda_type == 1 and self.p % 2 == 1:
            raise ValueError("for lambda_type 1, p must be 0 or even")


@dataclass(frozen=True)
class MultiplicityTable:
    """Outer multiplicities a_n (and b_n when the second weight family is
    present) indexed by the null-root degree n = 0 .. cutoff."""

    a: tuple[int, ...]
    b: tuple[int, ...] | None

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


def in_kk_crystal(spec: KKSpec, t: TensorElement) -> bool:
    """Rectangle-inequality membership test."""
    _check_left_charge(spec, t)
    m = t.right.parts[0] if t.right.parts else 0
    n = len(t.left.parts)
    if spec.lambda_type == 0 and spec.p == 0:
        return m <= n
    return m - n <= spec.p + 1


def in_kk_crystal_by_weyl(spec: KKSpec, t: TensorElement) -> bool:
    """Membership via the Bruhat bound on the associated element."""
    _check_left_charge(spec, t)
    return bruhat_leq(associated_weyl_element(t), coset_element("+", spec.p))


def dominant_set(lambda_type: int, m: int, max_size: int) -> list[ChargedPartition]:
    """Charge-0 partitions into distinct odd parts (lambda_type 0) or
    distinct even parts (lambda_type 1), largest part at most m, at most
    max_size boxes."""
    _check_label(lambda_type)
    wanted = 1 if lambda_type == 0 else 0
    return [cp for cp in enumerate_regular(0, max_size)
            if (not cp.parts or cp.parts[0] <= m)
            and all(p % 2 == wanted for p in cp.parts)]


def weight_of_dominant(lambda_type: int, b: ChargedPartition) -> Weight:
    """Highest weight of the summand attached to a dominant partition."""
    _check_label(lambda_type)
    k, rem = divmod(b.size, 2)
    delta = simple_root(0) + simple_root(1)
    if lambda_type == 0:
        top = 2 * fundamental(0) - k * delta
        return top - simple_root(0) if rem else top
    if rem:
        raise ValueError("distinct even parts always have even size")
    return fundamental(0) + fundamental(1) - k * delta


def _check_cutoff(cutoff):
    if type(cutoff) is not int:
        raise TypeError("cutoff must be an integer")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")


def _truncated_product(factors, max_degree: int) -> list[int]:
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for j in factors:
        for d in range(max_degree, j - 1, -1):
            coeffs[d] += coeffs[d - j]
    return coeffs


def decomposition(spec: KKSpec, cutoff: int) -> MultiplicityTable:
    """Generating-function route: expand the product of (1 + x^j) over
    odd (lambda_type 0) or even (lambda_type 1) j up to p.

    The table reads coefficients up to degree 2*cutoff + 1 only, and a
    factor with j above that degree cannot reach one, so the product
    stops at min(p, 2*cutoff + 1).  For p past that bound the table is
    the one of the whole tensor product."""
    _check_cutoff(cutoff)
    max_degree = 2 * cutoff + 1
    first = 1 if spec.lambda_type == 0 else 2
    factors = range(first, min(spec.p, max_degree) + 1, 2)
    coeffs = _truncated_product(factors, max_degree)
    b = tuple(coeffs[1::2]) if spec.lambda_type == 0 else None
    return MultiplicityTable(tuple(coeffs[0::2]), b)


def decomposition_via_crystal(spec: KKSpec, cutoff: int) -> MultiplicityTable:
    """Independent oracle: count highest-weight pairs inside the crystal,
    bucketed by the size of the right factor."""
    _check_cutoff(cutoff)
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


def _canonical_key(t: TensorElement):
    return (t.total_boxes, t.left.parts, t.left.charge, t.right.parts)


def kk_crystal_members(spec: KKSpec, max_boxes: int) -> list[TensorElement]:
    """Every member with at most max_boxes boxes in total, in canonical
    order: by total size, then left parts, left charge, right parts."""
    out = [t for t in tensor_pairs(spec.lambda_type, max_boxes)
           if in_kk_crystal(spec, t)]
    out.sort(key=_canonical_key)
    return out


def kk_crystal_graph(spec: KKSpec, max_boxes: int) -> CrystalGraph:
    return crystal_graph(kk_crystal_members(spec, max_boxes), max_boxes)
