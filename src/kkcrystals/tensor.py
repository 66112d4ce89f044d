"""Tensor products of the level-one crystals on pairs of charged
partitions, the concatenated-path oracle, the double-coset Weyl element
attached to a pair, and the f_i arrows among a given list of pairs.

The tensor rule is: f_i acts on the left factor iff phi_i(left) is
strictly larger than epsilon_i(right), and e_i acts on the left factor
iff phi_i(left) >= epsilon_i(right); otherwise they act on the right
factor, and a kill on the chosen factor kills the pair.  The rule is not
an axiom here: concat_path_op applies the path root operator to the
concatenation of the two LS paths and re-splits, and the test suite
checks the two agree on every pair at desk scale.  The oracle scales
durations to ints by D = lcm(1, ..., M + 1), M the larger initial index,
and reflects `Weight` velocities, so it shares nothing with the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weights
from .partitions import (ChargedPartition, _add_box, _reduced, _remove_box,
                         enumerate_regular, weight_of)
from .paths import (LSPath, _crossing, _denominator, _int_chain, _int_profile,
                    _minimum, direction_weight)
from .weights import Weight, pair_coroot
from .weyl import WeylElement, coset_element, double_coset_min_index


@dataclass(frozen=True)
class TensorElement:
    """An ordered pair of charged partitions, each 2-regular by
    construction; the left charge selects the level-one crystal of the
    left factor, the right factor always has charge 0."""

    left: ChargedPartition
    right: ChargedPartition

    def __post_init__(self):
        if self.right.charge != 0:
            raise ValueError("right factor must have charge 0")

    @property
    def total_boxes(self) -> int:
        return self.left.size + self.right.size

    def weight(self) -> Weight:
        return weight_of(self.left) + weight_of(self.right)

    def display(self) -> str:
        return "%s ⊗ %s" % (self.left.display(), self.right.display())

    def __str__(self):
        return self.display()


def tensor_pairs(charge: int, max_boxes: int):
    """Every pair with at most max_boxes boxes in total, left factor of
    the given charge: left factors in enumeration order, and under each
    the right factors that fit, in enumeration order.  The right factors
    are listed once; the list is sorted by size, so each left factor
    stops at the first one that no longer fits."""
    rights = enumerate_regular(0, max_boxes)
    for left in enumerate_regular(charge, max_boxes):
        room = max_boxes - left.size
        for right in rights:
            if right.size > room:
                break
            yield TensorElement(left, right)


def tensor_f(i: int, t: TensorElement) -> TensorElement | None:
    left_phi, _, left_row, _ = _reduced(t.left, i)
    right_phi, right_eps, right_row, _ = _reduced(t.right, i)
    if left_phi > right_eps:
        return TensorElement(_add_box(t.left, left_row), t.right)
    if not right_phi:
        return None
    return TensorElement(t.left, _add_box(t.right, right_row))


def tensor_e(i: int, t: TensorElement) -> TensorElement | None:
    left_phi, left_eps, _, left_row = _reduced(t.left, i)
    _, right_eps, _, right_row = _reduced(t.right, i)
    if left_phi >= right_eps:
        if not left_eps:
            return None
        return TensorElement(_remove_box(t.left, left_row), t.right)
    return TensorElement(t.left, _remove_box(t.right, right_row))


def is_highest_weight(t: TensorElement) -> bool:
    return tensor_e(0, t) is None and tensor_e(1, t) is None


def associated_weyl_element(t: TensorElement) -> WeylElement:
    """The minimal double-coset element attached to the pair, in closed
    form from the bounding rectangles: governs submodule membership.
    verify.check_double_coset_index checks the closed form against the
    wedge route min W_lambda I(tau^{-1}) w_m^+ W_0."""
    n = len(t.left.parts)
    m = t.right.parts[0] if t.right.parts else 0
    return coset_element("+", double_coset_min_index(t.left.charge, n, m))


# --- concatenated-path oracle ------------------------------------------

def _cut_at(pieces, tcut: int):
    out, t = [], 0
    for v, d in pieces:
        out += [(v, tcut - t), (v, t + d - tcut)] if t < tcut < t + d else [(v, d)]
        t += d
    return out


def _apply_root_operator(pieces, i: int, op: str, D: int):
    """Generic path root operator on a (velocity, duration) list with
    durations scaled by D: reflect the window between the extreme
    attainment of the minimum of the pairing profile and its first return
    to minimum + 1.  Valid for integral paths (all local minima of the
    profile at integers), which covers LS paths and their concatenations."""
    times, H = [0], [0]
    for v, d in pieces:
        times.append(times[-1] + d)
        H.append(H[-1] + pair_coroot(v, i) * d)
    Q = _minimum(H, D)
    # a return exists: H[-1] >= Q + D for f, and H[0] = 0 >= Q + D for e
    if op == "f":
        if H[-1] - Q < D:
            return None
        k = max(j for j in range(len(H)) if H[j] == Q)
        j = next(j for j in range(k + 1, len(H)) if H[j] >= Q + D)
        lo, hi = times[k], _crossing(times[j - 1], H[j - 1], times[j], H[j], Q + D)
    elif op == "e":
        if Q >= 0:
            return None
        k = min(j for j in range(len(H)) if H[j] == Q)
        j = next(j for j in range(k - 1, -1, -1) if H[j] >= Q + D)
        lo, hi = _crossing(times[j], H[j], times[j + 1], H[j + 1], Q + D), times[k]
    else:
        raise ValueError("op must be 'f' or 'e'")
    pieces = _cut_at(_cut_at(pieces, lo), hi)
    out = []
    t = 0
    for v, d in pieces:
        inside = lo <= t and t + d <= hi
        out.append((weights.reflect(i, v), d) if inside else (v, d))
        t += d
    return out


def _direction_index(shape: int, v: Weight) -> int:
    """The k with direction_weight(shape, k) == v: the k-th direction
    weight pairs to -k with one simple coroot and to k + 1 with the
    other, so k = min(|c0|, |c1|)."""
    k = min(abs(v.c0), abs(v.c1))
    if type(k) is not int or direction_weight(shape, k) != v:
        raise ValueError("%r is not a direction weight for shape %d" % (v, shape))
    return k


def _lspath_from_pieces(shape: int, pieces, D: int) -> LSPath:
    velocities, times = [], [0]
    for v, d in pieces:
        if velocities and velocities[-1] == v:
            times[-1] += d
        else:
            velocities.append(v)
            times.append(times[-1] + d)
    if times[-1] != D:
        raise ValueError("piece durations must total 1")
    return _int_chain(shape, [_direction_index(shape, v) for v in velocities],
                      times, D)


def concat_path_op(i: int, left_path: LSPath, right_path: LSPath,
                   op: str) -> tuple[LSPath, LSPath] | None:
    """Apply a root operator to the concatenation of two LS paths and
    split the result back into a pair of LS paths of the same shapes.
    The operator is reparametrisation-invariant, so the concatenation is
    taken piecewise with the junction at accumulated duration 1.  Every
    duration is scaled by one D that holds the turning times of both
    factors and of their images."""
    D = _denominator(max(left_path.m, right_path.m))
    pieces = []
    for path in (left_path, right_path):
        times = _int_profile(path, 0, D)[0]
        pieces += [(direction_weight(path.shape, k), times[j + 1] - times[j])
                   for j, k in enumerate(path.direction_indices)]
    result = _apply_root_operator(pieces, i, op, D)
    if result is None:
        return None
    first, second = [], []
    t = 0
    for v, d in _cut_at(result, D):
        (first if t < D else second).append((v, d))
        t += d
    try:
        return (_lspath_from_pieces(left_path.shape, first, D),
                _lspath_from_pieces(right_path.shape, second, D))
    except ValueError as exc:
        raise AssertionError(
            "root operator left the set of path concatenations: %s" % exc)


# --- crystal graphs -----------------------------------------------------

@dataclass
class CrystalGraph:
    vertices: list[TensorElement]
    edges: list[tuple[int, int, int]]  # (source, label, target)

    def to_dot(self, name: str = "crystal") -> str:
        lines = ["digraph %s {" % name]
        for k, v in enumerate(self.vertices):
            lines.append('  v%d [label="%s\\n%s"];'
                         % (k, v.display(), v.weight().display()))
        for a, i, b in self.edges:
            lines.append('  v%d -> v%d [label="%d"];' % (a, b, i))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "vertices": [{"id": k,
                          "left": v.left.to_json(),
                          "right": v.right.to_json(),
                          "weight": v.weight().to_json()}
                         for k, v in enumerate(self.vertices)],
            "edges": [{"from": a, "i": i, "to": b} for a, i, b in self.edges],
        }


def crystal_graph(vertices: list[TensorElement],
                  max_boxes: int) -> CrystalGraph:
    """The vertices, in the order given, and the f_i arrows among them
    that stay within the box bound; an arrow must pass the raising check
    and must not leave the vertices."""
    index = {v: k for k, v in enumerate(vertices)}
    edges = []
    for k, v in enumerate(vertices):
        for i in (0, 1):
            w = tensor_f(i, v)
            if w is None or w.total_boxes > max_boxes:
                continue
            if tensor_e(i, w) != v:
                raise AssertionError("edge fails the raising check")
            if w not in index:
                raise AssertionError("lowering operators escaped the crystal")
            edges.append((k, i, index[w]))
    return CrystalGraph(vertices, edges)
