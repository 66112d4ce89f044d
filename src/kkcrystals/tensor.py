"""Tensor products of the level-one crystals on pairs of charged
partitions, the concatenated-path oracle, and the f_i arrows among a
given list of pairs.

The tensor rule is: f_i acts on the left factor iff phi_i(left) is
strictly larger than epsilon_i(right), and e_i acts on the left factor
iff phi_i(left) >= epsilon_i(right); otherwise they act on the right
factor, and a kill on the chosen factor kills the pair.  The rule is not
an axiom here: concat_path_op applies the path root operator to the
concatenation of the two LS paths and cuts it back into a pair, and the
test suite checks the two agree on every pair at desk scale.  The oracle
takes all of its work from the path layer: the one join, operator and
cut on small exact times that `f_path` runs on a single path (the slope
reflection and the join are checked against `weights.reflect` and
`pair_coroot`).  It reads no partition kernel, so it shares nothing with
the rule.
"""

from __future__ import annotations

from .partitions import ChargedPartition, _kernel, enumerate_regular, weight_of
from .paths import LSPath, _run_op
from .weights import Weight, _check_count, _checked_tuple


class TensorElement(_checked_tuple("TensorElement", "left right")):
    """An ordered pair of charged partitions, each 2-regular by
    construction; the left charge selects the level-one crystal of the
    left factor, the right factor always has charge 0."""

    __slots__ = ()

    def __new__(cls, left, right):
        if not (isinstance(left, ChargedPartition)
                and isinstance(right, ChargedPartition)):
            raise TypeError("both factors must be ChargedPartitions, got %r"
                            % ((left, right),))
        if right.charge != 0:
            raise ValueError("right factor must have charge 0")
        return tuple.__new__(cls, (left, right))

    @property
    def total_boxes(self) -> int:
        return self.left.size + self.right.size

    def weight(self) -> Weight:
        return weight_of(self.left) + weight_of(self.right)

    def display(self) -> str:
        return "%s ⊗ %s" % (self.left.display(), self.right.display())

    def __str__(self):
        return self.display()


def _pair(left: ChargedPartition, right: ChargedPartition) -> TensorElement:
    """A pair of library-built factors, unchecked (moves keep the charge)."""
    return tuple.__new__(TensorElement, (left, right))


def tensor_pairs(charge: int, max_boxes: int):
    """Every pair with at most max_boxes boxes in total, left factor of
    the given charge: left factors in enumeration order, and under each
    the right factors that fit, in enumeration order.  The right factors
    are listed once, and for charge 0 they are the left factors too (the
    first left factor has checked that charge is an int); the list is
    sorted by size, so each left factor stops at the first that no longer
    fits.  The factors are the enumeration's, so pairs are built unchecked."""
    lefts = enumerate_regular(charge, max_boxes)
    rights = lefts if charge == 0 else enumerate_regular(0, max_boxes)
    for left in lefts:
        room = max_boxes - left.size
        for right in rights:
            if right.size > room:
                break
            yield _pair(left, right)


def tensor_f(i: int, t: TensorElement) -> TensorElement | None:
    left, right = t
    moves, right_moves = _kernel(left, i), _kernel(right, i)
    if moves[0] > right_moves[1]:
        return _pair(moves[2], right)
    image = right_moves[2]
    return None if image is None else _pair(left, image)


def tensor_e(i: int, t: TensorElement) -> TensorElement | None:
    left, right = t
    moves, right_moves = _kernel(left, i), _kernel(right, i)
    if moves[0] >= right_moves[1]:
        image = moves[3]
        return None if image is None else _pair(image, right)
    return _pair(left, right_moves[3])


def is_highest_weight(t: TensorElement) -> bool:
    return tensor_e(0, t) is None and tensor_e(1, t) is None


# --- concatenated-path oracle ------------------------------------------

def concat_path_op(i: int, left_path: LSPath, right_path: LSPath,
                   op: str) -> tuple[LSPath, LSPath] | None:
    """Apply a root operator to the concatenation of two LS paths and cut
    the result back into a pair of LS paths of the same shapes.  It is
    reparametrisation-invariant, so the path layer runs it on the two as
    one run, the junction at time 1, which stays a turning time."""
    if op not in ("f", "e"):
        raise ValueError("op must be 'f' or 'e'")
    images = _run_op(op == "e", (left_path, right_path), i)
    return None if images is None else tuple(images)


# --- crystal graphs -----------------------------------------------------

class CrystalGraph(_checked_tuple("CrystalGraph", "vertices edges")):
    """Vertices, and arrows as (source, label, target) index triples."""

    __slots__ = ()

    def to_dot(self) -> str:
        """The graph in DOT, named kk_crystal: each vertex labelled by its
        pair and its weight, each edge by its label.  Many vertices share a
        weight, so each distinct weight is rendered once."""
        lines = ["digraph kk_crystal {"]
        labels: dict[Weight, str] = {}
        for k, v in enumerate(self.vertices):
            weight = v.weight()
            label = labels.get(weight)
            if label is None:
                label = labels[weight] = weight.display()
            lines.append('  v%d [label="%s\\n%s"];' % (k, v.display(), label))
        for a, i, b in self.edges:
            lines.append('  v%d -> v%d [label="%d"];' % (a, b, i))
        lines.append("}\n")  # the closing newline, without copying the text
        return "\n".join(lines)

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
    that stay within the box bound: f_i adds one box, so a vertex at the
    bound has none.  An arrow that leaves the vertices raises; `verify`
    checks the arrows (check_tensor_structure, check_kk_invariance)."""
    _check_count(max_boxes, "max_boxes")
    index = {v: k for k, v in enumerate(vertices)}
    edges = []
    for k, v in enumerate(vertices):
        if v.total_boxes >= max_boxes:
            continue
        for i in (0, 1):
            w = tensor_f(i, v)
            if w is None:
                continue
            target = index.get(w)
            if target is None:
                raise AssertionError("lowering operators escaped the crystal")
            edges.append((k, i, target))
    return CrystalGraph(vertices, edges)
