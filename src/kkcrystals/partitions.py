"""Charged partitions and their crystal structure.

A charged partition is a 2-regular integer partition (distinct parts,
enforced on construction) with a charge in {0, 1}; the box in row r,
column c of its Young diagram is labelled (charge - r + c) mod 2.  The
label-i addable and removable columns, scanned left to right, give the
i-signature; cancelling "-" immediately followed by "+" until none
remain leaves the reduced i-signature, which drives the raising and
lowering operators e_i and f_i.

phi, epsilon, e_i and f_i, and the tensor rule, read the reduced
signature in one integer pass over the rows (`_reduced`), bottom to top,
which visits the signature's columns left to right.  The pass runs at
most once per (partition, label), and everything read off it is stored
on the partition as one record: `_kernel` keeps (phi, epsilon, f_i(cp),
e_i(cp)), with None for a move that kills cp, just as `size`,
`weight_of` and `display` store theirs.  A move is stored only on the
partition it starts from, never as the inverse move of its image, so
the inverse laws still compare two moves built apart.  A `verify` run
shares one list per charge, and so these records, across its checks.

The column scan `signature`, its reduction `reduce_signature` and the
block pattern `closed_form_signature` serve only as the oracle that the
verify suites check this pass against.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property

from .weights import Weight, _check_count, _check_label, _checked_tuple

_runs = []  # per open `_one_enumeration`, the partitions listed per charge


class ChargedPartition(_checked_tuple("ChargedPartition", "parts charge")):
    """Strictly decreasing positive parts (a 2-regular partition) and a
    charge in {0, 1}; anything else raises on construction.  An immutable
    tuple (parts, charge) that keeps a memo of values read off it."""

    def __new__(cls, parts, charge):
        if type(parts) is not tuple:
            parts = tuple(parts)
        if type(charge) is not int:
            raise TypeError("parts and charge must be integers")
        repeat, last = None, parts[0] + 1 if parts and type(parts[0]) is int else 0
        for p in parts:
            if type(p) is not int:
                raise TypeError("parts and charge must be integers")
            if p >= last and repeat is None:
                repeat = (last, p)
            last = p
        _check_label(charge, "charge")
        if parts and (last if repeat is None else min(parts)) <= 0:
            raise ValueError("parts must be positive")
        if repeat:
            raise ValueError("parts must be strictly decreasing "
                             "(2-regular), got %d before %d" % repeat)
        return tuple.__new__(cls, (parts, charge))

    def __setattr__(self, name, value):
        raise AttributeError("ChargedPartition is immutable")

    def __delattr__(self, name):
        raise AttributeError("ChargedPartition is immutable")

    def __dir__(self):  # `_kernel` keys its records by the ints 0 and 1
        return [name for name in object.__dir__(self) if type(name) is str]

    def __reduce__(self):  # copies and pickles leave the memo behind
        return type(self), (self.parts, self.charge)

    @cached_property  # writes __dict__ directly, past __setattr__
    def size(self) -> int:
        return sum(self.parts)

    @property
    def bounding_rect(self) -> tuple[int, int]:
        """(largest part, number of parts); (0, 0) for the empty diagram."""
        if not self.parts:
            return (0, 0)
        return (self.parts[0], len(self.parts))

    def display(self) -> str:
        memo = self.__dict__
        text = memo.get("_display")
        if text is None:
            inner = ",".join(str(p) for p in self.parts) if self.parts else "∅"
            text = memo["_display"] = "(%s | c=%d)" % (inner, self.charge)
        return text

    def to_json(self) -> dict:
        return {"parts": list(self.parts), "charge": self.charge}

    @classmethod
    def from_json(cls, data: dict) -> "ChargedPartition":
        if set(data) != {"parts", "charge"}:
            raise ValueError("need the keys parts, charge; got %s" % sorted(data))
        return cls(tuple(data["parts"]), data["charge"])

    def __str__(self):
        return self.display()


def signs(entries: tuple[tuple[str, int], ...]) -> str:
    return "".join(s for s, _ in entries)


def signature(cp: ChargedPartition, i: int) -> tuple[tuple[str, int], ...]:
    """The (sign, column) entries from scanning columns 1 .. largest+1:
    '+' for each column where a box labelled i is addable at the bottom,
    '-' where the bottom box is labelled i and removable."""
    _check_label(i)
    parts = cp.parts
    top = parts[0] + 1 if parts else 1
    entries = []
    for c in range(1, top + 1):
        h = sum(1 for p in parts if p >= c)
        below = parts[h] if h < len(parts) else 0
        if below == c - 1 and (cp.charge - (h + 1) + c) % 2 == i:
            entries.append(("+", c))
        elif h >= 1 and parts[h - 1] == c and (cp.charge - h + c) % 2 == i:
            entries.append(("-", c))
    return tuple(entries)


def reduce_signature(entries: tuple[tuple[str, int], ...]
                     ) -> tuple[tuple[str, int], ...]:
    """Delete '-' '+' adjacencies until none remain; the survivors are
    always some plus signs followed by some minus signs."""
    stack: list[tuple[str, int]] = []
    for entry in entries:
        if entry[0] == "+" and stack and stack[-1][0] == "-":
            stack.pop()
        else:
            stack.append(entry)
    return tuple(stack)


def _reduced(cp: ChargedPartition, i: int) -> tuple[int, int, int, int]:
    """(phi, epsilon, row of the rightmost surviving '+', row of the
    leftmost surviving '-') of the reduced i-signature, rows 0-based and
    -1 when there is no such sign.

    Reading the rows bottom to top visits the signature's columns left to
    right: row k gives the addable box ending row k + 1 (column
    parts[k+1] + 1) and then the removable end box of row k (column
    parts[k]), and a last step gives the addable box ending row 0
    (column parts[0] + 1).  When the two boxes of a row share a column their
    labels differ, so each column carries at most one sign.  A count of
    unmatched '-' does the cancellation."""
    _check_label(i)
    parts = cp.parts
    plus = depth = 0
    plus_row = minus_row = -1
    # odd is the parity of charge - (k + 1) - i: the end box of row k, in
    # column c, is labelled i iff odd + c is even, and the box addable at
    # the end of row k + 1, in column below + 1, iff odd + below is even
    odd = (cp.charge + len(parts) + i) & 1
    below = 0
    for k in range(len(parts) - 1, -2, -1):
        if not (odd + below) & 1:
            if depth:
                depth -= 1
            else:
                plus += 1
                plus_row = k + 1
        if k < 0:
            break
        below = parts[k]
        if not (odd + below) & 1:
            if not depth:
                minus_row = k
            depth += 1
        odd ^= 1
    return plus, depth, plus_row, minus_row


def _kernel(cp: ChargedPartition, i: int) -> tuple[
        int, int, ChargedPartition | None, ChargedPartition | None]:
    """(phi, epsilon, f_i(cp), e_i(cp)) from one `_reduced(cp, i)` scan, a
    move None when the operator kills cp; built at most once per
    (partition, label) and stored on the partition under the key i.  The
    memo is read for an int label only, since True and 1.0 hash as 1; 0
    and 1 are the only int keys stored, and any other label reaches
    `_reduced`, which checks it."""
    memo = cp.__dict__
    if type(i) is int:
        found = memo.get(i)
        if found is not None:
            return found
    plus, minus, plus_row, minus_row = _reduced(cp, i)
    found = memo[i] = (plus, minus,
                       _add_box(cp, plus_row) if plus else None,
                       _remove_box(cp, minus_row) if minus else None)
    return found


def _add_box(cp: ChargedPartition, row: int) -> ChargedPartition:
    """cp with a box added at the end of the given (0-based) row."""
    parts = cp.parts
    if row == len(parts):
        return ChargedPartition(parts + (1,), cp.charge)
    return ChargedPartition(parts[:row] + (parts[row] + 1,) + parts[row + 1:],
                            cp.charge)


def _remove_box(cp: ChargedPartition, row: int) -> ChargedPartition:
    """cp with the end box of the given (0-based) row removed."""
    parts = cp.parts
    end = parts[row] - 1
    head = parts[:row] + (end,) if end else parts[:row]
    return ChargedPartition(head + parts[row + 1:], cp.charge)


def epsilon(cp: ChargedPartition, i: int) -> int:
    """Number of minus signs in the reduced i-signature."""
    return _kernel(cp, i)[1]


def phi(cp: ChargedPartition, i: int) -> int:
    """Number of plus signs in the reduced i-signature."""
    return _kernel(cp, i)[0]


def f_op(cp: ChargedPartition, i: int) -> ChargedPartition | None:
    """Add a box labelled i at the bottom of the column of the rightmost
    '+' in the reduced i-signature; None if there is no '+'."""
    return _kernel(cp, i)[2]


def e_op(cp: ChargedPartition, i: int) -> ChargedPartition | None:
    """Remove the bottom box of the column of the leftmost '-' in the
    reduced i-signature; None if there is no '-'."""
    return _kernel(cp, i)[3]


def weight_of(cp: ChargedPartition) -> Weight:
    """Fundamental weight of the charge minus one simple root per box of
    the matching label; stored on the partition."""
    memo = cp.__dict__
    weight = memo.get("_weight")
    if weight is not None:
        return weight
    counts = [0, 0]
    for r, length in enumerate(cp.parts, start=1):
        lead = (cp.charge - r + 1) % 2
        counts[lead] += (length + 1) // 2
        counts[1 - lead] += length // 2
    # Λ_c - n0 α0 - n1 α1 with α0 = (2, -2, 1) and α1 = (-2, 2, 0)
    step = 2 * (counts[1] - counts[0])
    weight = memo["_weight"] = Weight(1 - cp.charge + step, cp.charge - step,
                                     -counts[0])
    return weight


def gap_conjugate(cp: ChargedPartition) -> tuple[int, ...]:
    """Column lengths of the part of the diagram left after removing the
    tallest staircase, read off a charged partition.

    With bounding rectangle (m, n) the result has exactly m - n entries,
    weakly decreasing, each between 1 and n.  These are the step data of
    the LS path matched to the partition.
    """
    parts = cp.parts
    n = len(parts)
    out = []
    below = 0
    # the gaps parts[k] - (n - k) weakly decrease, so the columns past the
    # gap below row k and up to the gap of row k have height k + 1
    for k in range(n - 1, -1, -1):
        gap = parts[k] - n + k
        if gap > below:
            out += [k + 1] * (gap - below)
            below = gap
    return tuple(out)


def closed_form_signature(cp: ChargedPartition, i: int) -> str:
    """The i-signature as a block pattern of alternating sign runs whose
    lengths come from the staircase gap data; equals the sign string of
    the direct column scan."""
    _check_label(i)
    if not cp.parts:
        raise ValueError("closed form needs a nonempty diagram")
    m, n = cp.bounding_rect
    seq = (n,) + gap_conjugate(cp) + (0,)
    if len(seq) != m - n + 2:
        raise AssertionError("gap data of %s has the wrong length" % (cp,))
    first_plus = (n % 2) == ((i + cp.charge) % 2)
    out = []
    for k in range(len(seq) - 1):
        run = seq[k] - seq[k + 1] + (1 if k == 0 and first_plus else 0)
        plus_block = (k % 2 == 0) == first_plus
        out.append(("+" if plus_block else "-") * run)
    return "".join(out)


def _distinct_parts(allowed, max_size: int) -> list[tuple[int, ...]]:
    """The sets of distinct parts from the increasing ints `allowed` with
    at most max_size boxes, as decreasing tuples, by size and then by
    decreasing parts.  Subset sums, smallest part first: p extends the sets
    of size s - p, sizes visited downwards so that it is used once, and
    each size lists its sets increasing, so it is read reversed."""
    by_size = [[()]] + [[] for _ in range(max_size)]
    for p in allowed:
        for s in range(max_size, p - 1, -1):
            by_size[s] += [(p,) + rest for rest in by_size[s - p]]
    return [parts for bucket in by_size for parts in reversed(bucket)]


@contextmanager
def _one_enumeration():
    """A scope in which `enumerate_regular` shares one list per charge."""
    _runs.append({0: [], 1: []})
    try:
        yield
    finally:
        _runs.pop()


def enumerate_regular(charge: int, max_boxes: int) -> list[ChargedPartition]:
    """All regular charged partitions of at most max_boxes boxes, by size and
    then decreasing parts, a prefix of any longer list; shared in a run."""
    _check_count(max_boxes, "max_boxes")
    stored = _runs[-1].get(charge, []) if _runs and type(charge) is int else []
    if stored and stored[-1].size >= max_boxes:  # a list ends at its bound
        return [cp for cp in stored if cp.size <= max_boxes]
    sets = _distinct_parts(range(1, max_boxes + 1), max_boxes)
    stored += [ChargedPartition(p, charge) for p in sets[len(stored):]]
    return stored[:]
