"""Exact arithmetic in the affine sl2 weight lattice.

A weight is stored by its pairings with the two simple coroots and with
the scaling element d.  Every weight of the level-one crystals (a charged
partition, an LS-path endpoint, a Kostant-Kumar crystal vertex) is
integral, so the three coordinates are ints: a bool, a float, a Decimal
or a fraction, an integral one included, is refused, never coerced.  This
is the bottom layer: it imports nothing from the package, and holds the
boundary checks (labels, counts, the validated tuple base) all layers share.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, neg, sub


def _check_label(i, name: str = "label") -> None:
    """Every 0/1 index is the int 0 or 1, never a bool or a float."""
    if type(i) is not int or i not in (0, 1):
        raise ValueError("%s must be 0 or 1, got %r" % (name, i))


def _check_count(n, name: str) -> None:
    """Every size and index is a nonnegative int, never a bool or a float."""
    if type(n) is not int:
        raise TypeError("%s must be an integer, got %r" % (name, n))
    if n < 0:
        raise ValueError("%s must be nonnegative" % name)


def _checked_tuple(name: str, fields: str):
    """The namedtuple base of every record: its `_make`, and so `_replace`,
    build through the subclass's `__new__`, which validates where defined."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Weight(_checked_tuple("Weight", "c0 c1 dd")):
    """Coroot-pairing coordinates (<w, a0v>, <w, a1v>, <w, d>), checked on
    construction.  + and - take only Weights; results stay int, unchecked."""

    __slots__ = ()

    def __new__(cls, c0, c1, dd):
        self = tuple.__new__(cls, (c0, c1, dd))
        self.__post_init__()
        return self

    def __post_init__(self):
        if not (type(self.c0) is type(self.c1) is type(self.dd) is int):
            raise TypeError("weight coordinates must be ints, got %r" % (self,))

    def __add__(self, other: "Weight") -> "Weight":
        if type(other) is not Weight:
            raise TypeError("a Weight takes only a Weight, got %r" % (other,))
        return tuple.__new__(Weight, map(add, self, other))

    __radd__ = __add__  # refuses a tuple on the left, which would concatenate

    def __sub__(self, other: "Weight") -> "Weight":
        if type(other) is not Weight:
            raise TypeError("a Weight takes only a Weight, got %r" % (other,))
        return tuple.__new__(Weight, map(sub, self, other))

    def __neg__(self) -> "Weight":
        return tuple.__new__(Weight, map(neg, self))

    def __mul__(self, s: int) -> "Weight":
        if type(s) is not int:
            return NotImplemented
        return tuple.__new__(Weight, map(s.__mul__, self))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"c0": str(self.c0), "c1": str(self.c1), "d": str(self.dd)}

    def display(self) -> str:
        """Render as 'aΛ0 + bΛ1 - n0α0 - n1α1' in integers, with a + b the
        level and a the largest a <= level with a = c0 mod 2 (a - 2, b + 2
        would fit as well, so the form is not unique); raw coordinates
        when no such a >= 0 exists."""
        level, n0 = self.c0 + self.c1, -self.dd
        a = level - (level - self.c0) % 2
        if a < 0:
            return "(%s, %s, %s)" % (self.c0, self.c1, self.dd)
        n1 = n0 + (self.c0 - a) // 2
        text = ""
        for coeff, name in ((a, "Λ0"), (level - a, "Λ1"), (-n0, "α0"),
                            (-n1, "α1")):
            if coeff:
                shown = "" if coeff == 1 and name[0] == "Λ" else str(abs(coeff))
                text += " %s %s%s" % ("+" if coeff > 0 else "-", shown, name)
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self):
        return self.display()


LAMBDA0 = Weight(1, 0, 0)
LAMBDA1 = Weight(0, 1, 0)
ALPHA0 = Weight(2, -2, 1)
ALPHA1 = Weight(-2, 2, 0)
DELTA = ALPHA0 + ALPHA1


def fundamental(i: int) -> Weight:
    _check_label(i)
    return (LAMBDA0, LAMBDA1)[i]


def simple_root(i: int) -> Weight:
    _check_label(i)
    return (ALPHA0, ALPHA1)[i]


def pair_coroot(w: Weight, i: int) -> int:
    _check_label(i)
    return w.c1 if i else w.c0


def reflect(i: int, w: Weight) -> Weight:
    """Simple reflection: w - <w, a_i^vee> a_i."""
    return w - pair_coroot(w, i) * simple_root(i)
