"""Exact arithmetic in the affine sl2 weight lattice.

A weight is stored by its pairings with the two simple coroots and with
the scaling element d, as exact rationals: an `int` when the coordinate
is integral and a `Fraction` otherwise, never a float.  LS-path turning
times are rationals like 2/7, so everything downstream depends on this
exactness.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .weyl import WeylElement, _check_label

Scalar = Union[int, Fraction]


def _exact(x) -> Scalar:
    """x as an int when it is integral, else as a Fraction; an int or any
    other rational number is read exactly, and anything else (a float, a
    bool, a str, a Decimal) is refused."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, bool) or not isinstance(x, numbers.Rational):
            raise TypeError("expected an exact number, got %r" % (x,))
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Weight:
    """Coroot-pairing coordinates (<w, a0v>, <w, a1v>, <w, d>)."""

    c0: Scalar
    c1: Scalar
    dd: Scalar

    def __post_init__(self):
        object.__setattr__(self, "c0", _exact(self.c0))
        object.__setattr__(self, "c1", _exact(self.c1))
        object.__setattr__(self, "dd", _exact(self.dd))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.c0 + other.c0, self.c1 + other.c1, self.dd + other.dd)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.c0 - other.c0, self.c1 - other.c1, self.dd - other.dd)

    def __neg__(self) -> "Weight":
        return Weight(-self.c0, -self.c1, -self.dd)

    def __mul__(self, scalar: Scalar) -> "Weight":
        s = _exact(scalar)
        return Weight(s * self.c0, s * self.c1, s * self.dd)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"c0": str(self.c0), "c1": str(self.c1), "d": str(self.dd)}

    def display(self) -> str:
        """Render as 'aΛ0 + bΛ1 - n0α0 - n1α1' in integers, with a + b the
        level and a the largest a <= level with a = c0 mod 2 (a - 2, b + 2
        would fit as well, so the form is not unique); raw coordinates
        when c0, the level or n0 is not an int, or no such a >= 0
        exists."""
        level, n0 = self.c0 + self.c1, -self.dd
        integral = all(type(x) is int for x in (self.c0, level, n0))
        a = level - (level - self.c0) % 2 if integral else -1
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


ZERO = Weight(0, 0, 0)
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


def pair_coroot(w: Weight, i: int) -> Scalar:
    _check_label(i)
    return w.c1 if i else w.c0


def reflect(i: int, w: Weight) -> Weight:
    """Simple reflection: w - <w, a_i^vee> a_i."""
    return w - pair_coroot(w, i) * simple_root(i)


def act(w: WeylElement, lam: Weight) -> Weight:
    """Apply the reduced word of w to lam, rightmost letter first."""
    for g in reversed(w.word()):
        lam = reflect(g, lam)
    return lam
