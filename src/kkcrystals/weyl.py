"""The Weyl group of affine sl2: the infinite dihedral group on s0, s1.

Every non-identity element has a unique reduced word, namely the
alternating word in s0, s1 determined by its length and leftmost letter.
This makes the group law, Bruhat order, minimal coset representatives and
double-coset minima all computable in closed form.  The closed forms are
validated against brute-force oracles (the subword characterisation) in
the verify suites.  Coset representatives take the shape: 0 for w^+, 1 for w^-.
The group sits on the weight lattice of `weights`: `act` applies w to a weight.
"""

from __future__ import annotations

from .weights import Weight, _check_count, _check_label, _checked_tuple, reflect


class WeylElement(_checked_tuple("WeylElement", "length first")):
    """An element of the infinite dihedral group.

    ``length`` is the Coxeter length; ``first`` is the leftmost generator
    of the reduced word (None exactly for the identity).
    """

    __slots__ = ()

    def __new__(cls, length: int, first: int | None = None):
        _check_count(length, "length")
        if (length == 0) != (first is None):
            raise ValueError("identity iff no leftmost generator")
        if first is not None:
            _check_label(first)
        return tuple.__new__(cls, (length, first))

    @property
    def last(self) -> int | None:
        """Rightmost generator of the reduced word (None for the identity)."""
        if self.first is None:
            return None
        return self.first if self.length % 2 == 1 else 1 - self.first

    def word(self) -> tuple[int, ...]:
        """The unique reduced word, leftmost letter first."""
        if self.first is None:
            return ()
        return tuple((self.first + k) % 2 for k in range(self.length))

    def inverse(self) -> "WeylElement":
        # the reduced word of the inverse is the reversed word
        if self.first is None:
            return self
        return WeylElement(self.length, self.last)

    def to_string(self) -> str:
        if self.length == 0:
            return "e"
        return " ".join("s%d" % g for g in self.word())

    def __str__(self):
        return self.to_string()


IDENTITY = WeylElement(0, None)


def act(w: WeylElement, lam: Weight) -> Weight:
    """Apply the reduced word of w to lam, rightmost letter first."""
    for g in reversed(w.word()):
        lam = reflect(g, lam)
    return lam


def left_multiply(i: int, w: WeylElement) -> WeylElement:
    """s_i * w; the length changes by exactly one."""
    _check_label(i)
    if w.length == 0:
        return WeylElement(1, i)
    if i == w.first:
        if w.length == 1:
            return IDENTITY
        return WeylElement(w.length - 1, 1 - w.first)
    return WeylElement(w.length + 1, i)


def right_multiply(w: WeylElement, i: int) -> WeylElement:
    """w * s_i = (s_i * w^-1)^-1; the length changes by exactly one."""
    return left_multiply(i, w.inverse()).inverse()


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order; in the infinite dihedral group u <= w iff
    length(u) < length(w) or u == w."""
    return u.length < w.length or u == w


def wedge(w: WeylElement, i: int) -> WeylElement:
    """The Bruhat-smaller of w and s_i * w."""
    sw = left_multiply(i, w)
    return sw if sw.length < w.length else w


def bruhat_ideal_min(x: WeylElement, y: WeylElement) -> WeylElement:
    """min { u * y : u <= x }, computed by iterated wedges over the
    reduced word of x, rightmost letter first."""
    z = y
    for g in reversed(x.word()):
        z = wedge(z, g)
    return z


def coset_element(shape: int, n: int) -> WeylElement:
    """w_n^+ (shape 0) or w_n^- (shape 1): the alternating word of length
    n ending in s_shape."""
    _check_label(shape)
    _check_count(n, "index")
    return WeylElement(n, (n + 1 + shape) % 2) if n else IDENTITY


def stabilizer_letter(fundamental: int) -> int:
    """Generator of the stabilizer of the fundamental weight: s1 fixes
    the 0th fundamental weight, s0 the 1st."""
    _check_label(fundamental)
    return 1 - fundamental


def double_coset_min(left_fundamental: int, z: WeylElement) -> WeylElement:
    """Bruhat minimum of the double coset W_left * z * W_0, where the
    parabolics are the two-element stabilizers of fundamental weights."""
    a = stabilizer_letter(left_fundamental)
    b = stabilizer_letter(0)
    candidates = {z, left_multiply(a, z), right_multiply(z, b),
                  right_multiply(left_multiply(a, z), b)}
    best = min(c.length for c in candidates)
    minima = [c for c in candidates if c.length == best]
    if len(minima) != 1:
        raise AssertionError("double coset minimum must be unique")
    return minima[0]


def double_coset_min_index(lambda_type: int, n: int, m: int) -> int:
    """Closed form for the index l with
    min W_lambda I(tau^{-1}) w_m^+ W_0 = w_l^+, where tau = w_n^+ for
    lambda_type 0 and tau = w_n^- for lambda_type 1."""
    _check_label(lambda_type)
    _check_count(n, "n")
    _check_count(m, "m")
    same_parity = (m - n) % 2 == 0
    if lambda_type == 0:
        return max(0, m - n - 1) if same_parity else max(0, m - n)
    return max(0, m - n) if same_parity else max(0, m - n - 1)
