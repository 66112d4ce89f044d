"""Level-one LS paths in canonical form, with root operators.

A path of shape 0 (resp. 1) is a chain of minimal coset representatives
w_m > w_{m-1} > ... > w_n, all of plus type (resp. minus type), with
turning times 0 < i_m/m < ... < i_{n+1}/(n+1) < 1.  The chain is stored
as the pair (n, steps) with steps = (i_{n+1}, ..., i_m); the defining
inequalities are 1 <= i_m <= ... <= i_{n+1} <= n, so the straight path to
the fundamental weight is (n=0, steps=()).

The lowering operator f_i is the four-case surgery on the chain driven by
the minimum of h(t) = <path(t), a_i^vee>: reflect the directions between
the rightmost minimum of h and the first later time where h returns to
minimum + 1, merging with the preceding direction when the reflection
reproduces it and splitting the final segment when the return time falls
strictly inside it.  The raising operator e_i is f_i on the reversed
path t -> path(1 - t) - path(1), reversed back (Littelmann's duality), and
is the two-sided inverse of f_i.

The operators run on ints, with turning times scaled by D = lcm(1, ...,
m + 1) (it holds the times of the path and of its images) and integer
slopes; `times`, `evaluate`, `turning_points` and `h_function` (the
profile's breakpoints) stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import weights
from .weights import Weight, fundamental, pair_coroot
from .weyl import _check_label, coset_action


def shape_sign(shape: int) -> str:
    _check_label(shape)
    return "+" if shape == 0 else "-"


@lru_cache(maxsize=None)
def direction_weight(shape: int, k: int) -> Weight:
    """Image of the fundamental weight under the k-th coset representative
    of the matching sign, in closed form (`weights.act` is the oracle); see
    `_int_profile` for its pairings, and d = -ceil(k/2)^2 for shape 0 and
    -floor(k/2)(floor(k/2) + 1) for shape 1."""
    shape_sign(shape)  # validates the shape
    if k < 0:
        raise ValueError("index must be nonnegative")
    d = -((k + 1 - shape) // 2) * ((k + 1 + shape) // 2)
    return Weight(k + 1, -k, d) if (k + shape) % 2 == 0 else Weight(-k, k + 1, d)


@dataclass(frozen=True)
class LSPath:
    shape: int
    n: int
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        steps, n = self.steps, self.n
        if type(steps) is not tuple:
            steps = tuple(steps)
            object.__setattr__(self, "steps", steps)
        if type(self.shape) is not int or type(n) is not int:
            raise TypeError("shape, n and steps must be integers")
        rising, last = False, steps[0] if steps else 0
        for x in steps:
            if type(x) is not int:
                raise TypeError("shape, n and steps must be integers")
            rising = rising or x > last
            last = x
        _check_label(self.shape, "shape")
        if n < 0:
            raise ValueError("final index must be nonnegative")
        if steps:
            if last < 1:
                raise ValueError("steps must be positive")
            if rising:
                raise ValueError("steps must be weakly decreasing")
            if steps[0] > n:
                raise ValueError("leading step exceeds the final index")

    @property
    def m(self) -> int:
        """Initial direction index."""
        return self.n + len(self.steps)

    @property
    def direction_indices(self) -> tuple[int, ...]:
        return tuple(range(self.m, self.n - 1, -1))

    @property
    def times(self) -> tuple[Fraction, ...]:
        ts = [Fraction(0)]
        for j in range(self.m, self.n, -1):
            ts.append(Fraction(self.steps[j - self.n - 1], j))
        ts.append(Fraction(1))
        return tuple(ts)

    def evaluate(self, t) -> Weight:
        t = weights._exact(t)
        if t < 0 or t > 1:
            raise ValueError("time must lie in [0, 1]")
        ts, points = self.times, self.turning_points()
        j = next(j for j in range(len(ts) - 1) if t <= ts[j + 1])
        v = direction_weight(self.shape, self.direction_indices[j])
        return points[j] + (t - ts[j]) * v

    def turning_points(self) -> list[Weight]:
        ts = self.times
        out = [weights.ZERO]
        for j, k in enumerate(self.direction_indices):
            out.append(out[-1] + (ts[j + 1] - ts[j]) * direction_weight(self.shape, k))
        return out

    def to_json(self) -> dict:
        return {"shape": "L%d" % self.shape, "n": self.n, "steps": list(self.steps)}

    @classmethod
    def from_json(cls, data: dict) -> "LSPath":
        shape_text = data["shape"]
        if shape_text not in ("L0", "L1"):
            raise ValueError("shape must be 'L0' or 'L1'")
        return cls(int(shape_text[1]), data["n"], tuple(data["steps"]))

    def __str__(self):
        return "LSPath(L%d, n=%d, steps=%s)" % (self.shape, self.n, list(self.steps))


def _int_chain(shape: int, indices: list[int], times: list[int], D: int) -> LSPath:
    """Validated canonical path of a chain with turning times scaled by D."""
    if not indices or len(times) != len(indices) + 1:
        raise ValueError("need one more time than directions")
    if times[0] != 0 or times[-1] != D:
        raise ValueError("times must run from 0 to 1")
    steps = []
    for j, k in enumerate(indices):
        t = times[j + 1]
        if t <= times[j]:
            raise ValueError("times must strictly increase")
        if j and k != indices[j - 1] - 1:
            raise ValueError("direction chain must descend contiguously")
        step, rest = divmod(t * k, D)
        if rest:
            raise ValueError("time %s is not canonical for index %d"
                             % (Fraction(t, D), k))
        steps.append(step)
    return LSPath(shape, indices[-1], tuple(steps[-2::-1]))


def h_function(path: LSPath, i: int) -> tuple:
    """The exact breakpoints (t, <path(t), a_i^vee>) of the pairing profile."""
    return tuple(zip(path.times,
                     [pair_coroot(p, i) for p in path.turning_points()]))


def _denominator(m: int) -> int:
    """lcm(1, ..., m + 1): a common denominator for paths of initial index
    at most m and for their root-operator images."""
    return lcm(*range(1, m + 2))


def _int_profile(path: LSPath, i: int, D: int) -> tuple[list[int], list[int]]:
    """Turning times and values of h(t) = <path(t), a_i^vee> scaled by D;
    direction k has slope k + 1 if k + shape + i is even, else -k."""
    _check_label(i)
    n, steps = path.n, path.steps
    times, values = [0], [0]
    for k in range(path.m, n - 1, -1):
        t = D // k * steps[k - n - 1] if k > n else D
        slope = k + 1 if (k + path.shape + i) % 2 == 0 else -k
        values.append(values[-1] + slope * (t - times[-1]))
        times.append(t)
    return times, values


def _minimum(values: list[int], D: int) -> int:
    """Least scaled value; LS-path minima are integers, else the model broke."""
    q = min(values)
    if q % D:
        raise AssertionError("pairing value %s is not an integer" % Fraction(q, D))
    return q


def _crossing(t0: int, h0: int, t1: int, h1: int, level: int) -> int:
    """Scaled time at which (t0, h0)-(t1, h1) reaches level; a turning time."""
    dt, rest = divmod((level - h0) * (t1 - t0), h1 - h0)
    if rest:
        raise AssertionError("crossing time is not a multiple of the unit")
    return t0 + dt


def path_epsilon(path: LSPath, i: int) -> int:
    """Negated minimum of the pairing profile."""
    D = _denominator(path.m)
    return -_minimum(_int_profile(path, i, D)[1], D) // D


def path_phi(path: LSPath, i: int) -> int:
    """Endpoint value minus minimum of the pairing profile."""
    D = _denominator(path.m)
    values = _int_profile(path, i, D)[1]
    return (values[-1] - _minimum(values, D)) // D


def _lower(shape: int, i: int, idx, times: list[int], H: list[int],
           D: int) -> tuple[list[int], list[int]] | None:
    """The lowering surgery on a chain with direction indices idx and
    turning times and pairing values H scaled by D: the new chain's
    (indices, scaled times), or None when the endpoint sits less than one
    above the minimum.  Only differences of H are read."""
    Q = _minimum(H, D)
    if H[-1] - Q < D:
        return None
    p = len(H) - 1 - H[::-1].index(Q)
    x = next(j for j in range(p + 1, len(H)) if H[j] >= Q + D)
    sign = shape_sign(shape)
    reflected = [coset_action(i, k, sign) for k in idx[p:x]]
    merge = p >= 1 and reflected[0] == idx[p - 1]
    new_idx = list(idx[:p - 1] if merge else idx[:p]) + reflected
    new_times = (times[:p] if merge else times[:p + 1]) + times[p + 1:x]
    if H[x] > Q + D:
        new_times.append(_crossing(times[x - 1], H[x - 1], times[x], H[x],
                                   Q + D))
        new_idx.append(idx[x - 1])
    return new_idx + list(idx[x:]), new_times + times[x:]


def f_path(path: LSPath, i: int) -> LSPath | None:
    """Path lowering operator; None when the endpoint sits less than one
    above the minimum of the pairing profile."""
    D = _denominator(path.m)
    times, H = _int_profile(path, i, D)
    chain = _lower(path.shape, i, path.direction_indices, times, H, D)
    return None if chain is None else _int_chain(path.shape, *chain, D)


def e_path(path: LSPath, i: int) -> LSPath | None:
    """Path raising operator: f_path on the reversed path
    t -> path(1 - t) - path(1), reversed back; None when the pairing
    profile never goes below zero."""
    D = _denominator(path.m)
    times, H = _int_profile(path, i, D)
    chain = _lower(path.shape, i, path.direction_indices[::-1],
                   [D - t for t in times[::-1]], H[::-1], D)
    if chain is None:
        return None
    idx, times = chain
    return _int_chain(path.shape, idx[::-1], [D - t for t in times[::-1]], D)


def is_lambda_dominant(path: LSPath, lambda_type: int) -> bool:
    """True iff the chosen fundamental weight plus every turning point
    stays in the dominant chamber, that is epsilon_i <= <Lambda, a_i^vee>."""
    lam = fundamental(lambda_type)
    return all(path_epsilon(path, i) <= pair_coroot(lam, i) for i in (0, 1))
