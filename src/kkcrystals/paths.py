"""Level-one LS paths in canonical form, with root operators.

A path of shape 0 (resp. 1) is a chain of minimal coset representatives
w_m > w_{m-1} > ... > w_n, all of plus type (resp. minus type), with
turning times 0 < i_m/m < ... < i_{n+1}/(n+1) < 1.  The chain is stored
as the pair (n, steps) with steps = (i_{n+1}, ..., i_m); the defining
inequalities are 1 <= i_m <= ... <= i_{n+1} <= n, so the straight path to
the fundamental weight is (n=0, steps=()).

A direction is stored as one int, its alpha_1-slope x = <w_k Lambda, a_1^vee>
(k + 1 when k + shape is odd, else -k); its alpha_0-slope is 1 - x, since
the level is one.  The map is a bijection onto the integers: the shape is
x mod 2, and k is x - 1 when x > 0 and -x otherwise.  The infinite
dihedral group acts on it in closed form, s_1: x -> -x and s_0: x -> 2 - x.

The lowering operator f_i is Littelmann's, driven by the minimum of
h(t) = <path(t), a_i^vee>: reflect the directions between the last
minimum of h and the first later time where h returns to minimum + 1,
cutting the direction in which that return falls.  The raising operator
e_i is f_i on the reversed path t -> path(1 - t) - path(1), reversed back
(Littelmann's duality), and is the two-sided inverse of f_i.  One join
and one cut serve paths and their concatenations (`tensor.concat_path_op`):
`_int_profile` joins a run of paths, path j over [j, j + 1], into one
chain of slopes, the operators merge nothing, and `_rebuild` cuts the
chain at the whole times, merging equal neighbours only within a path.

Everything runs on ints: turning times are scaled by D = lcm(1, ..., m + 1)
(it holds the times of the path and of its images), and so are the
values of h.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .weights import (ZERO, Weight, _check_count, _check_label,
                      _checked_tuple, fundamental, pair_coroot)


# typed, so that a bool index misses the cached entry of its int and is refused
@lru_cache(maxsize=None, typed=True)
def direction_weight(shape: int, k: int) -> Weight:
    """Image of the fundamental weight of the shape under the coset
    representative w_k of that shape, in closed form (`weyl.act` is the
    oracle); its pairing with a_1^vee is the slope that `_int_profile`
    stores, and d = -ceil(k/2)^2 for
    shape 0 and -floor(k/2)(floor(k/2) + 1) for shape 1."""
    _check_label(shape)
    _check_count(k, "index")
    d = -((k + 1 - shape) // 2) * ((k + 1 + shape) // 2)
    return Weight(k + 1, -k, d) if (k + shape) % 2 == 0 else Weight(-k, k + 1, d)


class LSPath(_checked_tuple("LSPath", "shape n steps")):
    """A canonical chain (shape, n, steps), validated on construction."""

    __slots__ = ()

    def __new__(cls, shape, n, steps=()):
        if type(steps) is not tuple:
            steps = tuple(steps)
        if type(shape) is not int or type(n) is not int:
            raise TypeError("shape, n and steps must be integers")
        rising, last = False, steps[0] if steps else 0
        for x in steps:
            if type(x) is not int:
                raise TypeError("shape, n and steps must be integers")
            rising = rising or x > last
            last = x
        _check_label(shape, "shape")
        if n < 0:
            raise ValueError("final index must be nonnegative")
        if steps:
            if last < 1:
                raise ValueError("steps must be positive")
            if rising:
                raise ValueError("steps must be weakly decreasing")
            if steps[0] > n:
                raise ValueError("leading step exceeds the final index")
        return tuple.__new__(cls, (shape, n, steps))

    @property
    def m(self) -> int:
        """Initial direction index."""
        return self.n + len(self.steps)

    @property
    def direction_indices(self) -> tuple[int, ...]:
        return tuple(range(self.m, self.n - 1, -1))

    def weight(self) -> Weight:
        """The endpoint path(1): the direction weights times their
        durations, scaled by D, summed and divided by D exactly."""
        D = _denominator(self.m)
        times, total = _int_profile((self,), 0, D)[1], ZERO
        for j, k in enumerate(self.direction_indices):
            total += (times[j + 1] - times[j]) * direction_weight(self.shape, k)
        if any(x % D for x in total):
            raise AssertionError("endpoint %s / %d is not integral" % (total, D))
        return Weight(*(x // D for x in total))

    def to_json(self) -> dict:
        return {"shape": "L%d" % self.shape, "n": self.n, "steps": list(self.steps)}

    @classmethod
    def from_json(cls, data: dict) -> "LSPath":
        if set(data) != {"shape", "n", "steps"}:
            raise ValueError("need the keys shape, n, steps; got %s" % sorted(data))
        shape_text = data["shape"]
        if shape_text not in ("L0", "L1"):
            raise ValueError("shape must be 'L0' or 'L1'")
        return cls(int(shape_text[1]), data["n"], tuple(data["steps"]))

    def __str__(self):
        return "LSPath(L%d, n=%d, steps=%s)" % (self.shape, self.n, list(self.steps))


def _denominator(m: int) -> int:
    """lcm(1, ..., m + 1): a common denominator for paths of initial index
    at most m and for their root-operator images."""
    return lcm(*range(1, m + 2))


def _int_profile(paths: tuple[LSPath, ...], i: int,
                 D: int) -> tuple[list[int], list[int], list[int]]:
    """The directions of a run of paths, path j over [jD, (j + 1)D], as
    alpha_1-slopes x, and the turning times and values of
    h(t) = <path(t), a_i^vee> scaled by D; the slope of h on direction x
    is x for i = 1 and 1 - x for i = 0."""
    _check_label(i)
    dirs, times, values = [], [0], [0]
    for shape, n, steps in paths:
        start = times[-1]
        for k in range(n + len(steps), n - 1, -1):
            t = start + (D // k * steps[k - n - 1] if k > n else D)
            x = k + 1 if (k + shape) % 2 else -k
            dirs.append(x)
            values.append(values[-1] + (x if i else 1 - x) * (t - times[-1]))
            times.append(t)
    return dirs, times, values


def _minimum(values: list[int], D: int) -> int:
    """Least scaled value; LS-path minima are integers, else the model broke."""
    q = min(values)
    if q % D:
        raise AssertionError("pairing value %d/%d is not an integer"
                             % (q, D))
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
    return -_minimum(_int_profile((path,), i, D)[2], D) // D


def path_phi(path: LSPath, i: int) -> int:
    """Endpoint value minus minimum of the pairing profile."""
    D = _denominator(path.m)
    values = _int_profile((path,), i, D)[2]
    return (values[-1] - _minimum(values, D)) // D


def _lower(i: int, dirs: list[int], times: list[int], H: list[int],
           D: int) -> tuple[list[int], list[int]] | None:
    """Littelmann's f_i on a chain of slopes with turning times and
    pairing values H scaled by D: reflect by s_i (x -> 2 - 2i - x) the
    pieces between the last minimum of H and its first return to
    minimum + 1, cutting the piece in which that return falls, and merge
    nothing.  The new (dirs, times), or None when the endpoint sits less
    than one above the minimum.  Only differences of H are read."""
    Q = _minimum(H, D)
    if H[-1] - Q < D:
        return None
    p = len(H) - 1 - H[::-1].index(Q)
    r = next(j for j in range(p + 1, len(H)) if H[j] >= Q + D)
    new_dirs = dirs[:p] + [2 - 2 * i - x for x in dirs[p:r]]
    new_times = times[:r]
    if H[r] > Q + D:
        new_times.append(_crossing(times[r - 1], H[r - 1], times[r], H[r],
                                   Q + D))
        new_dirs.append(dirs[r - 1])
    return new_dirs + dirs[r:], new_times + times[r:]


def _raise(i: int, dirs: list[int], times: list[int], H: list[int],
           D: int) -> tuple[list[int], list[int]] | None:
    """e_i: `_lower` on the reversed chain t -> path(end - t) - path(end),
    reversed back; None when H never goes below its start."""
    end = times[-1]
    chain = _lower(i, dirs[::-1], [end - t for t in times[::-1]], H[::-1], D)
    if chain is None:
        return None
    return chain[0][::-1], [end - t for t in chain[1][::-1]]


def _rebuild(dirs: list[int], times: list[int], D: int) -> list[LSPath]:
    """The validated canonical paths of a chain of slopes with turning
    times scaled by D, cut at the multiples of D, in one pass: a piece
    merges into an equal next neighbour before the cut, and each kept
    piece has its index decoded, checked and turned into a step."""
    if not dirs or len(times) != len(dirs) + 1:
        raise ValueError("need one more time than directions")
    if times[0] != 0 or times[-1] % D:
        raise ValueError("times must run from 0 to 1 on each path")
    paths, steps, start = [], [], 0
    for j, x in enumerate(dirs):
        t = times[j + 1]
        if t <= times[j]:
            raise ValueError("times must strictly increase")
        t -= start
        if t > D:
            raise ValueError("a piece runs past the end of its path")
        if t < D and dirs[j + 1] == x:
            continue
        k = x - 1 if x > 0 else -x
        if steps and (x % 2 != shape or k != n - 1):
            raise ValueError("chain must descend contiguously in one shape")
        step, rest = divmod(t * k, D)
        if rest:
            raise ValueError("time %d/%d is not canonical for index %d"
                             % (t, D, k))
        steps.append(step)
        shape, n = x % 2, k
        if t == D:
            paths.append(LSPath(shape, n, tuple(steps[-2::-1])))
            steps, start = [], start + D
    return paths


def _path_op(operator, path: LSPath, i: int) -> LSPath | None:
    D = _denominator(path.m)
    chain = operator(i, *_int_profile((path,), i, D), D)
    return None if chain is None else _rebuild(*chain, D)[0]


def f_path(path: LSPath, i: int) -> LSPath | None:
    """Path lowering operator; None when the endpoint sits less than one
    above the minimum of the pairing profile."""
    return _path_op(_lower, path, i)


def e_path(path: LSPath, i: int) -> LSPath | None:
    """Path raising operator; None when the pairing profile never goes
    below zero."""
    return _path_op(_raise, path, i)


def is_lambda_dominant(path: LSPath, lambda_type: int) -> bool:
    """True iff the chosen fundamental weight plus every turning point
    stays in the dominant chamber, that is epsilon_i <= <Lambda, a_i^vee>."""
    lam = fundamental(lambda_type)
    return all(path_epsilon(path, i) <= pair_coroot(lam, i) for i in (0, 1))
