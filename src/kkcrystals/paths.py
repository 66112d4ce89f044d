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
strictly inside it.  The raising operator e_i is the mirror image
(leftmost minimum, first earlier return), and is the two-sided inverse of
f_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import weights
from .weights import Weight, fundamental, is_dominant, pair_coroot
from .weyl import CosetRep, coset_action, coset_element


def shape_sign(shape: int) -> str:
    if shape not in (0, 1):
        raise ValueError("shape must be 0 or 1")
    return "+" if shape == 0 else "-"


@lru_cache(maxsize=None)
def direction_weight(shape: int, k: int) -> Weight:
    """Image of the fundamental weight under the k-th coset representative
    of the matching sign."""
    return weights.act(coset_element(shape_sign(shape), k), fundamental(shape))


@dataclass(frozen=True)
class LSPath:
    shape: int
    n: int
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if any(type(x) is not int for x in (self.shape, self.n, *self.steps)):
            raise TypeError("shape, n and steps must be integers")
        if self.shape not in (0, 1):
            raise ValueError("shape must be 0 or 1")
        if self.n < 0:
            raise ValueError("final index must be nonnegative")
        if self.steps:
            if self.steps[-1] < 1:
                raise ValueError("steps must be positive")
            if any(a < b for a, b in zip(self.steps, self.steps[1:])):
                raise ValueError("steps must be weakly decreasing")
            if self.steps[0] > self.n:
                raise ValueError("leading step exceeds the final index")

    @property
    def m(self) -> int:
        """Initial direction index."""
        return self.n + len(self.steps)

    @property
    def r(self) -> int:
        """Number of linear segments."""
        return len(self.steps) + 1

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

    def pieces(self) -> list[tuple[Weight, Fraction]]:
        """(velocity, duration) pairs for the piecewise-linear map."""
        ts = self.times
        return [(direction_weight(self.shape, k), ts[j + 1] - ts[j])
                for j, k in enumerate(self.direction_indices)]

    def evaluate(self, t) -> Weight:
        t = Fraction(t)
        if t < 0 or t > 1:
            raise ValueError("time must lie in [0, 1]")
        ts = self.times
        total = weights.ZERO
        for j, k in enumerate(self.direction_indices):
            v = direction_weight(self.shape, k)
            if t <= ts[j + 1]:
                return total + (t - ts[j]) * v
            total = total + (ts[j + 1] - ts[j]) * v
        return total

    def turning_points(self) -> list[Weight]:
        ts = self.times
        out = [weights.ZERO]
        for j, k in enumerate(self.direction_indices):
            out.append(out[-1] + (ts[j + 1] - ts[j]) * direction_weight(self.shape, k))
        return out

    def initial_direction(self) -> CosetRep:
        return CosetRep(shape_sign(self.shape), self.m)

    def final_direction(self) -> CosetRep:
        return CosetRep(shape_sign(self.shape), self.n)

    def to_json(self) -> dict:
        return {"shape": "L%d" % self.shape, "n": self.n, "steps": list(self.steps)}

    @classmethod
    def from_json(cls, data: dict) -> "LSPath":
        shape_text = data["shape"]
        if shape_text not in ("L0", "L1"):
            raise ValueError("shape must be 'L0' or 'L1'")
        return cls(int(shape_text[1]), data["n"], tuple(data["steps"]))

    def describe(self) -> str:
        """Directions and turning times spelled out."""
        dirs = " > ".join("w%s%d" % (shape_sign(self.shape), k)
                          for k in self.direction_indices)
        ts = ", ".join(str(t) for t in self.times)
        return "%s @ [%s]" % (dirs, ts)

    @classmethod
    def from_chain(cls, shape: int, indices, times) -> "LSPath":
        """Rebuild the canonical form from an explicit direction chain and
        turning times, validating the canonical-shape constraints."""
        indices = list(indices)
        times = [Fraction(t) for t in times]
        if not indices or len(times) != len(indices) + 1:
            raise ValueError("need one more time than directions")
        if times[0] != 0 or times[-1] != 1:
            raise ValueError("times must run from 0 to 1")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("times must strictly increase")
        for a, b in zip(indices, indices[1:]):
            if a != b + 1:
                raise ValueError("direction chain must descend contiguously")
        steps = []
        for k in range(len(indices) - 1):
            value = times[k + 1] * indices[k]
            if value.denominator != 1:
                raise ValueError("time %s is not canonical for index %d"
                                 % (times[k + 1], indices[k]))
            steps.append(int(value))
        return cls(shape, indices[-1], tuple(reversed(steps)))

    def __str__(self):
        return "LSPath(L%d, n=%d, steps=%s)" % (self.shape, self.n, list(self.steps))


@dataclass(frozen=True)
class PiecewiseLinearH:
    """A coroot-pairing profile t -> <path(t), a_i^vee>: breakpoints with
    exact rational times and values, affine with integer slope between."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if not self.points or self.points[0] != (0, 0) or ts[-1] != 1:
            raise ValueError("profile must start at (0, 0) and end at t = 1")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("breakpoint times must strictly increase")
        for (t0, v0), (t1, v1) in zip(self.points, self.points[1:]):
            if ((v1 - v0) / (t1 - t0)).denominator != 1:
                raise ValueError("slopes must be integers")

    def minimum(self) -> Fraction:
        return min(v for _, v in self.points)

    def value_at(self, t) -> Fraction:
        t = Fraction(t)
        if t < 0 or t > 1:
            raise ValueError("time must lie in [0, 1]")
        for (t0, v0), (t1, v1) in zip(self.points, self.points[1:]):
            if t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return self.points[-1][1]


def _h_values(path: LSPath, i: int) -> list[Fraction]:
    return [pair_coroot(p, i) for p in path.turning_points()]


def _integer(q: Fraction) -> int:
    """Pairing minima and string lengths of LS paths and of their
    concatenations are integers; a fraction means the model is broken."""
    if q.denominator != 1:
        raise AssertionError("pairing value %s is not an integer" % q)
    return int(q)


def h_function(path: LSPath, i: int) -> PiecewiseLinearH:
    return PiecewiseLinearH(tuple(zip(path.times, _h_values(path, i))))


def path_epsilon(path: LSPath, i: int) -> int:
    """Negated minimum of the pairing profile."""
    return -_integer(min(_h_values(path, i)))


def path_phi(path: LSPath, i: int) -> int:
    """Endpoint value minus minimum of the pairing profile."""
    values = _h_values(path, i)
    return _integer(values[-1] - min(values))


def f_path(path: LSPath, i: int) -> LSPath | None:
    """Path lowering operator; None when the endpoint sits less than one
    above the minimum of the pairing profile."""
    idx = path.direction_indices
    times = path.times
    H = _h_values(path, i)
    Q = _integer(min(H))
    if H[-1] - Q < 1:
        return None
    p = max(j for j in range(len(H)) if H[j] == Q)
    x = max(j for j in range(p, len(H)) if H[j] < Q + 1) + 1
    sign = shape_sign(path.shape)
    reflected = [coset_action(i, k, sign) for k in idx[p:x]]
    merge = p >= 1 and reflected[0] == idx[p - 1]
    split = H[x] > Q + 1

    new_idx = list(idx[:p - 1] if merge else idx[:p]) + reflected
    new_times = list(times[:p] if merge else times[:p + 1]) + list(times[p + 1:x])
    if split:
        slope = (H[x] - H[x - 1]) / (times[x] - times[x - 1])
        new_times.append(times[x - 1] + (Q + 1 - H[x - 1]) / slope)
        new_idx.append(idx[x - 1])
    new_idx += list(idx[x:])
    new_times += list(times[x:])
    return LSPath.from_chain(path.shape, new_idx, new_times)


def e_path(path: LSPath, i: int) -> LSPath | None:
    """Path raising operator, the mirror of f_path; None when the pairing
    profile never goes below zero."""
    idx = path.direction_indices
    times = path.times
    H = _h_values(path, i)
    Q = _integer(min(H))
    if Q >= 0:
        return None
    q = min(j for j in range(len(H)) if H[j] == Q)
    y = min(j for j in range(q + 1) if H[j] < Q + 1) - 1
    sign = shape_sign(path.shape)
    reflected = [coset_action(i, k, sign) for k in idx[y:q]]
    merge = q < len(idx) and reflected[-1] == idx[q]
    split = H[y] > Q + 1

    new_idx = list(idx[:y])
    new_times = list(times[:y + 1])
    if split:
        slope = (H[y + 1] - H[y]) / (times[y + 1] - times[y])
        new_times.append(times[y] + (Q + 1 - H[y]) / slope)
        new_idx.append(idx[y])
    new_idx += reflected + list(idx[q + 1:] if merge else idx[q:])
    new_times += list(times[y + 1:q]) + list(times[q + 1:] if merge else times[q:])
    return LSPath.from_chain(path.shape, new_idx, new_times)


def is_lambda_dominant(path: LSPath, lambda_type: int) -> bool:
    """True iff the chosen fundamental weight plus every turning point
    stays in the dominant chamber."""
    lam = fundamental(lambda_type)
    return all(is_dominant(lam + g) for g in path.turning_points())
