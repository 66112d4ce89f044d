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

The lowering operator f_i is Littelmann's, driven by the least value Q of
h(t) = <path(t), a_i^vee>.  Within a path the slopes of h alternate in sign
and its local minima are ints, so h returns to Q + 1 on the one piece that
rises from its last minimum, which f_i reflects, cut there.  The raising
operator e_i, its two-sided inverse, is f_i conjugated by Littelmann's
duality t -> path(end - t) - path(end) (`_mirror`).  `_run_op` alone decides
a kill and serves paths and their concatenations (`tensor.concat_path_op`):
`_int_profile` joins a run of paths, path j over [j, j + 1], into one chain
of slopes, the operators merge nothing, and `_rebuild` cuts the chain at the
whole times, merging equal neighbours only within a path.

Everything runs on small ints: a turning time is an exact pair (a, q) with
q at most m + 1, and on each piece h(t) = c + s t with c an int, so h at a
turning time is a floor and a remainder mod q, and (Littelmann, Invent.
Math. 116, 1994) its least value has remainder 0.
"""

from __future__ import annotations

from functools import lru_cache

from .weights import (Weight, _check_count, _check_label, _checked_tuple,
                      fundamental, pair_coroot, simple_root)


# typed, so that a bool index misses the cached entry of its int and is refused
@lru_cache(maxsize=None, typed=True)
def direction_weight(shape: int, k: int) -> Weight:
    """Image of the fundamental weight of the shape under the coset
    representative w_k of that shape, in closed form (`weyl.act` is the
    oracle); its pairing with a_1^vee is the slope x of `_int_profile`,
    and d = -ceil(k/2)^2 (shape 0) or -floor(k/2)(floor(k/2) + 1) (shape 1)."""
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

    def weight(self) -> Weight:
        """The endpoint path(1): w_n Lambda minus i_k alpha_j per step, as
        w_k Lambda - w_{k-1} Lambda = -k alpha_j, j = (k + shape + 1) mod 2."""
        j = (self.n + self.shape) % 2  # for i_{n+1}, then alternating
        return (direction_weight(self.shape, self.n)
                - sum(self.steps[::2]) * simple_root(j)
                - sum(self.steps[1::2]) * simple_root(1 - j))

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


def _int_profile(paths: tuple[LSPath, ...], i: int) -> tuple[list, list, list]:
    """The directions of a run of paths, path j over [j, j + 1], as
    alpha_1-slopes x; each turning time as an exact pair (a, q), meaning
    a/q, with q the index of the direction that ends there (1 at a whole
    time); and h(t) = <path(t), a_i^vee> there as its floor and its
    remainder mod q.  On a piece of slope s (x for i = 1, 1 - x for
    i = 0) h(t) = c + s t with c an int, moved by (s - s')a/q at a turn."""
    _check_label(i)
    dirs, times, H = [], [(0, 1)], [(0, 0)]
    a, q, c, s = 0, 1, 0, 0
    for start, (shape, n, steps) in enumerate(paths):
        for k in range(n + len(steps), n - 1, -1):
            x = k + 1 if (k + shape) % 2 else -k
            last, s = s, x if i else 1 - x
            jump, rest = divmod((last - s) * a, q)
            # never fires: q is 1 at a whole time, else k + 1, and the
            # slopes of directions k + 1 and k differ by ±2(k + 1)
            if rest:
                raise AssertionError("intercept leaves the ints at %d/%d" % (a, q))
            c += jump
            a, q = (start * k + steps[k - n - 1], k) if k > n else (start + 1, 1)
            floor, rest = divmod(s * a, q)
            dirs.append(x)
            times.append((a, q))
            H.append((c + floor, rest))
    return dirs, times, H


def _minimum(H: list) -> int:
    """Least value of h; LS-path minima are integers, else the model broke
    (the least (floor, remainder) has remainder 0 iff the least value does)."""
    Q, rest = min(H)
    if rest:
        raise AssertionError("pairing minimum above %d is not an integer" % Q)
    return Q


def path_epsilon(path: LSPath, i: int) -> int:
    """Negated minimum of the pairing profile."""
    return -_minimum(_int_profile((path,), i)[2])


def path_phi(path: LSPath, i: int) -> int:
    """Endpoint value minus minimum of the pairing profile."""
    H = _int_profile((path,), i)[2]
    return H[-1][0] - _minimum(H)


def _lower(i: int, dirs: list, times: list, H: list, Q: int) -> tuple[list, list]:
    """Littelmann's f_i on a chain of slopes with exact turning times,
    values H of h and least value Q of h, where it acts: reflect by s_i
    (x -> 2 - 2i - x) the piece p from the last minimum of h, which ends
    at Q + 1 or above, cut where h = c + s t reaches Q + 1, at (Q + 1 -
    c)/s, canonical for the index s of its reflection; a later return
    puts the cut past p's end, which `_rebuild` refuses.  The new (dirs,
    times); reads only differences of H."""
    p = len(H) - 1 - H[::-1].index((Q, 0))
    x, (a, q), (floor, rest) = dirs[p], times[p + 1], H[p + 1]
    y = 2 - 2 * i - x
    if (floor, rest) == (Q + 1, 0):
        return dirs[:p] + [y] + dirs[p + 1:], times
    s = x if i else 1 - x
    cut = (Q + 1 - floor - (rest - s * a) // q, s)
    return (dirs[:p] + [y, x] + dirs[p + 1:],
            times[:p + 1] + [cut] + times[p + 1:])


def _mirror(i: int, dirs: list, times: list, end: int) -> tuple[list, list]:
    """Littelmann's duality t -> path(end - t) - path(end) on a chain over
    [0, end], an involution: the chain reversed, each time t sent to
    end - t and each slope reflected by s_i.  Its h is h(end - t) - h(end),
    so H read backwards gives its values up to one shift."""
    return ([2 - 2 * i - x for x in dirs[::-1]],
            [(end * q - a, q) for a, q in times[::-1]])


def _rebuild(dirs: list, times: list) -> list[LSPath]:
    """The validated canonical paths of a chain of slopes with exact
    turning times, cut at the whole times, in one pass: a piece merges
    into an equal next neighbour before the cut, and each kept piece has
    its index decoded, checked and turned into a step.  Times are
    compared by cross-multiplying."""
    if not dirs or len(times) != len(dirs) + 1:
        raise ValueError("need one more time than directions")
    if times[0][0] or times[-1][0] % times[-1][1]:
        raise ValueError("times must run from 0 to 1 on each path")
    paths, steps, start = [], [], 0
    for j, x in enumerate(dirs):
        (b, p), (a, q) = times[j], times[j + 1]
        if a * p <= b * q:
            raise ValueError("times must strictly increase")
        a -= start * q
        if a > q:
            raise ValueError("a piece runs past the end of its path")
        if a < q and dirs[j + 1] == x:
            continue
        k = x - 1 if x > 0 else -x
        if steps and (x % 2 != shape or k != n - 1):
            raise ValueError("chain must descend contiguously in one shape")
        step, rest = divmod(a * k, q)
        if rest:
            raise ValueError("time %d/%d is not canonical for index %d" % (a, q, k))
        steps.append(step)
        shape, n = x % 2, k
        if a == q:
            paths.append(LSPath(shape, n, tuple(steps[-2::-1])))
            steps, start = [], start + 1
    return paths


def _run_op(raising: bool, run: tuple, i: int) -> list[LSPath] | None:
    """f_i, or e_i (f_i mirrored) when raising, on a run of paths, path j
    over [j, j + 1], cut back into paths.  With Q the least value of h,
    None exactly when phi = h(end) - Q, or epsilon = h(0) - Q when
    raising, is 0.  A chain that the cut refuses means the model broke."""
    dirs, times, H = _int_profile(run, i)
    Q = _minimum(H)
    if (H[0] if raising else H[-1])[0] <= Q:
        return None
    if raising:
        end = len(run)
        chain = _mirror(i, *_lower(i, *_mirror(i, dirs, times, end), H[::-1], Q),
                        end)
    else:
        chain = _lower(i, dirs, times, H, Q)
    try:
        return _rebuild(*chain)
    except ValueError as exc:
        raise AssertionError("root operator left the LS paths: %s" % exc)


def f_path(path: LSPath, i: int) -> LSPath | None:
    """Path lowering operator; None on a kill (see `_run_op`)."""
    images = _run_op(False, (path,), i)
    return None if images is None else images[0]


def e_path(path: LSPath, i: int) -> LSPath | None:
    """Path raising operator; None on a kill (see `_run_op`)."""
    images = _run_op(True, (path,), i)
    return None if images is None else images[0]


def is_lambda_dominant(path: LSPath, lambda_type: int) -> bool:
    """True iff the chosen fundamental weight plus every turning point
    stays in the dominant chamber, that is epsilon_i <= <Lambda, a_i^vee>."""
    lam = fundamental(lambda_type)
    return all(path_epsilon(path, i) <= pair_coroot(lam, i) for i in (0, 1))
