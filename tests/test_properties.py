"""Randomised checks on 2-regular partitions of 100-2,000 boxes, past the
sizes the exhaustive verify suites reach, and on runs of LS paths."""

from math import isqrt

from hypothesis import given, strategies as st

from kkcrystals.iso import partition_to_path
from kkcrystals.kk import (KKSpec, _p_allowed, in_kk_crystal,
                           in_kk_crystal_by_weyl)
from kkcrystals.partitions import (ChargedPartition, enumerate_regular,
                                   reduce_signature, signature)
from kkcrystals.paths import (LSPath, _int_profile, _rebuild, e_path, f_path,
                              path_epsilon, path_phi)
from kkcrystals.tensor import TensorElement, tensor_e
from kkcrystals.verify import (integrality_disagreement, inverse_disagreement,
                               iso_disagreement, kernel_disagreement,
                               structure_disagreement,
                               tensor_rule_disagreement)

LABELS = st.sampled_from((0, 1))
SMALL_RIGHTS = enumerate_regular(0, 6)


@st.composite
def regular_partitions(draw, min_boxes: int = 100, max_boxes: int = 2000):
    """Distinct parts summing to a size in the range, largest first; each
    part is at least the smallest p whose staircase 1 + ... + p still
    covers what is left, so the draw never gets stuck.  Hypothesis counts
    a replayed draw that misses a bound or a length set by earlier draws
    as an invalid example, so every draw has fixed bounds and a fixed
    count: one key in 0..max_boxes for each part a partition of max_boxes
    can have, scaled into its part's range."""
    remaining = draw(st.integers(min_boxes, max_boxes))
    most_parts = (isqrt(8 * max_boxes + 1) - 1) // 2
    keys = iter(draw(st.lists(st.integers(0, max_boxes),
                              min_size=most_parts, max_size=most_parts)))
    parts, bound = [], remaining
    while remaining:
        low = (isqrt(8 * remaining + 1) - 1) // 2
        if low * (low + 1) // 2 < remaining:
            low += 1
        high = min(remaining, bound)
        part = low + next(keys) * (high - low + 1) // (max_boxes + 1)
        parts.append(part)
        remaining -= part
        bound = part - 1
    return ChargedPartition(tuple(parts), draw(LABELS))


@given(regular_partitions(), LABELS)
def test_kernel_matches_the_column_scan(cp, i):
    assert 100 <= cp.size <= 2000
    reduced = reduce_signature(signature(cp, i))
    assert kernel_disagreement(cp, i, reduced) is None


@given(regular_partitions(), LABELS)
def test_operators_are_partial_inverses_with_the_weight_step(cp, i):
    assert inverse_disagreement(cp, i) is None


@given(regular_partitions(), LABELS)
def test_bijection_commutes_with_the_operators(cp, i):
    # path turning times here have denominators up to the largest part
    assert iso_disagreement(cp, partition_to_path(cp), i) is None


# right factors at desk scale, or at charge 0 past it, so that long
# right-hand chains meet the junction of the concatenation
RIGHTS = st.sampled_from(SMALL_RIGHTS) | regular_partitions().map(
    lambda cp: ChargedPartition(cp.parts, 0))


@given(regular_partitions(), RIGHTS, LABELS, st.sampled_from(("f", "e")))
def test_tensor_rule_matches_concatenated_paths(left, right, i, op):
    t = TensorElement(left, right)
    assert tensor_rule_disagreement(t, partition_to_path, i, op) is None


def pair_of(left, right):
    """The tensor pair of left and right, the right factor at charge 0."""
    return TensorElement(left, ChargedPartition(right.parts, 0))


@given(regular_partitions(), regular_partitions())
def test_tensor_structure_holds(left, right):
    assert structure_disagreement(pair_of(left, right)) is None


@given(regular_partitions(), regular_partitions(), st.integers(-4, 3))
def test_membership_routes_agree(left, right, shift):
    # p near the rectangle bound m - n - 1, so members and non-members
    # both occur; then moved to the parity the left charge allows
    t = pair_of(left, right)
    p = max(0, t.right.parts[0] - len(t.left.parts) + shift)
    if p % 2 != (1 if left.charge == 0 else 0) and p:
        p += 1
    spec = KKSpec(left.charge, p)
    assert in_kk_crystal(spec, t) == in_kk_crystal_by_weyl(spec, t)


@st.composite
def pairs_across_a_rectangle_edge(draw):
    """A left factor of 20-300 boxes with n parts, and two charge-0 right
    factors, alike but for their largest parts m = n + shift and m + 1.
    The rectangle bound is n for K(0, 0) and n + p + 1 otherwise, so
    shifts 0 and 1 put the pairs across the p = 0 edge of either family,
    and the longer shifts reach the edge of every p <= 39."""
    left = draw(regular_partitions(20, 300))
    m = len(left.parts) + draw(st.sampled_from((0, 1)) | st.integers(-3, 40))
    rest = sorted(draw(st.sets(st.integers(1, m - 1))) if m > 1 else (),
                  reverse=True)
    rights = [(k, *rest) if k > 0 else () for k in (m, m + 1)]
    return [TensorElement(left, ChargedPartition(r, 0)) for r in rights]


@given(pairs_across_a_rectangle_edge(), LABELS)
def test_membership_is_constant_on_components(pairs, i):
    # K(lambda, p) is a union of components, so every pair met on the way
    # up from t, by e_i or else e_{1-i}, agrees with t on it for each p
    charge = pairs[0].left.charge
    specs = [KKSpec(charge, p) for p in range(40) if _p_allowed(charge, p)]
    for t in pairs:
        members = [in_kk_crystal(spec, t) for spec in specs]
        top = up = t
        while up is not None:
            top = up
            assert [in_kk_crystal(spec, top) for spec in specs] == members, top
            up = tensor_e(i, top) or tensor_e(1 - i, top)
        assert top.left.parts == (), (t, top)


@st.composite
def ls_paths(draw):
    """A canonical path of either shape: up to 20 weakly decreasing steps
    in 1..n, so that n = 0 leaves only the straight path.  As in
    regular_partitions, every draw has fixed bounds and a fixed count:
    each step is a key in 0..39 scaled into 1..n."""
    n, count = draw(st.integers(0, 40)), draw(st.integers(0, 20))
    keys = draw(st.lists(st.integers(0, 39), min_size=20, max_size=20))
    steps = sorted((1 + key * n // 40 for key in keys[:count]), reverse=True)
    return LSPath(draw(LABELS), n, steps if n else [])


@st.composite
def runs(draw):
    """One to three paths, each straight with even odds, since straight
    paths of one shape meet at a cut with equal slopes; a fixed count of
    draws, as in ls_paths."""
    count = draw(st.integers(1, 3))
    run = [(draw(st.booleans()), draw(ls_paths())) for _ in range(3)]
    return [LSPath(path.shape, 0) if straight else path
            for straight, path in run[:count]]


@given(runs(), LABELS)
def test_the_cut_undoes_the_join(run, i):
    dirs, times, _ = _int_profile(tuple(run), i)
    assert _rebuild(dirs, times) == run


@given(ls_paths() | regular_partitions().map(partition_to_path), LABELS)
def test_exact_profile_matches_the_scaled_oracle(path, i):
    assert integrality_disagreement(path, i) is None


@given(ls_paths() | regular_partitions().map(partition_to_path), LABELS)
def test_an_operator_kills_exactly_where_its_string_ends(path, i):
    assert (f_path(path, i) is None) == (path_phi(path, i) == 0), path
    assert (e_path(path, i) is None) == (path_epsilon(path, i) == 0), path


@given(runs() | regular_partitions().map(lambda cp: [partition_to_path(cp)]),
       LABELS)
def test_h_reaches_the_minimum_plus_one_on_the_rising_piece(run, i):
    # the fact f_i's one-piece reflection rests on: where f_i acts, h is
    # at least Q + 1 at the end of the piece that leaves its last minimum
    H = _int_profile(tuple(run), i)[2]
    Q = min(H)[0]
    if H[-1][0] > Q:
        p = len(H) - 1 - H[::-1].index((Q, 0))
        assert H[p + 1] >= (Q + 1, 0), run
