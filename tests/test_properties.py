"""Randomised checks on 2-regular partitions of 100-2,000 boxes, past the
sizes the exhaustive verify suites reach, and on runs of LS paths."""

from math import isqrt

from hypothesis import given, strategies as st

from kkcrystals.iso import partition_to_path
from kkcrystals.kk import KKSpec, in_kk_crystal, in_kk_crystal_by_weyl
from kkcrystals.partitions import (ChargedPartition, enumerate_regular,
                                   reduce_signature, signature)
from kkcrystals.paths import (LSPath, _int_profile, _rebuild, e_path, f_path,
                              path_epsilon, path_phi)
from kkcrystals.tensor import TensorElement
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
    covers what is left, so the draw never gets stuck."""
    remaining = draw(st.integers(min_boxes, max_boxes))
    parts, bound = [], remaining
    while remaining:
        low = (isqrt(8 * remaining + 1) - 1) // 2
        if low * (low + 1) // 2 < remaining:
            low += 1
        part = draw(st.integers(low, min(remaining, bound)))
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
    assert iso_disagreement(cp, i) is None


# right factors at desk scale, or at charge 0 past it, so that long
# right-hand chains meet the junction of the concatenation
RIGHTS = st.sampled_from(SMALL_RIGHTS) | regular_partitions().map(
    lambda cp: ChargedPartition(cp.parts, 0))


@given(regular_partitions(), RIGHTS, LABELS, st.sampled_from(("f", "e")))
def test_tensor_rule_matches_concatenated_paths(left, right, i, op):
    t = TensorElement(left, right)
    message = tensor_rule_disagreement(t, partition_to_path(left),
                                       partition_to_path(right), i, op)
    assert message is None


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
def ls_paths(draw):
    """A canonical path of either shape: weakly decreasing steps in 1..n,
    so that n = 0 leaves only the straight path."""
    n = draw(st.integers(0, 40))
    steps = draw(st.lists(st.integers(1, n), max_size=20)) if n else []
    return LSPath(draw(LABELS), n, sorted(steps, reverse=True))


# straight paths of one shape meet at a cut with equal slopes
RUNS = st.lists(st.sampled_from((LSPath(0, 0), LSPath(1, 0))) | ls_paths(),
                min_size=1, max_size=3)


@given(RUNS, LABELS)
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


@given(RUNS | regular_partitions().map(lambda cp: [partition_to_path(cp)]),
       LABELS)
def test_h_reaches_the_minimum_plus_one_on_the_rising_piece(run, i):
    # the fact f_i's one-piece reflection rests on: where f_i acts, h is
    # at least Q + 1 at the end of the piece that leaves its last minimum
    H = _int_profile(tuple(run), i)[2]
    Q = min(H)[0]
    if H[-1][0] > Q:
        p = len(H) - 1 - H[::-1].index((Q, 0))
        assert H[p + 1] >= (Q + 1, 0), run
