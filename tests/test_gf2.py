"""Bit-packed linear algebra: the RREF canonical form and kernels."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fuchslab import gf2

vectors = st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=10)


def _brute_span(basis):
    span = {0}
    for row in basis:
        span |= {v ^ row for v in span}
    return span


@given(vectors)
def test_rref_is_idempotent(rows):
    basis = gf2.rref(rows)
    assert gf2.rref(basis) == basis


@given(vectors)
def test_rref_preserves_span(rows):
    basis = gf2.rref(rows)
    assert _brute_span(rows) == _brute_span(basis)


@given(vectors)
def test_rref_pivots_are_strict_and_reduced(rows):
    basis = gf2.rref(rows)
    pivots = [gf2.lowest_bit(v) for v in basis]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for i, v in enumerate(basis):
        for j, p in enumerate(pivots):
            if i != j:
                assert not (v >> p) & 1


@settings(derandomize=True)
@given(vectors, st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=6))
def test_rref_extends_an_rref_start_as_the_concatenation(start_rows, rows):
    # the search's sum of two ideals, constructions._join, inserts the smaller
    # basis into the larger one without eliminating the larger one again
    start = gf2.rref(start_rows)
    assert gf2.rref(rows, start) == gf2.rref(list(start) + rows)
    assert gf2.rref(iter(rows), start) == gf2.rref(start_rows + rows)
    assert gf2.rref([], start) == start


@given(vectors, st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_reduce_vector_decides_membership(rows, probe):
    basis = gf2.rref(rows)
    assert (gf2.reduce_vector(probe, basis) == 0) == (probe in _brute_span(rows))


wide_vectors = st.lists(st.integers(min_value=0, max_value=1 << 130), max_size=10)


def _reference_reduce(v, basis):
    """Elimination that finds each pivot with lowest_bit, the way the
    library did before it tested pivots by mask."""
    for row in basis:
        if (v >> gf2.lowest_bit(row)) & 1:
            v ^= row
    return v


@given(wide_vectors, st.integers(min_value=0, max_value=1 << 130),
       st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_mask_pivot_tests_match_lowest_bit_reference_past_64_bits(rows, probe, mask):
    basis = gf2.rref(rows)
    pivots = [gf2.lowest_bit(v) for v in basis]
    assert pivots == sorted(set(pivots))
    assert all(not (v >> p) & 1 for v in basis for p in pivots if p != gf2.lowest_bit(v))
    inside = 0
    for i in gf2.bits(mask & ((1 << len(basis)) - 1)):
        inside ^= basis[i]
    assert gf2.reduce_vector(inside, basis) == 0
    for v in (probe, inside, probe ^ inside):
        assert gf2.reduce_vector(v, basis) == _reference_reduce(v, basis)


def test_kernel_of_images_matches_brute_force():
    # map F2^4 -> F2^2 with images chosen to have a rank-2 kernel
    images = [0b01, 0b10, 0b11, 0b01]
    kernel = gf2.kernel_of_images(images, 2)
    members = set()
    for mask in range(1 << 4):
        acc = 0
        for i in gf2.bits(mask):
            acc ^= images[i]
        if acc == 0:
            members.add(mask)
    assert _brute_span(kernel) == members
    assert len(kernel) == 2


def test_kernel_of_zero_map_is_everything():
    kernel = gf2.kernel_of_images([0, 0, 0], 4)
    assert len(kernel) == 3
