"""Ideal preservation, endomorphism lifting, and the brute-force oracle."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchslab import (
    BudgetExceededError,
    GroupHom,
    GroupSpec,
    QuotientRing,
    UnitGroupMismatchError,
    a24_ideal,
    count_preserving,
    elements,
    endo_count,
    enumerate_endos,
    field_algebra,
    fully_realizes,
    group_algebra,
    ideal_span,
    identity_hom,
    present_over,
    preserves_ideal,
    product_algebra,
    product_element,
    ring_endos,
    ring_endos_oracle,
)
from fuchslab import endo
from fuchslab.endo import _lift_check, _monoid_generators
from fuchslab.gf2 import bits
from fuchslab.groups import element_index, image_candidates

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))
C4 = GroupSpec((4,))
C33 = GroupSpec((3, 3))


def _preserves_reference(g, phi, ideal):
    """The lift test by a second path, independent of the engine's Cayley
    tables: GroupHom.apply and element_index map each basis element of the
    ideal's RREF basis vectors, and the image must lie in the ideal."""
    els = elements(g)
    image_bit = {}
    for v in ideal.rref_basis:
        acc = 0
        for b in bits(v):
            bit = image_bit.get(b)
            if bit is None:
                bit = 1 << element_index(g, phi.apply(els[b]))
                image_bit[b] = bit
            acc ^= bit
        if not ideal.contains(acc):
            return False
    return True


def _walk(g, ideal, total):
    """count_preserving's walk alone, without the monoid generators it
    tries first."""
    with mock.patch.object(endo, "_monoid_generators", lambda g: None):
        return count_preserving(ideal, total)


def _chain_ring():
    a = group_algebra(C4)
    return QuotientRing(ideal_span(a, [a.power(0b0011, 3)]))


def _f2f4f4_ring():
    fields = [field_algebra(1), field_algebra(2), field_algebra(2)]
    target = product_algebra(fields)
    u = product_element(fields, [1, 0b10, 0b01])
    v = product_element(fields, [1, 0b01, 0b10])
    return present_over(C33, target, [u, v])


def test_identity_always_preserves():
    for q in (_chain_ring(), _f2f4f4_ring()):
        g = q.parent_group
        assert preserves_ideal(identity_hom(g), q.ideal)


def test_preserves_ideal_squaring_on_c4():
    # y -> y^2 sends 1+y+y^2+y^3 to 1+y^2+1+y^2 = 0, which lies in the ideal
    q = _chain_ring()
    squaring = GroupHom(C4, C4, ((2,),))
    assert preserves_ideal(squaring, q.ideal)
    amb = group_algebra(C4)
    image = amb.one_vector ^ (1 << 2) ^ amb.one_vector ^ (1 << 2)
    assert image == 0


def test_preserves_ideal_counts_25_of_81():
    q = _f2f4f4_ring()
    kept = [h for h in enumerate_endos(C33) if preserves_ideal(h, q.ideal)]
    assert len(kept) == 81 - 56 == 25


def _oracle_rings():
    return [
        QuotientRing(ideal_span(group_algebra(C2), [])),
        QuotientRing(ideal_span(group_algebra(C3), [])),
        _chain_ring(),
        QuotientRing(a24_ideal(2, False)),
        QuotientRing(a24_ideal(3, False)),
        present_over(C3, field_algebra(2), [0b10]),
    ]


def test_generator_and_basis_checks_agree():
    # count_preserving and ring_endos, which share the engine's lift test,
    # against the reference, endomorphism by endomorphism
    rings = _oracle_rings() + [_f2f4f4_ring(), QuotientRing(a24_ideal(1, True))]
    for q in rings:
        g = q.parent_group
        homs = enumerate_endos(g)
        by_basis = [_preserves_reference(g, h, q.ideal) for h in homs]
        preserved, first_fail = count_preserving(q.ideal, endo_count(g))
        assert preserved == sum(by_basis)
        expected_first = next((i for i, ok in enumerate(by_basis) if not ok), None)
        assert first_fail == expected_first
        assert ring_endos(q) == [h for h, ok in zip(homs, by_basis) if ok]
        assert endo.every_endo_lifts(q.ideal) == all(by_basis)


def test_preserves_ideal_refuses_a_map_of_another_group():
    ideal = ideal_span(group_algebra(C3), [])
    with pytest.raises(ValueError, match="endomorphism of C3"):
        preserves_ideal(GroupHom(C2, C2, ((1,),)), ideal)
    with pytest.raises(ValueError, match="endomorphism of C3"):
        preserves_ideal(GroupHom(C3, GroupSpec((6,)), ((2,),)), ideal)


@pytest.mark.parametrize("call", [
    QuotientRing,
    lambda ideal: preserves_ideal(identity_hom(C3), ideal),
    lambda ideal: count_preserving(ideal, 1),
    endo.every_endo_lifts,
], ids=["QuotientRing", "preserves_ideal", "count_preserving", "every_endo_lifts"])
def test_the_engine_refuses_an_ideal_outside_a_group_algebra(call):
    # the engine reads G off the ideal, so an ideal of F4 has none to give
    with pytest.raises(ValueError, match="group algebra"):
        call(ideal_span(field_algebra(2), []))


def test_count_preserving_refuses_a_total_outside_end():
    # the walk: 25 of the 81 endomorphisms lift, and no 162 exist to count
    q = _f2f4f4_ring()
    assert count_preserving(q.ideal, 81) == (25, 10)
    for total in (82, 162, -1):
        with pytest.raises(ValueError, match="outside"):
            count_preserving(q.ideal, total)
    # the monoid generators: every map preserves the zero ideal of F2[C2^2]
    c22 = GroupSpec((2, 2))
    zero = ideal_span(group_algebra(c22), [])
    assert count_preserving(zero, 16) == (16, None)
    for total in (17, 100, -1):
        with pytest.raises(ValueError, match="outside"):
            count_preserving(zero, total)


def test_ring_endos_counts():
    assert len(ring_endos(present_over(C3, group_algebra(C3), [0b010]))) == 3
    assert len(ring_endos(_chain_ring())) == 4
    assert len(ring_endos(_f2f4f4_ring())) == 25


def test_ring_endos_requires_unit_group_match():
    # F2[C2 x C2] has 8 units but the group has only 4 elements
    c22 = GroupSpec((2, 2))
    q = QuotientRing(ideal_span(group_algebra(c22), []))
    assert not q.units_are_group
    with pytest.raises(UnitGroupMismatchError):
        ring_endos(q)


def test_fully_realizes_f2c2():
    q = QuotientRing(ideal_span(group_algebra(C2), []))
    rep = fully_realizes(q, C2)
    assert rep.fully_realizes and rep.unit_group_ok
    assert (rep.realized_endos, rep.total_endos) == (2, 2)
    assert rep.failing_witness is None


def test_fully_realizes_c3xc3_witness():
    rep = fully_realizes(_f2f4f4_ring(), C33)
    assert rep.unit_group_ok and not rep.fully_realizes
    assert (rep.realized_endos, rep.total_endos) == (25, 81)
    witness = rep.failing_witness
    assert witness is not None
    assert not preserves_ideal(witness, _f2f4f4_ring().ideal)
    # determinism: the witness is the first failure in enumeration order
    first = next(
        h for h in enumerate_endos(C33)
        if not preserves_ideal(h, _f2f4f4_ring().ideal)
    )
    assert witness == first


def test_fully_realizes_wrong_expected_group():
    rep = fully_realizes(_chain_ring(), GroupSpec((2, 2)))
    assert not rep.unit_group_ok and not rep.fully_realizes
    assert rep.failing_witness is None  # witnesses only accompany unit-ok failures


def test_products_fail_instance():
    comps = [group_algebra(C3), field_algebra(2)]
    target = product_algebra(comps)
    a = product_element(comps, [0b010, 0b01])
    b = product_element(comps, [0b001, 0b10])
    q = present_over(C33, target, [a, b])
    psi = GroupHom(C33, C33, ((1, 1), (0, 1)))  # (u, v) -> (u, uv)
    assert not preserves_ideal(psi, q.ideal)
    rep = fully_realizes(q, C33)
    assert rep.unit_group_ok and not rep.fully_realizes
    assert rep.realized_endos == 25


def test_realized_sets_closed_under_composition():
    rings = [
        _f2f4f4_ring(),
        QuotientRing(a24_ideal(1, True)),
    ]
    for q in rings:
        kept = ring_endos(q)
        assert len(kept) <= 2000
        universe = {h.images for h in kept}
        for f, g in itertools.product(kept, repeat=2):
            assert f.compose(g).images in universe


def test_endo_budget():
    # the budget bounds the walk, which only an ideal that some monoid
    # generator fails to preserve still needs: the cycle v_i -> v_{i+1}
    # sends 1 + v_4 to 1 + v_0, outside the ideal (1 + v_4)
    big = GroupSpec((2,) * 5)
    amb = group_algebra(big)
    q = QuotientRing(ideal_span(amb, [amb.one_vector ^ 0b10]))
    with pytest.raises(BudgetExceededError):
        fully_realizes(q, big, max_endos=10**6)
    rep = fully_realizes(QuotientRing(a24_ideal(5, False)), big, max_endos=10**6)
    assert rep.fully_realizes and rep.realized_endos == rep.total_endos == 2**25


def test_oracle_counts():
    assert ring_endos_oracle(field_algebra(1)) == 1
    assert ring_endos_oracle(product_algebra([field_algebra(1), field_algebra(2)])) == 3
    assert ring_endos_oracle(_chain_ring().quotient_algebra) == 4
    with pytest.raises(BudgetExceededError):
        ring_endos_oracle(_f2f4f4_ring().quotient_algebra)


def test_oracle_equivalence_on_dim_le_4():
    for q in _oracle_rings():
        assert q.dim <= 4
        assert len(ring_endos(q)) == ring_endos_oracle(q.quotient_algebra)


def test_scan_matches_preserves_ideal_on_random_ideals():
    # random ideals, unlike witness rings, also give negative verdicts
    rng = random.Random(20261017)
    failures = 0
    # (2, 3), (4, 3) and (2, 2, 3) are the presentations of the C3 witnesses
    for orders in ((2, 2), (4,), (2, 4), (6,), (3, 3), (2, 2, 2), (2, 3), (4, 3), (2, 2, 3)):
        g = GroupSpec(orders)
        amb = group_algebra(g)
        homs = enumerate_endos(g)
        for _ in range(12):
            # even weight keeps the span inside the augmentation ideal, so
            # it is proper and most draws are not the whole algebra
            raw = [rng.randrange(1 << amb.dim) for _ in range(rng.randint(1, 2))]
            vectors = [v ^ (v.bit_count() & 1) for v in raw]
            ideal = ideal_span(amb, vectors)
            verdicts = [_preserves_reference(g, h, ideal) for h in homs]
            first_fail = next((i for i, ok in enumerate(verdicts) if not ok), None)
            assert count_preserving(ideal, len(homs)) == (sum(verdicts), first_fail)
            failures += first_fail is not None
    assert failures > 0


def _presentations(limit, least=2):
    # every tuple of cyclic orders >= 2, in any order, with product <= limit
    yield ()
    for d in range(least, limit + 1):
        for rest in _presentations(limit // d):
            yield (d,) + rest


# the walk lists End(g) in full, so |End| <= 4096 leaves out only C2^4
_SMALL_PRESENTATIONS = [o for o in _presentations(16) if endo_count(GroupSpec(o)) <= 4096]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_walk_matches_preserves_ideal_on_random_presentations(data):
    # the walk alone, without the monoid generators count_preserving tries first
    g = GroupSpec(data.draw(st.sampled_from(_SMALL_PRESENTATIONS)))
    amb = group_algebra(g)
    # a random vector mostly spans a big ideal that every map preserves;
    # (1 + x)(1 + y) for group elements x, y gives small ones that many do not.
    # The sum N of all group elements spans the one ideal of dim 1, whose one
    # check vector is also its last: a map whose kernel has odd order k > 1
    # sends N to k times the sum over its smaller image, so it fails there
    index = st.integers(0, amb.dim - 1)
    pair = st.tuples(index, index).map(lambda xy: amb.mul(1 | 1 << xy[0], 1 | 1 << xy[1]))
    norm = (1 << amb.dim) - 1
    vectors = data.draw(st.one_of(
        st.just([norm]),
        st.lists(st.one_of(pair, st.integers(0, norm)), min_size=1, max_size=3),
    ))
    ideal = ideal_span(amb, vectors)
    homs = enumerate_endos(g)
    expected = [_preserves_reference(g, h, ideal) for h in homs]
    lifts = _lift_check(ideal)
    assert [lifts(images) for images in itertools.product(*image_candidates(g))] == expected
    first_fail = next((i for i, ok in enumerate(expected) if not ok), None)
    assert _walk(g, ideal, len(homs)) == (sum(expected), first_fail)


def test_witness_index_reconstruction():
    # the walk's indices count in enumerate_endos order: the witness is the
    # endomorphism at the first failing index, and ring_endos lists the
    # lifting ones in that order
    g = GroupSpec((2, 4))
    homs = enumerate_endos(g)
    amb = group_algebra(g)
    q = QuotientRing(ideal_span(amb, [amb.mul(0b11, 1 | 1 << 5)]))
    verdicts = [_preserves_reference(g, h, q.ideal) for h in homs]
    realized, first_fail = _walk(g, q.ideal, len(homs))
    assert (realized, first_fail) == (sum(verdicts), verdicts.index(False)) == (24, 1)
    rep = fully_realizes(q, g)
    assert rep.failing_witness == homs[first_fail]
    assert ring_endos(q) == [h for h, ok in zip(homs, verdicts) if ok]
    assert ring_endos(QuotientRing(a24_ideal(1, True))) == homs


# every presentation (2,)*a + (4,)? + (3,)? with a <= 4 and |End| <= 131,072
_GENERATED = [
    (2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (4,), (2, 4), (2, 2, 4), (2, 2, 2, 4),
    (3,), (2, 3), (2, 2, 3), (2, 2, 2, 3), (4, 3), (2, 4, 3), (2, 2, 4, 3),
]


def _element_map(g, h):
    els = elements(g)
    return tuple(element_index(g, h.apply(e)) for e in els)


def _closure_size(g, gens):
    """The number of element maps reached from the identity by composing
    with gens, breadth first: the size of the monoid they generate."""
    maps = [_element_map(g, h) for h in gens]
    start = tuple(range(g.torsion_order))
    seen, frontier = {start}, [start]
    while frontier:
        reached = []
        for m in frontier:
            for s in maps:
                composed = tuple([s[x] for x in m])
                if composed not in seen:
                    seen.add(composed)
                    reached.append(composed)
        frontier = reached
    return len(seen)


@pytest.mark.parametrize("orders", _GENERATED)
def test_monoid_generators_generate_end(orders):
    g = GroupSpec(orders)
    assert _closure_size(g, _monoid_generators(g)) == endo_count(g)


def test_dropping_omega_no_longer_generates():
    # without Omega (v_0 -> 2z, z -> v_0), the maps v_0 -> 2z, z -> v_0 + kz
    # with k even are out of reach: 30 of the 32 maps of C2 x C4
    g = GroupSpec((2, 4))
    omega = GroupHom(g, g, ((0, 2), (1, 0)))
    gens = _monoid_generators(g)
    assert omega in gens
    assert _closure_size(g, [h for h in gens if h != omega]) == 30 < endo_count(g)


def test_monoid_generators_only_for_witness_presentations():
    for orders in ((8,), (3, 3), (4, 4), (4, 2), (2, 12), (9,), (3, 2)):
        assert _monoid_generators(GroupSpec(orders)) is None
    assert _monoid_generators(GroupSpec(())) == []


def _image(element_map, v):
    acc = 0
    for b in bits(v):
        acc ^= 1 << element_map[b]
    return acc


def _stable_under(g, gens, ideal):
    """The smallest ideal containing `ideal` that every map of gens preserves."""
    maps = [_element_map(g, h) for h in gens]
    while True:
        images = [_image(m, v) for m in maps for v in ideal.rref_basis]
        bigger = ideal_span(ideal.ambient, list(ideal.rref_basis) + images)
        if bigger.rref_basis == ideal.rref_basis:
            return ideal
        ideal = bigger


def test_generator_verdict_matches_the_walk_on_random_ideals():
    # the ideal of a random (1 + x)(1 + y), and the smallest ideal over it
    # that the generators preserve; the walk over all of End(g) must give the
    # same verdict. (2, 2, 2, 4) is left to the closure test above: each of
    # its walks takes seconds.
    rng = random.Random(20261018)
    verdicts = []
    for orders in _GENERATED:
        if orders == (2, 2, 2, 4):
            continue
        g = GroupSpec(orders)
        gens = _monoid_generators(g)
        amb = group_algebra(g)
        for _ in range(1 if endo_count(g) > 4096 else 2):
            x, y = rng.randrange(1, amb.dim), rng.randrange(1, amb.dim)
            drawn = ideal_span(amb, [amb.mul(1 | 1 << x, 1 | 1 << y)])
            for ideal in (drawn, _stable_under(g, gens, drawn)):
                by_gens = all(_preserves_reference(g, h, ideal) for h in gens)
                by_walk = _walk(g, ideal, endo_count(g))[1] is None
                assert by_gens == by_walk, (orders, ideal.rref_basis)
                verdicts.append(by_gens)
    assert True in verdicts and False in verdicts
