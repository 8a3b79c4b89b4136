"""Group specs: parsing, canonical form, elements, and endomorphisms."""

import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuchslab import (
    GroupHom,
    GroupSpec,
    GroupSyntaxError,
    InfiniteGroupError,
    OrderMismatchError,
    canonicalize,
    element_order,
    elements,
    endo_count,
    enumerate_endos,
    identity_hom,
    order_profile,
    parse_group,
    render_group,
)
from fuchslab.groups import MAX_CYCLIC_ORDER, element_index, image_candidates, prime_power_split

factor_lists = st.lists(st.integers(min_value=1, max_value=24), max_size=4)


def test_parse_examples():
    assert parse_group("C2^3 x C4 x C3").finite_orders == (2, 2, 2, 12)
    assert parse_group("C1") == GroupSpec(())
    assert parse_group("Cinf^2 x C2") == GroupSpec((2,), infinite_rank=2)
    assert parse_group("C2xC3") == GroupSpec((6,))
    assert parse_group("Cinf") == GroupSpec((), infinite_rank=1)


@pytest.mark.parametrize("bad", ["", "C0", "C2^0", "c2", "C2 ^ 2", "C2 x", "Q8", "C-3", "Cinf x"])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(GroupSyntaxError):
        parse_group(bad)


def test_render_canonical_form():
    assert render_group(parse_group("C2^3 x C4 x C3")) == "C2^3 x C12"
    assert render_group(GroupSpec(())) == "C1"
    assert render_group(GroupSpec((), infinite_rank=1)) == "Cinf"
    assert render_group(GroupSpec((2,), infinite_rank=2)) == "C2 x Cinf^2"


@given(factor_lists, st.integers(min_value=0, max_value=3))
def test_render_round_trips(factors, rank):
    spec = canonicalize(GroupSpec(tuple(d for d in factors if d > 1), rank))
    assert parse_group(render_group(spec)) == spec


def test_canonicalize_examples():
    assert canonicalize(GroupSpec((4, 3))).finite_orders == (12,)
    assert canonicalize(GroupSpec((2, 2))).finite_orders == (2, 2)
    assert canonicalize(GroupSpec((6, 4))).finite_orders == (2, 12)


@given(factor_lists)
def test_canonicalize_idempotent_and_profile_preserving(factors):
    spec = GroupSpec(tuple(d for d in factors if d > 1))
    canon = canonicalize(spec)
    assert canonicalize(canon) == canon
    assert all(b % a == 0 for a, b in zip(canon.finite_orders, canon.finite_orders[1:]))
    if spec.torsion_order <= 512:
        assert order_profile(spec) == order_profile(canon)


def _multisets_up_to(bound):
    out = [()]

    def extend(prefix, smallest, room):
        for d in range(smallest, room + 1):
            out.append(prefix + (d,))
            extend(prefix + (d,), d, room // d)

    extend((), 2, bound)
    return out


def test_canonicalize_exhaustively_up_to_64():
    for orders in _multisets_up_to(64):
        spec = GroupSpec(orders)
        canon = canonicalize(spec)
        assert canonicalize(canon) == canon
        assert order_profile(spec) == order_profile(canon)


def test_elements_enumeration():
    assert len(elements(GroupSpec((2, 2)))) == 4
    assert len(elements(GroupSpec((12,)))) == 12
    els = elements(GroupSpec((2, 2, 4)))
    assert len(els) == 16
    assert els[0] == (0, 0, 0)
    assert els == sorted(els)
    with pytest.raises(InfiniteGroupError):
        elements(GroupSpec((), infinite_rank=1))


def test_element_order_against_repeated_addition():
    g = GroupSpec((4, 3))
    for e in elements(g):
        walked, n = e, 1
        while any(walked):
            walked = tuple((a + b) % d for a, b, d in zip(walked, e, g.finite_orders))
            n += 1
        assert element_order(g, e) == (n if any(e) else 1)
    assert element_order(g, (0, 0)) == 1
    assert element_order(g, (1, 0)) == 4
    assert element_order(g, (2, 1)) == 6


def test_order_profile_examples():
    assert order_profile(GroupSpec((4,))) == {1: 1, 2: 1, 4: 2}
    assert order_profile(GroupSpec((2, 2))) == {1: 1, 2: 3}
    # C2 x C4 and C8 have equal order but different profiles
    assert order_profile(GroupSpec((2, 4))) == {1: 1, 2: 3, 4: 4}
    assert order_profile(GroupSpec((8,))) == {1: 1, 2: 1, 4: 2, 8: 4}


def test_order_profile_counts_sum_to_group_order():
    for orders in ((2, 4), (12,), (3, 3), (2, 2, 4), (6, 6)):
        g = GroupSpec(orders)
        assert sum(order_profile(g).values()) == g.torsion_order


def test_endo_enumeration_counts():
    assert len(enumerate_endos(GroupSpec((3, 3)))) == 81
    assert len(enumerate_endos(GroupSpec(()))) == 1
    assert len(enumerate_endos(GroupSpec((2, 4)))) == 32


def test_endo_enumeration_matches_brute_filter():
    # oracle: try every image tuple and keep the well-defined ones
    g = GroupSpec((2, 4))
    els = elements(g)
    valid = 0
    for images in itertools.product(els, repeat=2):
        if all(d % element_order(g, img) == 0 for d, img in zip(g.finite_orders, images)):
            valid += 1
    assert valid == 32 == endo_count(g)


def test_endo_count_formula_matches_enumeration_up_to_64():
    for orders in ((2,), (3,), (4,), (2, 2), (6,), (2, 4), (3, 3), (12,), (2, 2, 4), (2, 12)):
        g = GroupSpec(orders)
        assert len(enumerate_endos(g)) == endo_count(g) == prod(
            len(c) for c in image_candidates(g)
        )


def test_grouped_endo_count_matches_pairwise_product_up_to_64():
    for orders in _multisets_up_to(64):
        g = GroupSpec(orders)
        assert endo_count(g) == prod(gcd(a, b) for a in orders for b in orders)


def test_endos_are_duplicate_free():
    homs = enumerate_endos(GroupSpec((2, 4)))
    assert len(set(homs)) == len(homs)


def _index_maps(g):
    els = elements(g)
    homs = enumerate_endos(g)
    gen_tuples = [tuple(element_index(g, img) for img in h.images) for h in homs]
    full_maps = [tuple(element_index(g, h.apply(e)) for e in els) for h in homs]
    return els, gen_tuples, full_maps


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 2), (6,), (12,), (3, 3), (2, 4), (2, 2, 2), (2, 2, 4)])
def test_endos_closed_under_composition(orders):
    g = GroupSpec(orders)
    assert endo_count(g) <= 2000
    _, gen_tuples, full_maps = _index_maps(g)
    universe = set(gen_tuples)
    for fmap in full_maps:
        for gens in gen_tuples:
            assert tuple(fmap[i] for i in gens) in universe


def test_hom_apply_and_compose():
    g = GroupSpec((2, 4))
    phi = GroupHom(g, g, ((0, 2), (1, 1)))
    assert phi.apply((1, 1)) == (1, 3)
    ident = identity_hom(g)
    assert phi.compose(ident) == phi == ident.compose(phi)


def test_hom_rejects_order_mismatch():
    g = GroupSpec((2, 4))
    with pytest.raises(OrderMismatchError):
        GroupHom(g, g, ((0, 1), (0, 1)))  # image of the C2 generator has order 4


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((2,), infinite_rank=-1)


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_prime_power_split_matches_trial_division():
    for n in range(1, 10**5 + 1):
        assert prime_power_split(n) == _trial_division(n), n
    rng = random.Random(20261019)

    def prime_near(m):
        while _trial_division(m) != {m: 1}:
            m += 1
        return m

    near_million = [prime_near(10**6 - rng.randrange(10**4)) for _ in range(6)]
    semiprimes = [p * q for p, q in zip(near_million, near_million[1:])]
    samples = [rng.randrange(2, 10**12 + 1) for _ in range(8)]
    for n in semiprimes + samples + [MAX_CYCLIC_ORDER, 999999999989, 2**39, 3**25]:
        assert prime_power_split(n) == _trial_division(n), n
