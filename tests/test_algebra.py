"""Algebras, ideals, quotients, and unit groups."""

import random
from functools import lru_cache, reduce
from math import prod
from operator import xor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchslab import (
    Algebra,
    BudgetExceededError,
    FuchslabError,
    GroupSpec,
    Ideal,
    OrderMismatchError,
    QuotientRing,
    ZeroRingError,
    augmentation,
    construct_witness,
    field_algebra,
    find_inverse,
    group_algebra,
    ideal_span,
    is_unit,
    multiplicative_order,
    parse_group,
    present_over,
    product_algebra,
    product_element,
    unit_count,
    unit_group_invariants,
    units,
)
from fuchslab import gf2
from fuchslab.algebra import _block_unit_count, _cayley_table, _local_decomposition
from fuchslab.constructions import _default_pool, _join, _subset_ideals

C2 = GroupSpec((2,))
C3 = GroupSpec((3,))
C4 = GroupSpec((4,))


def _non_group_non_field_algebras():
    # quotient algebras: neither a group basis nor a field, so ideal_span's
    # one pass rests on A*v being the ideal of v in a commutative unital ring
    a = group_algebra(C4)
    return [
        QuotientRing(ideal_span(a, [a.power(0b0011, 3)])).quotient_algebra,
        construct_witness(GroupSpec((2, 2, 4))).quotient_algebra,
    ]


def test_group_algebra_dims():
    assert group_algebra(C3).dim == 3
    assert group_algebra(C4).dim == 4
    assert group_algebra(GroupSpec((2, 2, 4))).dim == 16


def test_group_algebra_identity_is_basis_zero():
    a = group_algebra(C4)
    assert a.one_vector == 1
    for j in range(a.dim):
        assert a.mul(1, 1 << j) == 1 << j


def test_group_algebra_realizes_group_product():
    a = group_algebra(GroupSpec((2, 3)))
    # x1 * x1 = 1 and x2^3 = 1 in C2 x C3
    x1 = 1 << 3  # element (1, 0) in lex order
    x2 = 1 << 1  # element (0, 1)
    assert a.mul(x1, x1) == a.one_vector
    assert a.mul(a.mul(x2, x2), x2) == a.one_vector


def test_field_algebra_polynomials_and_units():
    assert field_algebra(1).dim == 1
    f4 = field_algebra(2)
    t = 0b10
    assert f4.mul(t, t) == 0b11  # t^2 = t + 1, so the modulus is t^2 + t + 1
    assert len(units(f4)) == 3
    f8 = field_algebra(3)
    t = 0b010
    assert f8.mul(f8.mul(t, t), t) == 0b011  # t^3 = t + 1, so t^3 + t + 1
    assert len(units(f8)) == 7
    with pytest.raises(BudgetExceededError):
        field_algebra(9)


def test_field_units_against_inverse_search():
    for k in (1, 2, 3, 4):
        f = field_algebra(k)
        for e in range(1 << k):
            assert is_unit(f, e) == (find_inverse(f, e) is not None) == (e != 0)


def test_product_algebra():
    f2, f4 = field_algebra(1), field_algebra(2)
    p = product_algebra([f2, f4])
    assert p.dim == 3
    assert len(units(p)) == 3
    p2 = product_algebra([f2, f4, field_algebra(2)])
    assert p2.dim == 5
    assert len(units(p2)) == 9
    assert product_algebra([f4]) is f4
    with pytest.raises(ValueError):
        product_algebra([])


def test_product_element_rejects_a_component_wider_than_its_factor():
    f2, f4 = field_algebra(1), field_algebra(2)
    assert product_element([f2, f4], [1, 0b10]) == 0b101
    with pytest.raises(ValueError):
        product_element([f2, f4], [0b11, 0b01])  # 0b11 is not an element of F2
    with pytest.raises(ValueError):
        product_element([f2, f4], [1, -1])
    with pytest.raises(ValueError):
        product_element([f2, f4], [1])


def test_ideal_span_chain_cube():
    a = group_algebra(C4)
    cube = a.power(0b0011, 3)
    assert cube == 0b1111  # (1+y)^3 = 1+y+y^2+y^3 in characteristic 2
    ideal = ideal_span(a, [cube])
    assert ideal.dim == 1 and ideal.rref_basis == (0b1111,)
    assert ideal_span(a, []).dim == 0


@lru_cache(maxsize=1)
def _span_algebras():
    # group algebras, fields and products of rings, and quotient algebras
    groups = ((2,), (3,), (2, 2), (4,), (6,), (2, 4), (8,), (3, 3), (2, 2, 2, 2), (4, 4))
    return ([group_algebra(GroupSpec(orders)) for orders in groups]
            + [field_algebra(1), field_algebra(3),
               product_algebra([field_algebra(1), field_algebra(2)]),
               product_algebra([group_algebra(C4), field_algebra(2)])]
            + _non_group_non_field_algebras())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ideal_span_reads_the_products_off_table_rows(data):
    # the oracle forms every product b*v with Algebra.mul
    algebras = _span_algebras()
    a = algebras[data.draw(st.integers(0, len(algebras) - 1))]
    gens = data.draw(st.lists(st.integers(0, (1 << a.dim) - 1), max_size=4))
    expected = gf2.rref(a.mul(1 << b, v) for b in range(a.dim) for v in gens)
    assert ideal_span(a, gens).rref_basis == expected


def test_ideal_span_is_closed_for_general_algebras():
    f2, f4 = field_algebra(1), field_algebra(2)
    p = product_algebra([f2, f4])
    ideal = ideal_span(p, [0b001])  # the F2 component
    assert ideal.dim == 1
    for b in range(p.dim):
        for v in ideal.rref_basis:
            assert ideal.contains(p.mul(1 << b, v))


def test_trusted_builds_pass_the_public_checks():
    # group_algebra, ideal_span and quotient skip validation; the public
    # constructors, which check everything, must accept what they build
    rng = random.Random(20261018)
    for orders in ((2, 2), (4,), (2, 4), (6,), (8,), (3, 3)):
        g = GroupSpec(orders)
        a = group_algebra(g)
        Algebra(a.mult_table, 1, group=g)
        Algebra(a.mult_table, 1)  # the ring axioms, checked without the label
        for _ in range(16):
            raw = [rng.randrange(1 << a.dim) for _ in range(rng.randint(0, 3))]
            # mostly even weight, so most spans are proper and have a quotient
            gens = [v ^ (v.bit_count() & 1) if rng.random() < 0.75 else v for v in raw]
            ideal = ideal_span(a, gens)
            Ideal(a, ideal.rref_basis)
            if not ideal.contains(a.one_vector):
                qa = QuotientRing(ideal).quotient_algebra
                Algebra(qa.mult_table, qa.one_vector)
    fields = [product_algebra([field_algebra(1), field_algebra(2)]), field_algebra(3)]
    for a in fields + _non_group_non_field_algebras():
        for _ in range(16):
            gens = [rng.randrange(1 << a.dim) for _ in range(rng.randint(0, 2))]
            Ideal(a, ideal_span(a, gens).rref_basis)
    c44 = GroupSpec((4, 4))
    amb = group_algebra(c44)
    for ideal in _subset_ideals(amb, _default_pool(amb), 256):
        Ideal(amb, ideal.rref_basis)
    # present_over wraps a ring map's kernel without validating it: every
    # witness it presents, and random unit images in F2 x F4 x F4 over C3 x C3 and C6
    for text in ("C3", "C6", "C12", "C2 x C6", "C2 x C12", "C2^2 x C6", "C2^2 x C12",
                 "C2^3 x C6"):
        q = construct_witness(parse_group(text))
        Ideal(q.ideal.ambient, q.ideal.rref_basis)
    fields = [field_algebra(1), field_algebra(2), field_algebra(2)]
    target = product_algebra(fields)
    unit_list = sorted(units(target))
    for g in (GroupSpec((3, 3)), GroupSpec((6,))):
        for _ in range(16):
            images = [rng.choice([u for u in unit_list if target.power(u, d) == target.one_vector])
                      for d in g.finite_orders]
            kernel = present_over(g, target, images).ideal
            Ideal(kernel.ambient, kernel.rref_basis)
    # field_algebra skips the axiom check: F2[t]/(p) with p irreducible is a field
    for k in range(1, 9):
        f = field_algebra(k)
        Algebra(f.mult_table, f.one_vector)
        assert unit_count(f) == (1 << k) - 1
    # product_algebra skips the axiom check, which its products must pass
    for parts in (fields, [group_algebra(C4), field_algebra(3)],
                  [construct_witness(parse_group("C2 x C4")).quotient_algebra, field_algebra(2)]):
        prod_alg = product_algebra(parts)
        Algebra(prod_alg.mult_table, prod_alg.one_vector)


def test_ideal_sum_of_principal_ideals_is_the_span():
    # in a commutative ring the ideal of a generating set is the sum of the
    # principal ideals of its members; the search forms each sum by _join
    rng = random.Random(20261019)
    algebras = [group_algebra(GroupSpec(orders))
                for orders in ((2, 2), (4,), (2, 4), (6,), (8,), (3, 3))]
    algebras += [product_algebra([field_algebra(1), field_algebra(2)]), field_algebra(3)]
    algebras += _non_group_non_field_algebras()
    for a in algebras:
        for _ in range(16):
            gens = [rng.randrange(1 << a.dim) for _ in range(rng.randint(1, 4))]
            result = reduce(_join, [ideal_span(a, [v]).rref_basis for v in gens])
            assert result == ideal_span(a, gens).rref_basis
            Ideal(a, result)


def test_public_ideal_rejects_non_rref_and_non_closed_bases():
    a = group_algebra(C4)
    with pytest.raises(ValueError, match="row-echelon"):
        Ideal(a, (0b0011, 0b0110))  # the pivot bit 1 of the second row is set in the first
    with pytest.raises(ValueError, match="closed"):
        Ideal(a, (0b0001,))  # {0, 1} is a subspace, but x * 1 = x lies outside it
    assert Ideal(a, (0b1111,)).dim == 1


def test_quotient_examples():
    a = group_algebra(C4)
    q = QuotientRing(ideal_span(a, [a.power(0b0011, 3)]))
    assert q.dim == 3
    assert q.unit_group_invariants() == (4,)

    zero = ideal_span(a, [])
    assert QuotientRing(zero).dim == 4

    c22 = GroupSpec((2, 2))
    amb = group_algebra(c22)
    q22 = QuotientRing(ideal_span(amb, [0b1111]))  # 1 + x1 + x2 + x1x2
    assert q22.dim == 3
    assert unit_count(q22.quotient_algebra) == 4
    assert q22.unit_group_invariants() == (2, 2)


def _invariant_factor_specs(n, least=2):
    # every invariant-factor tuple (each order divides the next) of product n
    if n == 1:
        yield ()
    for d in range(least, n + 1):
        if n % d == 0:
            for rest in _invariant_factor_specs(n // d, d):
                if not rest or rest[0] % d == 0:
                    yield (d,) + rest


def test_quotient_table_reads_the_group_image():
    # the table is read off group_image; the reference multiplies the coset
    # representatives in F2[G] and reduces the product modulo the ideal
    def reference(q):
        amb = q.ideal.ambient
        cols = [c for c in range(amb.dim) if c not in {gf2.lowest_bit(r) for r in q.ideal.rref_basis}]
        return tuple(tuple(q.project(amb.mul(1 << ci, 1 << cj)) for cj in cols) for ci in cols)

    rng = random.Random(20261019)
    rings = list(_witness_rings())
    specs = [spec for n in range(1, 17) for spec in _invariant_factor_specs(n)]
    assert len(specs) == 25
    for orders in specs:
        g = GroupSpec(orders)
        amb = group_algebra(g)
        for _ in range(6):
            gens = [rng.getrandbits(amb.dim) for _ in range(rng.randint(0, 2))]
            ideal = ideal_span(amb, [v ^ (v.bit_count() & 1) for v in gens])
            rings.append(QuotientRing(ideal))
    for q in rings:
        assert q.quotient_algebra.mult_table == reference(q)
        assert q.quotient_algebra.one_vector == q.group_image[0]


def test_project_refuses_an_element_outside_the_ambient():
    a = group_algebra(C4)
    q = QuotientRing(ideal_span(a, [a.power(0b0011, 3)]))  # ((1 + y)^3)
    for bad in (1 << 4, -1):
        with pytest.raises(ValueError, match=f"{bad:#b} is not an element of the dim-4 algebra"):
            q.project(bad)
    assert q.project(0b1111) == 0


def test_quotient_rejects_zero_ring():
    a = group_algebra(C2)
    with pytest.raises(ZeroRingError):
        QuotientRing(ideal_span(a, [a.one_vector]))


def test_quotient_dim_arithmetic():
    for orders, gens in [((4,), [0b1111]), ((2, 2), [0b1111]), ((6,), [])]:
        g = GroupSpec(orders)
        amb = group_algebra(g)
        ideal = ideal_span(amb, gens)
        assert QuotientRing(ideal).dim == amb.dim - ideal.dim


def test_is_unit_examples():
    a = group_algebra(C4)
    assert is_unit(a, a.one_vector)
    assert not is_unit(a, 0)
    assert not is_unit(a, 0b0011)  # 1 + y is nilpotent: (1+y)^4 = 0
    assert a.power(0b0011, 4) == 0


def test_unit_double_path_up_to_dim_12():
    algebras = [
        group_algebra(C4),
        group_algebra(GroupSpec((2, 2))),
        product_algebra([field_algebra(1), field_algebra(2)]),
        group_algebra(GroupSpec((6,))),
        group_algebra(GroupSpec((12,))),
    ]
    for a in algebras:
        assert a.dim <= 12
        enumerated = units(a)
        for e in range(1 << a.dim):
            inverse = find_inverse(a, e)
            assert is_unit(a, e) == (inverse is not None) == (e in enumerated)
            if inverse is not None:
                assert a.mul(e, inverse) == a.one_vector


def test_units_counts():
    assert units(group_algebra(C2)) == frozenset({0b01, 0b10})
    assert len(units(group_algebra(C4))) == 8
    assert len(units(group_algebra(C3))) == 3


def test_units_budget():
    with pytest.raises(BudgetExceededError, match="dim <= 24"):
        units(group_algebra(GroupSpec((2,) * 5)))


_SMALL_GROUPS = ["C1", "C2", "C3", "C4", "C2^2", "C5", "C6", "C7", "C8", "C2 x C4",
                 "C2^3", "C9", "C3^2", "C10"]


def _group_algebra_quotients():
    # random principal quotients of dim <= 10 of the group algebras of order
    # <= 16, and the 20 witness quotients of order <= 64
    rng = random.Random(12)
    larger = ["C12", "C2 x C6", "C15", "C16", "C4^2", "C2 x C8", "C2^2 x C4", "C2^4"]
    rings = []
    for text in _SMALL_GROUPS + larger:
        g = parse_group(text)
        amb = group_algebra(g)
        for _ in range(4):
            ideal = ideal_span(amb, [rng.getrandbits(amb.dim)])
            if amb.dim - ideal.dim <= 10 and not ideal.contains(amb.one_vector):
                rings.append(QuotientRing(ideal))
    return rings + list(_witness_rings())


def _unit_count_corpus():
    # group algebras of dim <= 10, the group-algebra quotients above, fields
    # and a field product
    algebras = [group_algebra(parse_group(t)) for t in _SMALL_GROUPS]
    algebras += [q.quotient_algebra for q in _group_algebra_quotients()]
    algebras += [field_algebra(k) for k in range(1, 6)]
    algebras.append(product_algebra([field_algebra(1), field_algebra(2), field_algebra(3)]))
    return algebras


@lru_cache(maxsize=1)
def _witness_rings():
    # the witnesses of the 20 fully realizable groups of order <= 64
    rings = []
    for h in ((), (3,), (4,), (4, 3)):
        rank = 0
        while prod(h) << rank <= 64:
            rings.append(construct_witness(GroupSpec((2,) * rank + h)))
            rank += 1
    return tuple(rings)


def test_unit_count_is_the_number_of_units():
    corpus = _unit_count_corpus()
    assert len(corpus) > 80
    for a in corpus:
        assert unit_count(a) == len(units(a))


def test_block_unit_count_matches_unit_count():
    # the count units_are_group reads off the blocks of F2[G] against the
    # decomposition of the quotient's own algebra, on the corpus quotients
    # and on random quotients of group algebras with an odd part; both rest
    # on _local_decomposition, so the units() scan, which does not, is the
    # reference wherever it is cheap
    rings = _group_algebra_quotients()
    rng = random.Random(19)
    for text in ["C3", "C5", "C7", "C3 x C3", "C15", "C21", "C2 x C6", "C12", "C2^4 x C6"]:
        g = parse_group(text)
        amb = group_algebra(g)
        found = 0
        while found < 65:
            gens = [rng.getrandbits(amb.dim) for _ in range(rng.randint(1, 3))]
            ideal = ideal_span(amb, gens)
            if not ideal.contains(amb.one_vector):
                rings.append(QuotientRing(ideal))
                found += 1
    assert len(rings) >= 650
    scanned = 0
    for q in rings:
        count = _block_unit_count(q.ideal)
        assert count == unit_count(q.quotient_algebra)
        if q.dim <= 12:
            assert count == len(units(q.quotient_algebra))
            scanned += 1
    assert scanned >= 600


# every group algebra of order <= 12 with an odd part; then algebras whose
# basis 0 need not be 1: field products and the witness quotients of
# dimension 3 to 6, the local ones a single block whose idempotent is 1
_DECOMPOSED = {
    **{t: (lambda t=t: group_algebra(parse_group(t)))
       for t in ["C3", "C5", "C6", "C7", "C9", "C3^2", "C10", "C11", "C12", "C2 x C6"]},
    "F2 x F4": lambda: product_algebra([field_algebra(1), field_algebra(2)]),
    "F4 x F8": lambda: product_algebra([field_algebra(2), field_algebra(3)]),
    "F2[C2] x F4 x F2": lambda: product_algebra([group_algebra(C2), field_algebra(2),
                                                 field_algebra(1)]),
    "F16": lambda: field_algebra(4),
    **{f"witness {t}": (lambda t=t: construct_witness(parse_group(t)).quotient_algebra)
       for t in ["C4", "C2^2", "C6", "C12", "C2 x C12", "C2^4"]},
}


@pytest.mark.parametrize("name", _DECOMPOSED)
def test_blocks_are_the_atoms_of_the_idempotents(name):
    # a scan over all 2^dim elements, with no rank or kernel: the block
    # idempotents are the minimal nonzero x with x^2 = x, the block e*a has
    # 2^d elements, and 2^(d - f) of them are nilpotent. e is read off the
    # images as e*1
    a = _DECOMPOSED[name]()
    every = range(1 << a.dim)
    idempotents = [x for x in every if x and a.mul(x, x) == x]
    atoms = {x for x in idempotents if all(a.mul(x, y) in (0, x) for y in idempotents)}
    blocks = _local_decomposition(a)[1]
    es = [reduce(xor, (images[b] for b in gf2.bits(a.one_vector)), 0)
          for images, _, _ in blocks]
    assert sorted(es) == sorted(atoms)
    for e, (images, d, f) in zip(es, blocks):
        assert images == tuple(a.mul(e, 1 << b) for b in range(a.dim))
        block = [x for x in every if a.mul(e, x) == x]
        nilpotent = [x for x in block if a.power(x, a.dim) == 0]
        assert len(block) == 1 << d and len(nilpotent) == 1 << (d - f)


def test_unit_count_splits_local_factors_and_drops_the_radical():
    f2 = field_algebra(1)
    assert unit_count(product_algebra([f2, f2])) == 1  # idempotent (1, 0)
    assert unit_count(group_algebra(C2)) == 2  # nilpotent 1 + x
    assert unit_count(group_algebra(GroupSpec((2, 3)))) == 2 * 12  # F2[C2] x F4[C2]


def test_element_functions_refuse_an_element_outside_the_algebra():
    f4 = field_algebra(2)
    for bad in (0b1000, 0b100, -1):
        for call in (lambda: is_unit(f4, bad), lambda: find_inverse(f4, bad),
                     lambda: f4.power(bad, 3), lambda: multiplicative_order(f4, bad)):
            with pytest.raises(ValueError, match=f"{bad:#b} is not an element of the dim-2"):
                call()


def test_multiplicative_order_refuses_a_non_unit_by_rank():
    # the idempotent (1, 0, ..., 0) of F2^40 is refused after the 40 products
    # of one rank test, not after walking 2^40 powers
    f2_40 = product_algebra([field_algebra(1)] * 40)
    with mock.patch.object(Algebra, "mul", autospec=True, side_effect=Algebra.mul) as mul:
        with pytest.raises(FuchslabError, match="0b1 is not a unit"):
            multiplicative_order(f2_40, 0b1)
    assert mul.call_count <= 40
    assert multiplicative_order(group_algebra(GroupSpec((12,))), 0b10) == 12


def test_unit_group_invariants():
    assert unit_group_invariants(group_algebra(C4)) == (2, 4)
    assert unit_group_invariants(group_algebra(GroupSpec((2, 2)))) == (2, 2, 2)
    assert unit_group_invariants(product_algebra([field_algebra(1), field_algebra(2)])) == (3,)
    assert unit_group_invariants(field_algebra(1)) == ()


def test_unit_group_invariants_against_order_statistics():
    # oracle: multiplicative orders of the enumerated units must reproduce
    # the profile of the abelian group named by the invariants
    from fuchslab import order_profile

    for a in _unit_count_corpus():
        unit_set = units(a)
        histogram: dict[int, int] = {}
        for u in unit_set:
            n = multiplicative_order(a, u)
            histogram[n] = histogram.get(n, 0) + 1
        invariants = unit_group_invariants(a)
        assert order_profile(GroupSpec(invariants)) == histogram


def test_augmentation():
    g = GroupSpec((4,))
    a = group_algebra(g)
    for j in range(a.dim):
        assert augmentation(g, 1 << j) == 1
    assert augmentation(g, 0b0011) == 0
    # kernel comparison: augmentation-zero subspace = span of 1 + g
    for orders in ((2,), (4,), (2, 2), (6,), (2, 2, 4)):
        spec = GroupSpec(orders)
        n = spec.torsion_order
        kernel = gf2.rref([1 ^ (1 << i) for i in range(1, n)])
        even = gf2.rref([0b11 << (i - 1) for i in range(1, n)])  # parity-zero subspace
        assert kernel == even
        span = ideal_span(group_algebra(spec), [1 ^ (1 << i) for i in range(1, n)])
        assert span.rref_basis == kernel


def test_augmentation_multiplicative():
    rng = random.Random(7)
    for orders in ((4,), (2, 2), (6,), (2, 4)):
        g = GroupSpec(orders)
        a = group_algebra(g)
        for _ in range(100):
            u, v = rng.randrange(1 << a.dim), rng.randrange(1 << a.dim)
            assert augmentation(g, a.mul(u, v)) == (augmentation(g, u) & augmentation(g, v))


def test_unit_embedding_kernel_examples():
    fields = [field_algebra(1), field_algebra(2), field_algebra(2)]
    target = product_algebra(fields)
    u = product_element(fields, [1, 0b10, 0b01])
    v = product_element(fields, [1, 0b01, 0b10])
    kernel = present_over(GroupSpec((3, 3)), target, [u, v]).ideal
    assert kernel.dim == 4  # rank 5 image inside the dim-5 product

    assert present_over(C3, group_algebra(C3), [0b010]).ideal.dim == 0

    chain = QuotientRing(ideal_span(group_algebra(C4), [0b1111]))
    comps = [chain.quotient_algebra, group_algebra(C3)]
    tgt = product_algebra(comps)
    w = product_element(comps, [chain.group_image[1], 0b010])  # (y, c): order 12
    q12 = present_over(GroupSpec((12,)), tgt, [w])
    # the image is the augmentation fiber of the dim-6 product, so rank 5
    assert q12.ideal.dim == 7
    assert q12.dim == 5
    assert q12.unit_group_invariants() == (12,)


def test_unit_embedding_rejects_bad_orders():
    f4 = field_algebra(2)
    with pytest.raises(OrderMismatchError, match="image 0b10 is not a unit of order dividing 2"):
        present_over(C2, f4, [0b10])  # t has order 3, not dividing 2
    with pytest.raises(OrderMismatchError, match="image 0b11"):
        present_over(C2, group_algebra(C2), [0b11])  # 1 + x is not a unit
    with pytest.raises(OrderMismatchError, match="0b1010"):
        present_over(C3, field_algebra(2), [0b1010])  # wider than the dim-2 target
    with pytest.raises(OrderMismatchError, match="outside"):
        present_over(C3, field_algebra(2), [-1])
    with pytest.raises(OrderMismatchError):
        present_over(C3, f4, [])  # one image per generator


def test_present_over_recovers_group_algebra():
    q = present_over(C3, group_algebra(C3), [0b010])
    assert q.dim == 3
    assert q.units_are_group


def test_subring_generated():
    # present_over builds the subring generated by unit images: in
    # F2 x F2 x F4 the units are (1, 1, F4*), and they generate the
    # subring of elements with equal F2 coordinates, of dim 3
    f2 = field_algebra(1)
    fields = [f2, f2, field_algebra(2)]
    prod = product_algebra(fields)
    assert units(prod) == {product_element(fields, [1, 1, c]) for c in (1, 0b10, 0b11)}
    q = present_over(C3, prod, [product_element(fields, [1, 1, 0b10])])
    assert q.dim == 3
    assert q.unit_group_invariants() == (3,)

    # the subring generated by 1 alone is F2
    assert present_over(GroupSpec(()), prod, []).dim == 1

    # subring closure includes products: adjoining t generates all of F4
    assert present_over(C3, field_algebra(2), [0b10]).dim == 2


def test_algebra_validation_rejects_garbage():
    with pytest.raises(ValueError):
        Algebra(((1, 2), (1, 2)), 1)  # x*1 = 1 breaks the identity
    with pytest.raises(ValueError):
        # commutative with identity, but (a*a)*b = b*b = b while a*(a*b) = a
        Algebra(((1, 2, 4), (2, 4, 1), (4, 1, 4)), 1)
    with pytest.raises(ValueError):
        Algebra(((1,),), 0)  # zero cannot be the identity
    with pytest.raises(ValueError):
        Algebra(((1,),), 1, group=GroupSpec((2,)))  # C2 needs two basis vectors
    f4f4 = product_algebra([field_algebra(2), field_algebra(2)])
    with pytest.raises(ValueError, match="Cayley table"):
        # a valid ring of dim 4, but no group algebra: a label would make
        # the engine read its entries as group products
        Algebra(f4f4.mult_table, f4f4.one_vector, group=GroupSpec((2, 2)))
    c4 = group_algebra(C4)
    with pytest.raises(ValueError, match="Cayley table"):
        Algebra(c4.mult_table, 1, group=GroupSpec((2, 2)))  # C4's table, C2^2's label
    with pytest.raises(ValueError, match="identity"):
        # C2's Cayley table, but with x as its identity
        Algebra(_cayley_table(C2), 2, group=C2)
    # above dim 64 the axioms are checked too: b_i * b_j = b_{1 + (i + 2j) mod 64}
    # for i, j >= 1 is neither commutative nor associative
    dim = 65
    table = tuple(
        tuple(1 << (i or j) if not (i and j) else 1 << (1 + (i + 2 * j) % 64)
              for j in range(dim))
        for i in range(dim)
    )
    with pytest.raises(ValueError, match="commutative"):
        Algebra(table, 1)
    with pytest.raises(ValueError, match="outside"):
        Ideal(group_algebra(C2), (0b100,))  # bit 2 is no element of F2[C2]
    with pytest.raises(ValueError, match="outside"):
        Ideal(group_algebra(C2), (-1,))
