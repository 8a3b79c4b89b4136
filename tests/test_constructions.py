"""The classification oracle, witness ideals, and bounded searches."""

import functools
import itertools
import random

import pytest

from fuchslab import (
    Algebra,
    BudgetExceededError,
    FuchslabError,
    GroupSpec,
    GroupSyntaxError,
    Ideal,
    InfiniteGroupError,
    NotRealizableError,
    QuotientRing,
    Reason,
    a24_ideal,
    bounded_ideal_search,
    canonicalize,
    chain_ring_ideals,
    classify,
    construct_witness,
    count_preserving,
    endo_count,
    fully_realizes,
    group_algebra,
    ideal_span,
    identity_hom,
    parse_group,
    present_over,
    preserves_ideal,
    product_algebra,
    product_element,
    ring_from_recipe,
    star_ideal,
    unit_count,
    unit_group_invariants,
    units,
)
from fuchslab import algebra, constructions, endo, gf2
from fuchslab.constructions import (
    _default_pool,
    _pair_vector,
    _subset_ideals,
    _vec,
)
from fuchslab.groups import add_elements, element_index, elements, identity_element, render_group


# --- classification oracle -------------------------------------------------

CLASSIFY_CASES = [
    ("C2^5 x C4 x C3", True, Reason.THM11_TORSION, "a24xC3(rank=5,c4=true)"),
    ("C9", False, Reason.THM11_ODD, None),
    ("Cinf x C3", False, Reason.C3_SUMMAND_OBSTRUCTION, None),
    ("C4 x C4", False, Reason.C4_QUOTIENT_OBSTRUCTION, None),
    ("Cinf^3 x C2", True, Reason.THM11_FG, "symbolic:sumc2xLaurent(rank=1,n=3)"),
    ("C16", False, Reason.NOT_REALIZABLE_CHAR2, None),
    ("C3 x C3", False, Reason.THM11_ODD, None),
    ("C12", True, Reason.THM11_TORSION, "a24xC3(rank=0,c4=true)"),
    ("C3", True, Reason.THM11_ODD, "a24xC3(rank=0,c4=false)"),
    ("C1", True, Reason.THM11_TORSION, "a24(rank=0,c4=false)"),
    ("Cinf^2", True, Reason.THM11_TORSION_FREE, "symbolic:sumc2xLaurent(rank=0,n=2)"),
    ("C10", False, Reason.P_N_BOUND, None),
    ("C2 x C9", False, Reason.P_N_BOUND, None),
    ("C4 x C4 x C3", False, Reason.C4_QUOTIENT_OBSTRUCTION, None),
    ("C3 x C12", False, Reason.C3_SUMMAND_OBSTRUCTION, None),
    ("Cinf x C4", False, Reason.C4_QUOTIENT_OBSTRUCTION, None),
    ("Cinf x C9", False, Reason.P_N_BOUND, None),
    ("C24", False, Reason.NOT_REALIZABLE_CHAR2, None),
    ("C6 x C6", False, Reason.C3_SUMMAND_OBSTRUCTION, None),
]


@pytest.mark.parametrize("text,expected,reason,recipe", CLASSIFY_CASES)
def test_classify_cases(text, expected, reason, recipe):
    verdict = classify(parse_group(text))
    assert verdict.fully_realizable == expected
    assert verdict.reason == reason
    assert verdict.recipe == recipe


def test_classify_cyclic_sweep():
    positives = [
        n for n in range(1, 101)
        if classify(GroupSpec((n,) if n > 1 else ())).fully_realizable
    ]
    assert positives == [1, 2, 3, 4, 6, 12]


def test_classify_invariant_under_presentation():
    for orders in [(4, 3), (3, 4), (12,), (2, 2, 3), (3, 2, 2)]:
        assert classify(GroupSpec(orders)) == classify(canonicalize(GroupSpec(orders)))


# --- explicit ideals ---------------------------------------------------------

def test_sumc2_small_ranks():
    assert a24_ideal(0, False).dim == 0
    assert a24_ideal(1, False).dim == 0
    two = a24_ideal(2, False)
    assert two.dim == 1
    q = QuotientRing(two)
    assert q.dim == 3 and unit_count(q.quotient_algebra) == 4


def test_sumc2_subset_identity_rank_3():
    # x_J = sum of x_a over J, plus |J| + 1, holds in the quotient
    spec = GroupSpec((2, 2, 2))
    ideal = a24_ideal(3, False)
    for size in range(4):
        for subset in itertools.combinations(range(3), size):
            x_j = tuple(1 if t in subset else 0 for t in range(3))
            acc = _vec(spec, x_j)
            for a in subset:
                acc ^= _vec(spec, tuple(1 if t == a else 0 for t in range(3)))
            if (len(subset) + 1) & 1:
                acc ^= _vec(spec, (0, 0, 0))
            assert ideal.contains(acc)


def test_sumc2_budget():
    # C2^7 is the first elementary abelian group over the witness budget 64
    with pytest.raises(BudgetExceededError, match="budget 64"):
        a24_ideal(7, False)


def test_a24_examples():
    chain = a24_ideal(0, True)
    assert chain.rref_basis == (0b1111,)
    spec = GroupSpec((2, 4))
    q = QuotientRing(a24_ideal(1, True))
    assert q.dim == 4
    rep = fully_realizes(q, spec)
    assert rep.fully_realizes and rep.total_endos == 32
    assert a24_ideal(2, False).rref_basis == (0b1111,)  # 1 + x1 + x2 + x1 x2


def _ordered_a24_ideal(rank, with_c4):
    """The witness ideal from the ordered family over all sets of C2
    coordinates, the empty one included, and r = 0..3, built on element
    tuples: a24_ideal's generators plus the zeros and repeats it skips."""
    spec = GroupSpec((2,) * rank + ((4,) if with_c4 else ()))
    one = identity_element(spec)

    def pair(a, b):
        ab = add_elements(spec, a, b)
        return _vec(spec, one) ^ _vec(spec, a) ^ _vec(spec, b) ^ _vec(spec, ab)

    pad = (0,) if with_c4 else ()
    xs = [bits + pad for bits in itertools.product((0, 1), repeat=rank)]
    gens = [pair(a, b) for a in xs for b in xs]
    if with_c4:
        ys = [(0,) * rank + (r,) for r in range(4)]
        gens += [pair(x, y) for x in xs for y in ys]
        gens.append(functools.reduce(int.__xor__, (_vec(spec, y) for y in ys)))
    return ideal_span(group_algebra(spec), gens)


def _small_a24_ideal(rank, with_c4):
    """The ideal of (1 + x_i)(1 + x_j) for i < j, (1 + x_i)(1 + y) and
    (1 + y)^3, over the generators x_i of the C2 factors and y of C4."""
    spec = GroupSpec((2,) * rank + ((4,) if with_c4 else ()))
    amb = group_algebra(spec)
    one = _vec(spec, identity_element(spec))
    s = [one ^ _vec(spec, tuple(int(t == i) for t in range(spec.rank))) for i in range(spec.rank)]
    xs, ys = s[:rank], s[rank:]
    gens = [amb.mul(a, b) for a, b in itertools.combinations(xs, 2)]
    gens += [amb.mul(a, b) for a in xs for b in ys]
    gens += [amb.power(b, 3) for b in ys]
    return ideal_span(amb, gens)


# Orders up to 32. The larger C2^4 x C4 and C2^6 are covered without the
# oracles: a24_ideal's family is a subset of the ordered one, so it spans a
# subideal, and test_construct_witness_positive pins each quotient's
# dimension at the ordered family's, so the two ideals are equal.
@pytest.mark.parametrize("rank,with_c4", [
    (rank, with_c4) for with_c4 in (False, True) for rank in range(6 - 2 * with_c4)
])
def test_a24_equals_the_ordered_family(rank, with_c4):
    basis = a24_ideal(rank, with_c4).rref_basis
    assert basis == _ordered_a24_ideal(rank, with_c4).rref_basis
    assert basis == _small_a24_ideal(rank, with_c4).rref_basis


def test_a24_budget():
    # C2^5 x C4 is the first over the witness budget 64
    with pytest.raises(BudgetExceededError, match="budget 64"):
        a24_ideal(5, True)


def test_star_example_generator():
    # rank 1 with C4: the length-2 tuple (x, y^2) contributes xy^2 + x + y^2 + 1
    spec = GroupSpec((2, 4))
    star = star_ideal(1, True)
    x, y2 = element_index(spec, (1, 0)), element_index(spec, (0, 2))
    assert star.contains(_pair_vector(group_algebra(spec), x, y2))


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("with_c4", [False, True])
def test_star_equals_a24(rank, with_c4):
    assert star_ideal(rank, with_c4).rref_basis == a24_ideal(rank, with_c4).rref_basis


def test_star_without_c4_is_sumc2_rank_3():
    assert star_ideal(3, False).rref_basis == a24_ideal(3, False).rref_basis


def test_star_budget():
    # its 4-tuples over 64 elements would take minutes, so it stops at 32
    for rank, with_c4 in ((6, False), (4, True)):
        with pytest.raises(BudgetExceededError, match="budget 32"):
            star_ideal(rank, with_c4)


# --- the product construction ------------------------------------------------
# The kG product: the subring generated by G1 x ... x Gn inside the product of
# the group algebras F2[Gi], presented by present_over over the concatenated
# presentation, with generator j of part i sent to its x in component i.

def _kgproduct(parts):
    comps = [group_algebra(part) for part in parts]
    images = []
    for i, part in enumerate(parts):
        for j in range(part.rank):
            gen = tuple(int(t == j) for t in range(part.rank))
            images.append(product_element(
                comps, [1 << element_index(part, gen) if k == i else 1 for k in range(len(parts))]
            ))
    ambient = GroupSpec(tuple(d for part in parts for d in part.finite_orders))
    return present_over(ambient, product_algebra(comps), images)


def _kgproduct_glue(parts):
    """The product glue, an independent route to the kG product's ideal:
    (1 + a)(1 + b) for a, b from distinct parts, each padded with the
    identity of the others."""
    ambient = GroupSpec(tuple(d for part in parts for d in part.finite_orders))
    offsets = list(itertools.accumulate((part.rank for part in parts), initial=0))
    embedded = [
        [element_index(ambient, (0,) * offsets[i] + a + (0,) * (ambient.rank - offsets[i + 1]))
         for a in elements(part)]
        for i, part in enumerate(parts)
    ]
    amb = group_algebra(ambient)
    return ambient, [
        _pair_vector(amb, a, b)
        for first, second in itertools.combinations(embedded, 2)
        for a in first
        for b in second
    ]


def test_kgproduct_c2_c3():
    q = _kgproduct((GroupSpec((2,)), GroupSpec((3,))))
    assert q.parent_group == GroupSpec((2, 3))  # the parts in turn, not the canonical C6
    assert q.ideal.dim == 2
    assert q.dim == 4
    assert q.unit_group_invariants() == (6,)


def test_kgproduct_matches_kernel_of_product_map():
    # independent route: the span of the glue (1 + a)(1 + b) is the kernel
    # of F2[G1 x G2] -> F2[G1] x F2[G2]
    for parts in [(GroupSpec((2,)), GroupSpec((3,))), (GroupSpec((4,)), GroupSpec((3,))),
                  (GroupSpec((2, 2)), GroupSpec((3,))), (GroupSpec((2,)), GroupSpec((2,)))]:
        ambient, glue = _kgproduct_glue(parts)
        span = ideal_span(group_algebra(ambient), glue)
        assert _kgproduct(parts).ideal.rref_basis == span.rref_basis


def test_kgproduct_c4_c3():
    q = _kgproduct((GroupSpec((4,)), GroupSpec((3,))))
    assert q.ideal.dim == 6
    assert q.dim == 6
    assert q.unit_group_invariants() == (2, 12)  # units(F2[C4]) x units(F2[C3])


def test_kgproduct_unit_formula_on_small_pairs():
    small = [GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,))]
    for g1, g2 in itertools.product(small, repeat=2):
        expected = canonicalize(GroupSpec(
            unit_group_invariants(group_algebra(g1))
            + unit_group_invariants(group_algebra(g2))
        )).finite_orders
        assert _kgproduct((g1, g2)).unit_group_invariants() == expected


@pytest.mark.parametrize("parts", [
    (GroupSpec((2,)), GroupSpec((3,))),
    (GroupSpec((4,)), GroupSpec((3,))),
    (GroupSpec((2,)), GroupSpec((2,)), GroupSpec((2,))),
    (GroupSpec((2,)), GroupSpec((3,)), GroupSpec((2,)), GroupSpec((3,))),
])
def test_kgproduct_contains_product_minus_sum(parts):
    rng = random.Random(99)
    q = _kgproduct(parts)
    ideal, ambient = q.ideal, q.parent_group
    assert ambient.finite_orders == tuple(d for part in parts for d in part.finite_orders)
    n = len(parts)
    for _ in range(25):
        picks = [rng.choice(elements(part)) for part in parts]
        # the product of the picks is their concatenation; each pick alone
        # is padded with the identity of every other part
        acc = _vec(ambient, tuple(itertools.chain(*picks)))
        for i, p in enumerate(picks):
            padded = [identity_element(part) for part in parts]
            padded[i] = p
            acc ^= _vec(ambient, tuple(itertools.chain(*padded)))
        if (n + 1) & 1:
            acc ^= _vec(ambient, identity_element(ambient))
        assert ideal.contains(acc)


def test_kgproduct_single_part_is_zero_ideal():
    assert _kgproduct((GroupSpec((4,)),)).ideal.dim == 0


def test_a_quotients_group_is_its_ideals_group():
    # an ideal belongs to the group its algebra carries, even when another
    # group has the same order
    c4_ideal = construct_witness(GroupSpec((4,))).ideal
    assert QuotientRing(c4_ideal).parent_group == GroupSpec((4,))
    c2c2 = GroupSpec((2, 2))
    with pytest.raises(ValueError, match="endomorphism of C4"):
        preserves_ideal(identity_hom(c2c2), c4_ideal)
    with pytest.raises(ValueError, match="outside"):
        count_preserving(c4_ideal, endo_count(c2c2))  # |End(C2^2)| = 16 > |End(C4)| = 4
    # the kernel onto F2[C2] x F2[C3] is presented over C2 x C3, not C6
    c2c3 = QuotientRing(_kgproduct((GroupSpec((2,)), GroupSpec((3,)))).ideal)
    assert c2c3.parent_group == GroupSpec((2, 3)) != GroupSpec((6,))
    assert c2c3.dim == 4


# the 8 positive groups of order <= 64 with a C3 summand
C3_WITNESS_GROUPS = ["C3", "C6", "C12", "C2 x C6", "C2 x C12", "C2^2 x C6",
                     "C2^2 x C12", "C2^3 x C6"]


@pytest.mark.parametrize("text", C3_WITNESS_GROUPS)
def test_c3_witness_is_the_kernel_onto_the_product(text):
    # independent route, the paper's gluing: a24 of W' on the W' coordinates
    # of F2[W' x C3], plus (1 + a)(1 + b) for a in W' and b in C3
    g = parse_group(text)
    rank = sum(1 for d in g.finite_orders if d % 4 == 2)  # the C2 and C6 factors
    with_c4 = any(d % 4 == 0 for d in g.finite_orders)
    w = GroupSpec((2,) * rank + ((4,) if with_c4 else ()))
    ambient, glue = _kgproduct_glue((w, GroupSpec((3,))))
    # C3 is the last coordinate, so element i of W' is element 3i of W' x C3
    shifted = [sum(1 << 3 * i for i in gf2.bits(v)) for v in a24_ideal(rank, with_c4).rref_basis]
    glued = ideal_span(group_algebra(ambient), shifted + glue)
    witness = construct_witness(g)
    assert witness.parent_group == ambient
    assert witness.ideal.rref_basis == glued.rref_basis
    assert witness.units_are_group


# --- chain rings --------------------------------------------------------------

def test_chain_ring_ideal_counts():
    for k in (1, 2, 3, 4):
        assert len(chain_ring_ideals(GroupSpec((2**k,)))) == 2**k + 1


def test_chain_ring_unit_sweep():
    for k, expected_hits in ((2, [3]), (3, []), (4, [])):
        spec = GroupSpec((2**k,))
        hits = []
        for j, ideal in enumerate(chain_ring_ideals(spec)):
            if ideal.contains(1):
                continue
            qa = QuotientRing(ideal).quotient_algebra
            if unit_count(qa) == 2**k and unit_group_invariants(qa) == (2**k,):
                hits.append(j)
        assert hits == expected_hits


def test_chain_ring_budget():
    with pytest.raises(BudgetExceededError, match="the search bound 16"):
        chain_ring_ideals(GroupSpec((32,)))
    with pytest.raises(BudgetExceededError, match="the search bound 16"):
        chain_ring_ideals(GroupSpec((3, 7)))
    with pytest.raises(GroupSyntaxError, match="2-part is cyclic"):
        chain_ring_ideals(GroupSpec((2, 2)))
    with pytest.raises(GroupSyntaxError, match="2-part is cyclic"):
        chain_ring_ideals(GroupSpec((2, 6)))


def _x_plus_1_valuation(e):
    # (x+1) divides e(x) iff e(1) = 0, i.e. e has even weight; the quotient's
    # coefficient i is the parity of the coefficients 0..i of e
    v = 0
    while e.bit_count() % 2 == 0:
        q = acc = 0
        for i in range(e.bit_length()):
            acc ^= (e >> i) & 1
            q |= acc << i
        e, v = q, v + 1
    return v


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_ring_ideals_brute_force(k):
    # independent of the certificate: every nonzero e generates the listed
    # ideal of its (x+1)-valuation, so no ideal is missing from the list
    n = 2**k
    mask = (1 << n) - 1
    ideals = chain_ring_ideals(GroupSpec((n,)))
    for e in range(1, 1 << n):
        rotations = [((e << i) | (e >> (n - i))) & mask for i in range(n)]
        assert gf2.rref(rotations) == ideals[_x_plus_1_valuation(e)].rref_basis


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_ring_certificate_rejects_a_wrong_power(monkeypatch, k):
    # the ideal of (x+1)^j comes back as that of (x+1)^(j-1), one dim too big
    spec = GroupSpec((2**k,))
    amb = group_algebra(spec)
    j = 2 ** (k - 1)
    wrong, right = amb.power(0b11, j), amb.power(0b11, j - 1)
    real_span = constructions.ideal_span

    def mutated_span(a, gens):
        return real_span(a, [right] if list(gens) == [wrong] else gens)

    monkeypatch.setattr(constructions, "ideal_span", mutated_span)
    with pytest.raises(FuchslabError):
        chain_ring_ideals(spec)
    monkeypatch.undo()
    assert len(chain_ring_ideals(spec)) == 2**k + 1


@pytest.mark.parametrize("text", ["C12", "C3 x C3", "C15"])
def test_block_certificate_rejects_a_dropped_block(monkeypatch, text):
    # the last block's idempotent e is dropped from any list of generators
    # with another nonzero member, so the ideal of (e', e) comes back as (e'):
    # the certificate must see the lost dimensions
    g = parse_group(text)
    e = algebra._local_decomposition(group_algebra(g))[1][-1][0][0]
    real_span = constructions.ideal_span

    def mutated_span(a, gens):
        gens = list(gens)
        if e in gens and sum(1 for v in gens if v) > 1:
            gens.remove(e)
        return real_span(a, gens)

    monkeypatch.setattr(constructions, "ideal_span", mutated_span)
    with pytest.raises(FuchslabError, match="unexpected dimensions"):
        chain_ring_ideals(g)
    monkeypatch.undo()
    assert len(chain_ring_ideals(g)) > 1


@pytest.mark.parametrize("text, k", [("C15", 3), ("C3 x C3", 1), ("C12", 4)])
def test_a_chain_search_decomposes_its_group_algebra_once(text, k):
    # the ideal list and every quotient's unit count read one cached
    # decomposition of F2[g]; a second algebra with the same table is
    # another object, decomposed on its own, with the same counts
    g = parse_group(text)
    algebra._local_decomposition.cache_clear()
    bounded_ideal_search(g, pool="chain")
    assert algebra._local_decomposition.cache_info().misses == 1
    copy = Algebra(algebra._cayley_table(g), 1, group=g)
    gens = [1 | 1 << k]  # 1 + the k-th group element: F2[g]/I has more than one unit
    count = algebra._block_unit_count(ideal_span(group_algebra(g), gens))
    assert count > 1 and algebra._block_unit_count(ideal_span(copy, gens)) == count
    assert algebra._local_decomposition.cache_info().misses == 2


def _cyclic_two_part(g):
    return sum(1 for d in g.finite_orders if d % 2 == 0) <= 1


# the 17 groups of order <= 16 whose 2-part (Sylow 2-subgroup) is cyclic
CYCLIC_TWO_PART = [canonicalize(GroupSpec(m)) for m in
                   [()] + [(n,) for n in range(2, 17)] + [(3, 3)]]


@pytest.mark.parametrize("g", CYCLIC_TWO_PART, ids=render_group)
def test_chain_search_is_exhaustive_and_agrees_with_classify(g):
    ideals = chain_ring_ideals(g)
    assert len({i.rref_basis for i in ideals}) == len(ideals)
    report = bounded_ideal_search(g, pool="chain")
    assert report.exhaustive and report.ideals_examined == len(ideals)
    assert (report.fully_realizing_found > 0) == classify(g).fully_realizable
    if classify(g).fully_realizable:
        assert report.fully_realizing_found == 1


@pytest.mark.parametrize("g", [g for g in CYCLIC_TWO_PART if g.torsion_order <= 12],
                         ids=render_group)
def test_chain_ring_ideals_are_the_principal_ideals(g):
    # F2[g] is a product of chain rings, so every ideal is principal: the
    # list is the set of ideals spanned by each of the 2^|g| elements
    amb = group_algebra(g)
    principal = {ideal_span(amb, [v]).rref_basis for v in range(1 << amb.dim)}
    listed = [i.rref_basis for i in chain_ring_ideals(g)]
    assert len(listed) == len(principal) and set(listed) == principal


def test_chain_ring_ideals_of_c12():
    ideals = chain_ring_ideals(GroupSpec((12,)))
    # F2[C12] = F2[C4] x F4[C4]: blocks of dimension 4 and 8, f = 1 and 2,
    # and 5 x 5 ideals
    blocks = algebra._local_decomposition(group_algebra(GroupSpec((12,))))[1]
    assert sorted((d, f) for _, d, f in blocks) == [(4, 1), (8, 2)]
    assert len(ideals) == 25
    assert [i.dim for i in ideals[:5]] == [12, 11, 10, 9, 8]


# --- witnesses and recipes ------------------------------------------------------

# every fully realizable group of order <= 64; the ring has dimension
# rank(W) + 1, plus 2 for a C4 summand and 2 for a C3 summand
@pytest.mark.parametrize("text,expected_dim", [
    ("C1", 1), ("C2", 2), ("C3", 3), ("C4", 3), ("C6", 4), ("C12", 5),
    ("C2^2 x C4", 5), ("C2 x C3", 4),
    ("C2^2", 3), ("C2^3", 4), ("C2^4", 5), ("C2^5", 6), ("C2^6", 7),
    ("C2^2 x C3", 5), ("C2^3 x C3", 6), ("C2^4 x C3", 7),
    ("C2 x C4", 4), ("C2^3 x C4", 6), ("C2^4 x C4", 7),
    ("C2 x C12", 6), ("C2^2 x C12", 7),
])
def test_construct_witness_positive(text, expected_dim):
    g = parse_group(text)
    q = construct_witness(g)
    assert q.dim == expected_dim
    assert q.unit_group_invariants() == g.finite_orders
    if endo_count(g) <= 4096:
        assert fully_realizes(q, g).fully_realizes


def test_construct_witness_c4_is_the_chain_ring():
    q = construct_witness(GroupSpec((4,)))
    assert q.ideal.rref_basis == (0b1111,)


def test_construct_witness_matches_standalone_ideals():
    assert (
        construct_witness(GroupSpec((2, 2, 4))).ideal.rref_basis
        == a24_ideal(2, True).rref_basis
    )
    assert (
        construct_witness(GroupSpec((2, 2, 2))).ideal.rref_basis
        == a24_ideal(3, False).rref_basis
    )


def test_witness_agreement_at_orders_24_and_32():
    # classify positives above the default sweep bound, within the endo budget
    for text in ("C2 x C12", "C2^2 x C6", "C2^3 x C4"):
        g = parse_group(text)
        assert classify(g).fully_realizable
        rep = fully_realizes(construct_witness(g), g, max_endos=2 * 10**5)
        assert rep.fully_realizes


def test_construct_witness_rejections():
    with pytest.raises(NotRealizableError):
        construct_witness(GroupSpec((16,)))
    with pytest.raises(InfiniteGroupError):
        construct_witness(GroupSpec((2,), infinite_rank=1))
    with pytest.raises(BudgetExceededError):
        construct_witness(GroupSpec((2,) * 7))


def test_ring_from_recipe():
    spec, q = ring_from_recipe("a24(rank=2,c4=true)")
    assert spec == GroupSpec((2, 2, 4))
    assert q.dim == 5
    spec, q = ring_from_recipe("chain(k=2,j=3)")
    assert spec == GroupSpec((4,))
    assert q.unit_group_invariants() == (4,)
    spec, q = ring_from_recipe("a24xC3(rank=1,c4=false)")
    assert spec == GroupSpec((6,))
    for bad in ("bogus(1)", "a24(rank=two)", "chain(k=2,j=9)", "a24",
                "a24(rank=1,extra=3)", "a24(rank=1,rank=2)", "chain(k=2,j=3,rank=1)",
                "sumc2(rank=2)"):
        with pytest.raises((GroupSyntaxError, ValueError)):
            ring_from_recipe(bad)
    # unknown and repeated keys are named
    with pytest.raises(GroupSyntaxError, match="'extra'"):
        ring_from_recipe("a24(rank=1,extra=3)")
    with pytest.raises(GroupSyntaxError, match="'rank' is given twice"):
        ring_from_recipe("a24(rank=1,rank=2)")
    with pytest.raises(GroupSyntaxError, match="'rank'"):
        ring_from_recipe("chain(k=2,j=3,rank=1)")


def test_classify_recipes_materialize():
    for text in ("C2", "C4", "C6", "C12", "C2^2 x C4", "C2 x C2 x C3"):
        verdict = classify(parse_group(text))
        assert verdict.recipe is not None
        spec, q = ring_from_recipe(verdict.recipe)
        assert spec == verdict.group
        assert fully_realizes(q, spec).fully_realizes


# --- bounded searches ------------------------------------------------------------

def test_search_c4_chain_pool_exhaustive():
    report = bounded_ideal_search(parse_group("C4"), pool="chain", budget=64)
    assert report.exhaustive
    assert report.ideals_examined == 5
    assert report.fully_realizing_found == 1
    assert report.realizing_found == 1


def test_search_c4xc4_default_pool():
    report = bounded_ideal_search(parse_group("C4 x C4"), pool="default", budget=128)
    assert report.fully_realizing_found == 0
    assert not report.exhaustive
    assert report.ideals_examined > 0


def test_search_c3xc3_chain_pool():
    report = bounded_ideal_search(parse_group("C3 x C3"), pool="chain")
    # C3 x C3 is realizable, just not fully
    assert (report.ideals_examined, report.realizing_found, report.fully_realizing_found) == (
        32, 12, 0)
    assert report.exhaustive
    assert not bounded_ideal_search(parse_group("C3 x C3"), pool="chain", budget=31).exhaustive


def test_search_c3_chain_pool_finds_the_group_algebra():
    # the chain list holds the zero ideal, so F2[C3] itself is examined
    report = bounded_ideal_search(parse_group("C3"), pool="chain")
    assert report.exhaustive
    assert (report.ideals_examined, report.realizing_found, report.fully_realizing_found) == (
        4, 2, 1)


def test_search_rejects_bad_input():
    with pytest.raises(BudgetExceededError):
        bounded_ideal_search(GroupSpec((2,) * 5))
    with pytest.raises(GroupSyntaxError):
        bounded_ideal_search(GroupSpec((4,)), pool="nonsense")
    with pytest.raises(GroupSyntaxError, match="2-part is cyclic"):
        bounded_ideal_search(GroupSpec((2, 2)), pool="chain")
    with pytest.raises(GroupSyntaxError, match="unknown pool 'fieldprod'"):
        bounded_ideal_search(GroupSpec((3, 3)), pool="fieldprod")
    # a slice [:-1] would examine 4 of C4's 5 chain ideals
    for pool in ("chain", "default"):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="below 1"):
                bounded_ideal_search(GroupSpec((4,)), pool=pool, budget=budget)


def test_spans_and_quotients_are_not_revalidated(monkeypatch):
    # group algebras, ideal spans, quotients, fields and products are all
    # valid by construction: none is checked again, and each group algebra
    # is built once
    validated_ideals, validated_algebras, built = [], [], []
    check_ideal, check_algebra = Ideal.__post_init__, Algebra.__post_init__

    def counted_ideal(self):
        validated_ideals.append(self)
        check_ideal(self)

    def counted_algebra(self):
        validated_algebras.append(self)
        check_algebra(self)

    def counted_build(g):
        built.append(g)
        return group_algebra.__wrapped__(g)

    monkeypatch.setattr(Ideal, "__post_init__", counted_ideal)
    monkeypatch.setattr(Algebra, "__post_init__", counted_algebra)
    # a fresh cache around the builder, wherever the library calls it
    cached_build = functools.lru_cache(maxsize=64)(counted_build)
    for module in (algebra, constructions):
        monkeypatch.setattr(module, "group_algebra", cached_build)
    report = bounded_ideal_search(parse_group("C4 x C4"))
    assert (report.ideals_examined, report.realizing_found, report.fully_realizing_found) == (127, 6, 0)
    assert validated_ideals == []
    assert built == [parse_group("C4 x C4")]

    built.clear()
    cached_build.cache_clear()
    ring = construct_witness(parse_group("C2^2 x C12"))
    assert ring.unit_group_invariants() == (2, 2, 12)
    assert validated_ideals == []
    # F2[C2^2 x C4], then F2[C2^2 x C4 x C3]: no canonical C2^2 x C12 is built
    assert sorted(g.finite_orders for g in built) == [(2, 2, 4), (2, 2, 4, 3)]
    # F4 is a field by construction, and the target of present_over,
    # (F2[C2^2 x C4]/a24) x F4, is a product of valid algebras: neither is
    # checked again, nor is either group algebra
    assert validated_algebras == []


@pytest.mark.parametrize("text", ["C3 x C3", "C2 x C8", "C2^4"])
def test_subset_ideals_match_a_span_per_subset(text):
    # reference: span every subset from scratch, with the same order and caps
    g = parse_group(text)
    amb = group_algebra(g)
    pool = _default_pool(amb)
    budget, work_cap = 256, max(8 * 256, 512)
    expected, seen = [], set()
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            if len(expected) >= budget or work_cap <= 0:
                break
            work_cap -= 1
            basis = ideal_span(amb, [pool[i] for i in combo]).rref_basis
            if basis not in seen:
                seen.add(basis)
                expected.append(basis)
    got = [ideal.rref_basis for ideal in _subset_ideals(amb, pool, budget)]
    assert got == expected


@pytest.mark.parametrize("text,budget", [
    (text, budget)
    for text in ("C4 x C4", "C3 x C3", "C2 x C8", "C2^4", "C12", "C15", "C2 x C6", "C3 x C5")
    for budget in (256, 1, 7, 16, 100)
] + [("C2 x C4", 100000)])
def test_subset_ideals_share_sums_per_prefix_ideal(text, budget):
    # reference: one ideal_span per subset of the pool, which shares no code
    # with _join, in itertools.combinations order, with the same caps and stop
    g = parse_group(text)
    amb = group_algebra(g)
    pool = _default_pool(amb)
    work_cap = max(8 * budget, 512)
    expected, seen = [], set()
    for size in range(1, len(pool) + 1):
        before = len(expected)
        for combo in itertools.combinations(range(len(pool)), size):
            if len(expected) >= budget or work_cap <= 0:
                break
            work_cap -= 1
            basis = ideal_span(amb, [pool[i] for i in combo]).rref_basis
            if basis not in seen:
                seen.add(basis)
                expected.append(basis)
        if len(expected) == before:
            break
    got = [ideal.rref_basis for ideal in _subset_ideals(amb, pool, budget)]
    assert got == expected


@pytest.mark.parametrize("texts", [("C4 x C4",), ("C3 x C3", "C2 x C6"), ("C2 x C8",), ("C2^4",)],
                         ids=lambda texts: texts[0])
def test_ideal_sum_matches_the_concatenated_rref_on_the_search_corpora(texts, monkeypatch):
    # every join of the search's ideal lattice, which extends the larger
    # basis, is the sum of its two ideals by the old formula that eliminates
    # the concatenation of the bases from scratch.
    # C3 x C3 alone forms only 71 sums, so its case walks C2 x C6 as well
    sums = []
    real_join = constructions._join
    for text in texts:
        g = parse_group(text)
        amb = group_algebra(g)

        def checked_join(x, y, amb=amb):
            total = real_join(x, y)
            assert total == gf2.rref(x + y)
            sums.append(total)
            return total

        monkeypatch.setattr(constructions, "_join", checked_join)
        list(_subset_ideals(amb, _default_pool(amb), 256))
    assert len(sums) > 100


@pytest.mark.parametrize("text,limit", [
    ("C4 x C4", 437), ("C3 x C3", 71), ("C2 x C8", 209), ("C2^4", 380),
])
def test_subset_ideals_form_each_sum_once_per_pair_of_ideals(text, limit, monkeypatch):
    # equal principal ideals share their sums: memoised per (prefix ideal,
    # pool member) instead, the walk forms 1,278, 280, 975 and 380 sums
    pairs = []
    real_join = constructions._join

    def counted_join(x, y):
        pairs.append(frozenset((x, y)))
        return real_join(x, y)

    monkeypatch.setattr(constructions, "_join", counted_join)
    g = parse_group(text)
    amb = group_algebra(g)
    list(_subset_ideals(amb, _default_pool(amb), 256))
    assert len(pairs) <= limit
    assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("text,examined,realizing", [("C4 x C4", 164, 9), ("C2 x C8", 56, 0)])
def test_search_at_a_large_budget(text, examined, realizing):
    # the default pool runs out of new ideals well before budget 100000
    report = bounded_ideal_search(parse_group(text), budget=100000)
    assert (report.ideals_examined, report.realizing_found, report.fully_realizing_found) == (
        examined, realizing, 0)


@pytest.mark.parametrize("text,realizable", [("C3 x C3", True), ("C2 x C4", True), ("C8", False)])
def test_unit_to_group_is_the_search_unit_check(text, realizable):
    # over the proper quotients the search meets, units_are_group holds exactly
    # when the units are the image of G, one element each; then the unit
    # group's invariants are G's, the implication the search relies on
    g = parse_group(text)
    amb = group_algebra(g)
    ideals = list(_subset_ideals(amb, _default_pool(amb), 64))
    if _cyclic_two_part(g):
        ideals += chain_ring_ideals(g)
    hits = 0
    for ideal in ideals:
        if ideal.contains(amb.one_vector):
            continue
        q = QuotientRing(ideal)
        image = set(q.group_image)
        exact = image == units(q.quotient_algebra) and len(image) == g.torsion_order
        assert q.units_are_group == exact
        if exact:
            hits += 1
            assert q.unit_group_invariants() == g.finite_orders
    assert (hits > 0) == realizable


def test_unit_to_group_enumerates_no_units(monkeypatch):
    # the search and the witness check decide the unit group by counting
    # the units, not by listing them
    def no_scan(*args, **kwargs):
        raise AssertionError("units() was called")

    monkeypatch.setattr(algebra, "units", no_scan)
    report = bounded_ideal_search(parse_group("C4 x C4"))
    assert (report.ideals_examined, report.realizing_found, report.fully_realizing_found) == (127, 6, 0)
    g = parse_group("C2^2 x C12")
    assert fully_realizes(construct_witness(g), g).fully_realizes


@pytest.mark.parametrize("text,lift_tests,counts", [
    ("C4 x C4", 12, (127, 6, 0)), ("C3 x C3", 37, (11, 6, 0)),
    ("C2 x C8", 0, (48, 0, 0)), ("C2^4", 0, (256, 0, 0)),
])
def test_search_work_counters(text, lift_tests, counts, monkeypatch):
    # deterministic work, not wall time: the search stops each End(G) walk
    # at the first endomorphism that does not lift (1536 and 486 lift tests
    # for the full walks), and decides units_are_group with no quotient
    # multiplication table
    calls = []
    real_check = endo._lift_check

    def counted_check(ideal):
        lifts = real_check(ideal)

        def counted(images):
            calls.append(images)
            return lifts(images)

        return counted

    def no_table(self):
        raise AssertionError("the search built a quotient multiplication table")

    monkeypatch.setattr(endo, "_lift_check", counted_check)
    monkeypatch.setattr(algebra.QuotientRing, "quotient_algebra", property(no_table))
    report = bounded_ideal_search(parse_group(text))
    assert (report.ideals_examined, report.realizing_found, report.fully_realizing_found) == counts
    assert len(calls) <= lift_tests


def test_search_determinism():
    a = bounded_ideal_search(parse_group("C3 x C3"), pool="default", budget=64)
    b = bounded_ideal_search(parse_group("C3 x C3"), pool="default", budget=64)
    assert a == b
