"""The acceptance suite as plain library calls.

Each criterion returns a CriterionResult so the CLI `selftest` command and
the pytest acceptance module share one implementation. All checks are exact:
the arithmetic is over GF(2) and integers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import (
    QuotientRing,
    augmentation,
    field_algebra,
    find_inverse,
    group_algebra,
    ideal_span,
    is_unit,
    present_over,
    product_algebra,
    product_element,
    unit_group_invariants,
)
from .constructions import (
    a24_ideal,
    bounded_ideal_search,
    chain_ring_ideals,
    classify,
    construct_witness,
    star_ideal,
)
from .endo import fully_realizes, preserves_ideal, ring_endos, ring_endos_oracle
from .groups import (
    GroupHom,
    GroupSpec,
    canonicalize,
    endo_count,
    enumerate_endos,
    order_profile,
    parse_group,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, checks: list[tuple[bool, str]]) -> CriterionResult:
    failed = [msg for ok, msg in checks if not ok]
    if failed:
        return CriterionResult(name, False, "; ".join(failed))
    return CriterionResult(name, True, f"{len(checks)} checks")


def _zero_ideal_ring(g: GroupSpec):
    return QuotientRing(ideal_span(group_algebra(g), []))


def criterion_1_basic_examples() -> CriterionResult:
    """Small cyclic groups: the group algebras and the chain quotient."""
    checks = []
    c2 = GroupSpec((2,))
    rep = fully_realizes(_zero_ideal_ring(c2), c2)
    checks.append((rep.fully_realizes and (rep.realized_endos, rep.total_endos) == (2, 2),
                   "F2[C2] must fully realize C2 with 2/2"))
    c4 = GroupSpec((4,))
    amb = group_algebra(c4)
    chain_cube = ideal_span(amb, [amb.power(0b0011, 3)])  # (1+y)^3
    rep = fully_realizes(QuotientRing(chain_cube), c4)
    checks.append((rep.fully_realizes and (rep.realized_endos, rep.total_endos) == (4, 4),
                   "F2[C4]/((1+y)^3) must fully realize C4 with 4/4"))
    c3 = GroupSpec((3,))
    rep = fully_realizes(_zero_ideal_ring(c3), c3)
    checks.append((rep.fully_realizes and (rep.realized_endos, rep.total_endos) == (3, 3),
                   "F2[C3] must fully realize C3 with 3/3"))
    f4 = field_algebra(2)
    q = present_over(c3, f4, [0b10])
    rep = fully_realizes(q, c3)
    checks.append((not rep.fully_realizes and (rep.realized_endos, rep.total_endos) == (2, 3),
                   "F4 alone must realize only 2 of 3"))
    trivial = GroupHom(c3, c3, ((0,),))
    checks.append((not preserves_ideal(trivial, q.ideal),
                   "the trivial endomorphism must fail on F4"))
    checks.append((rep.failing_witness == trivial, "the recorded witness must be the trivial map"))
    return _result("example-corpus", checks)


def criterion_2_odd_order_counting() -> CriterionResult:
    """End counting behind the odd-order classification."""
    checks = []
    c33 = GroupSpec((3, 3))
    checks.append((endo_count(c33) == 81 and len(enumerate_endos(c33)) == 81,
                   "|End(C3 x C3)| must be 81"))
    fields = [field_algebra(1), field_algebra(2), field_algebra(2)]
    target = product_algebra(fields)
    u = product_element(fields, [1, 0b10, 0b01])
    v = product_element(fields, [1, 0b01, 0b10])
    q = present_over(c33, target, [u, v])
    rep = fully_realizes(q, c33)
    checks.append((rep.unit_group_ok and rep.realized_endos == 25,
                   "the F2 x F4 x F4 presentation must have exactly 25 ring endomorphisms"))
    checks.append((not rep.fully_realizes, "C3 x C3 must not be fully realized (81 > 25)"))
    for k in (2, 3):
        comps = [field_algebra(1), field_algebra(k)]
        tgt = product_algebra(comps)
        cyclic = GroupSpec((2**k - 1,))
        qk = present_over(cyclic, tgt, [product_element(comps, [1, 0b10])])
        realized = len(ring_endos(qk))
        checks.append((realized == k + 1, f"|End(F2 x F{2**k})| must be {k + 1}, got {realized}"))
    return _result("odd-order-counting", checks)


def criterion_3_chain_ring_sweep() -> CriterionResult:
    """All ideals of F2[C_{2^k}] and their unit groups."""
    checks = []
    for k in (2, 3, 4):
        spec = GroupSpec((2**k,))
        ideals = chain_ring_ideals(spec)
        checks.append((len(ideals) == 2**k + 1, f"F2[C{2**k}] must have {2**k + 1} ideals"))
        hits = []
        for j, ideal in enumerate(ideals):
            if ideal.contains(group_algebra(spec).one_vector):
                continue
            qa = QuotientRing(ideal).quotient_algebra
            if unit_group_invariants(qa) == (2**k,):
                hits.append(j)
        if k == 2:
            checks.append((hits == [3], "only the j=3 quotient of F2[C4] yields C4"))
        else:
            checks.append((hits == [], f"no quotient of F2[C{2**k}] may have unit group C{2**k}"))
    return _result("chain-ring-sweep", checks)


def criterion_4_witness_families() -> CriterionResult:
    """The elementary-abelian and C4 witness ideals, and the closed form."""
    checks = []
    expected_sumc2 = {1: 2, 2: 16, 3: 512, 4: 65536}
    for rank, count in expected_sumc2.items():
        spec = GroupSpec((2,) * rank)
        rep = fully_realizes(QuotientRing(a24_ideal(rank, False)), spec)
        checks.append((rep.fully_realizes and rep.total_endos == count == rep.realized_endos,
                       f"sumc2 rank {rank} must preserve all {count} endomorphisms"))
    expected_a24 = {0: 4, 1: 32, 2: 1024}
    for rank, count in expected_a24.items():
        spec = GroupSpec((2,) * rank + (4,))
        rep = fully_realizes(QuotientRing(a24_ideal(rank, True)), spec)
        checks.append((rep.fully_realizes and rep.total_endos == count == rep.realized_endos,
                       f"a24 rank {rank} must preserve all {count} endomorphisms"))
    for rank in (0, 1, 2):
        for with_c4 in (False, True):
            same = star_ideal(rank, with_c4).rref_basis == a24_ideal(rank, with_c4).rref_basis
            checks.append((same, f"star ideal must equal a24 ideal at rank={rank}, c4={with_c4}"))
    return _result("witness-families", checks)


def criterion_5_cyclic_sweep() -> CriterionResult:
    """classify on C_1..C_100 plus explicit verification of every positive."""
    checks = []
    positives = [
        n for n in range(1, 101)
        if classify(GroupSpec((n,) if n > 1 else ())).fully_realizable
    ]
    checks.append((positives == [1, 2, 3, 4, 6, 12],
                   f"cyclic positives must be the divisors of 12, got {positives}"))
    for n in positives:
        g = GroupSpec((n,) if n > 1 else ())
        rep = fully_realizes(construct_witness(g), g)
        checks.append((rep.fully_realizes, f"witness for C{n} must fully realize it"))
        if n == 12:
            checks.append(((rep.realized_endos, rep.total_endos) == (12, 12),
                           "the C12 ring must realize 12/12 endomorphisms"))
    return _result("cyclic-sweep", checks)


def criterion_6_negative_evidence() -> CriterionResult:
    """Bounded searches and the finite products-fail instance."""
    checks = []
    for spec_text in ("C4 x C4", "C3 x C3"):
        report = bounded_ideal_search(parse_group(spec_text), pool="default", budget=256)
        checks.append((report.fully_realizing_found == 0 and not report.exhaustive,
                       f"default-pool search on {spec_text} must find nothing, non-exhaustively"))
        checks.append((report.ideals_examined > 0, f"search on {spec_text} must examine ideals"))
    c33 = GroupSpec((3, 3))
    comps = [group_algebra(GroupSpec((3,))), field_algebra(2)]
    tgt = product_algebra(comps)
    a = product_element(comps, [0b010, 0b01])  # (c, 1)
    b = product_element(comps, [0b001, 0b10])  # (1, w)
    q = present_over(c33, tgt, [a, b])
    rep = fully_realizes(q, c33)
    checks.append((rep.unit_group_ok, "F2[C3] x F4 must have unit group C3 x C3"))
    psi = GroupHom(c33, c33, ((1, 1), (0, 1)))  # (u, v) -> (u, uv)
    checks.append((not preserves_ideal(psi, q.ideal),
                   "(u, v) -> (u, uv) must fail ideal preservation"))
    checks.append((not rep.fully_realizes, "F2[C3] x F4 must not fully realize C3 x C3"))
    return _result("negative-evidence", checks)


def _small_rings():
    """Constructed rings of dim <= 4 whose units generate them."""
    rings = [
        construct_witness(GroupSpec(())),           # F2
        _zero_ideal_ring(GroupSpec((2,))),          # F2[C2]
        _zero_ideal_ring(GroupSpec((3,))),          # F2[C3] = F2 x F4
        construct_witness(GroupSpec((4,))),         # chain quotient, dim 3
        construct_witness(GroupSpec((2, 2))),       # sumc2 rank 2, dim 3
        construct_witness(GroupSpec((6,))),         # dim 4
        construct_witness(GroupSpec((2, 2, 2))),    # sumc2 rank 3, dim 4
        present_over(GroupSpec((3,)), field_algebra(2), [0b10]),  # F4, dim 2
    ]
    comps = [field_algebra(1), field_algebra(3)]
    rings.append(
        present_over(GroupSpec((7,)), product_algebra(comps),
                     [product_element(comps, [1, 0b10])])  # F2 x F8, dim 4
    )
    return rings


def criterion_7_oracle_equivalence() -> CriterionResult:
    """End(G)-filter counts against the brute-force linear-map oracle."""
    checks = []
    for q in _small_rings():
        filtered = len(ring_endos(q))
        brute = ring_endos_oracle(q.quotient_algebra)
        checks.append((filtered == brute,
                       f"dim {q.dim} ring over {q.parent_group}: filter {filtered} != oracle {brute}"))
    return _result("oracle-equivalence", checks)


def _factor_multisets(bound: int):
    """All multisets of cyclic orders >= 2 with product <= bound."""
    out: list[tuple[int, ...]] = [()]
    def extend(prefix: tuple[int, ...], smallest: int, room: int):
        for d in range(smallest, room + 1):
            out.append(prefix + (d,))
            extend(prefix + (d,), d, room // d)
    extend((), 2, bound)
    return out


def _cyclic_product(g1: GroupSpec, g2: GroupSpec):
    """F2[g1] x F2[g2] for cyclic g1, g2, presented over g1 x g2 by the
    images (x, 1) and (1, x) of the two generators."""
    comps = [group_algebra(g1), group_algebra(g2)]
    images = [product_element(comps, [0b10, 1]), product_element(comps, [1, 0b10])]
    return present_over(GroupSpec(g1.finite_orders + g2.finite_orders),
                        product_algebra(comps), images)


def criterion_8_structural_properties() -> CriterionResult:
    """The cross-cutting algebra laws at their stated sizes."""
    rng = random.Random(20260810)
    checks = []

    samples = [a24_ideal(2, False), a24_ideal(1, True),
               _cyclic_product(GroupSpec((2,)), GroupSpec((3,))).ideal]
    closed = all(
        ideal.contains(ideal.ambient.mul(1 << b, v))
        for ideal in samples
        for b in range(ideal.ambient.dim)
        for v in ideal.rref_basis
    )
    checks.append((closed, "ideal spans must be multiplication-closed"))
    dims_ok = all(
        QuotientRing(ideal).dim == ideal.ambient.dim - ideal.dim
        for ideal in samples
    )
    checks.append((dims_ok, "dim(quotient) must equal dim(parent) - dim(ideal)"))

    unit_paths = True
    for alg in (group_algebra(GroupSpec((4,))), group_algebra(GroupSpec((2, 2))),
                product_algebra([field_algebra(1), field_algebra(2)]),
                field_algebra(3), group_algebra(GroupSpec((6,))),
                group_algebra(GroupSpec((12,)))):
        for e in range(1 << alg.dim):
            if is_unit(alg, e) != (find_inverse(alg, e) is not None):
                unit_paths = False
    checks.append((unit_paths, "matrix-rank and inverse-search unit criteria must agree"))

    aug_ok = True
    for orders in ((2,), (4,), (2, 2), (6,), (2, 4), (12,), (2, 2, 4)):
        g = GroupSpec(orders)
        size = g.torsion_order
        for _ in range(50):
            x, y2 = rng.randrange(1 << size), rng.randrange(1 << size)
            if augmentation(g, group_algebra(g).mul(x, y2)) != (
                augmentation(g, x) & augmentation(g, y2)
            ):
                aug_ok = False
    checks.append((aug_ok, "augmentation must be multiplicative"))

    profile_law = True
    specs = [GroupSpec(m) for m in _factor_multisets(64)]
    by_order: dict[int, list[GroupSpec]] = {}
    for s in specs:
        by_order.setdefault(s.torsion_order, []).append(s)
    for batch in by_order.values():
        for s1, s2 in itertools.combinations(batch, 2):
            same_profile = order_profile(s1) == order_profile(s2)
            same_class = canonicalize(s1) == canonicalize(s2)
            if same_profile != same_class:
                profile_law = False
    checks.append((profile_law, "order profiles must separate isomorphism classes up to 64"))

    product_ok = True
    small = [GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,))]
    for g1, g2 in itertools.product(small, repeat=2):
        unit_product = canonicalize(GroupSpec(
            unit_group_invariants(group_algebra(g1))
            + unit_group_invariants(group_algebra(g2))
        )).finite_orders
        if _cyclic_product(g1, g2).unit_group_invariants() != unit_product:
            product_ok = False
    checks.append((product_ok, "F2[G1] x F2[G2] must have the product unit group"))

    ring22 = QuotientRing(a24_ideal(2, False))
    x1 = ring22.group_image[2]  # coset of (1, 0)
    summand = present_over(GroupSpec((2,)), ring22.quotient_algebra, [x1])
    rep = fully_realizes(summand, GroupSpec((2,)))
    checks.append((rep.fully_realizes and summand.dim == 2,
                   "the summand subring F2[x1] must fully realize C2"))

    comps = [group_algebra(GroupSpec((2,))), group_algebra(GroupSpec((3,)))]
    tgt = product_algebra(comps)
    u = product_element(comps, [0b10, 0b010])
    rep6 = fully_realizes(present_over(GroupSpec((6,)), tgt, [u]), GroupSpec((6,)))
    checks.append((rep6.fully_realizes and rep6.total_endos == 6,
                   "F2[C2] x F2[C3] over F2[C6] must realize all 6 endomorphisms"))
    return _result("structural-properties", checks)


def agreement_sweep(max_order: int = 16) -> CriterionResult:
    """classify and the realizability engine must agree on every finite
    abelian group up to max_order, and bounded searches must never
    contradict a negative; where the 2-part is cyclic the search is the
    exhaustive chain pool."""
    checks = []
    specs = sorted(
        {canonicalize(GroupSpec(m)) for m in _factor_multisets(max_order)},
        key=lambda s: (s.torsion_order, s.finite_orders),
    )
    for spec in specs:
        verdict = classify(spec)
        if not verdict.fully_realizable:
            continue
        rep = fully_realizes(construct_witness(spec), spec)
        checks.append((rep.fully_realizes,
                       f"witness for {spec} must pass the engine"))
    for spec_text in ("C8", "C3 x C3", "C4 x C4"):
        g = parse_group(spec_text)
        if classify(g).fully_realizable:
            checks.append((False, f"{spec_text} must classify negative"))
            continue
        cyclic_two = sum(d % 2 == 0 for d in g.finite_orders) <= 1
        report = bounded_ideal_search(g, pool="chain" if cyclic_two else "default", budget=64)
        checks.append((report.fully_realizing_found == 0 and report.exhaustive == cyclic_two,
                       f"search must not contradict the negative on {spec_text}"))
    return _result("classify-witness-agreement", checks)


def run_all(max_order: int = 16) -> list[CriterionResult]:
    return [
        criterion_1_basic_examples(),
        criterion_2_odd_order_counting(),
        criterion_3_chain_ring_sweep(),
        criterion_4_witness_families(),
        criterion_5_cyclic_sweep(),
        criterion_6_negative_evidence(),
        criterion_7_oracle_equivalence(),
        criterion_8_structural_properties(),
        agreement_sweep(max_order=max_order),
    ]
