"""Explicit witness rings, the classification oracle, and bounded searches.

The oracle answers full realizability symbolically from the invariant-factor
shape of the group; the builders manufacture the witness quotients for the
positive finite verdicts; the searches mechanize desk-scale evidence for the
negative ones, exhaustive with the chain pool on every group whose 2-part is
cyclic, and honestly flagged non-exhaustive elsewhere.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from math import prod

from . import gf2
from .algebra import (
    Algebra,
    Ideal,
    QuotientRing,
    _local_decomposition,
    _trusted,
    field_algebra,
    group_algebra,
    ideal_span,
    present_over,
    product_algebra,
    product_element,
)
from .endo import every_endo_lifts
from .errors import (
    BudgetExceededError,
    FuchslabError,
    GroupSyntaxError,
    InfiniteGroupError,
    NotRealizableError,
)
from .groups import (
    GroupElement,
    GroupSpec,
    add_elements,
    canonicalize,
    element_index,
    element_order,
    elements,
    identity_element,
    order_within,
    prime_power_split,
)


DEFAULT_WITNESS_MAX_ORDER = 64


class Reason(str, Enum):
    """Reason codes attached to classification verdicts, one per verdict."""

    THM11_TORSION_FREE = "THM11_TORSION_FREE"
    THM11_ODD = "THM11_ODD"
    THM11_TORSION = "THM11_TORSION"
    THM11_FG = "THM11_FG"
    C4_QUOTIENT_OBSTRUCTION = "C4_QUOTIENT_OBSTRUCTION"
    C3_SUMMAND_OBSTRUCTION = "C3_SUMMAND_OBSTRUCTION"
    P_N_BOUND = "P_N_BOUND"
    NOT_REALIZABLE_CHAR2 = "NOT_REALIZABLE_CHAR2"


@dataclass(frozen=True)
class ClassificationVerdict:
    group: GroupSpec
    fully_realizable: bool
    reason: Reason
    recipe: str | None


@dataclass(frozen=True)
class SearchReport:
    group: GroupSpec
    pool_description: str
    ideals_examined: int
    realizing_found: int
    fully_realizing_found: int
    exhaustive: bool


def classify(g: GroupSpec) -> ClassificationVerdict:
    """Full-realizability verdict for a finitely generated abelian group.

    Decided symbolically: the positives are W x H (W elementary abelian 2,
    H a subgroup of C12) and W x Cinf^n; every negative cites the specific
    obstruction, ties resolved by a fixed precedence.
    """
    c = canonicalize(g)
    n = c.infinite_rank
    # factor each distinct order once; a spec may repeat one order 10^6 times
    split = {d: prime_power_split(d) for d in set(c.finite_orders)}
    primary = [split[d] for d in c.finite_orders]
    q4 = sum(1 for f in primary if f.get(2, 0) == 2)
    s3 = sum(1 for f in primary if f.get(3, 0) == 1)
    t3 = sum(1 for f in primary if f.get(3, 0) >= 1)
    odd_order = n == 0 and all(f.get(2, 0) == 0 for f in primary)

    failure: Reason | None = None
    if any(f.get(2, 0) >= 3 for f in primary):
        failure = Reason.NOT_REALIZABLE_CHAR2
    elif odd_order and c.finite_orders not in ((), (3,)):
        failure = Reason.THM11_ODD
    elif q4 >= 2 or (q4 >= 1 and n >= 1):
        failure = Reason.C4_QUOTIENT_OBSTRUCTION
    elif s3 >= 1 and (t3 >= 2 or n >= 1):
        failure = Reason.C3_SUMMAND_OBSTRUCTION
    elif any(p >= 5 or (p == 3 and e >= 2) for f in primary for p, e in f.items()):
        failure = Reason.P_N_BOUND
    if failure is not None:
        return ClassificationVerdict(c, False, failure, None)

    w_rank = sum(1 for f in primary if f.get(2, 0) == 1)
    if n == 0:
        reason = Reason.THM11_ODD if c.finite_orders == (3,) else Reason.THM11_TORSION
        name = "a24xC3" if t3 else "a24"
        recipe = f"{name}(rank={w_rank},c4={'true' if q4 else 'false'})"
        return ClassificationVerdict(c, True, reason, recipe)
    reason = Reason.THM11_TORSION_FREE if not c.finite_orders else Reason.THM11_FG
    recipe = f"symbolic:sumc2xLaurent(rank={w_rank},n={n})"
    return ClassificationVerdict(c, True, reason, recipe)


def _vec(spec: GroupSpec, e: GroupElement) -> int:
    return 1 << element_index(spec, e)


def _pair_vector(amb: Algebra, i: int, j: int) -> int:
    """(1 + g)(1 + h) = 1 + g + h + gh in a group algebra, for the group
    elements g, h of basis indices i, j (the identity is basis 0)."""
    return 1 ^ 1 << i ^ 1 << j ^ amb.mult_table[i][j]


def _within_witness_budget(twos: int, rest: int, budget: int = DEFAULT_WITNESS_MAX_ORDER) -> None:
    """Refuse |G| = rest * 2^twos over the budget: every witness builder
    refuses here. Past 64 factors it names |G| >= 2^twos, so a huge rank
    builds no tuple or power."""
    if twos > 64:
        raise BudgetExceededError(f"|G| >= 2^{twos} exceeds budget {budget}")
    if rest << twos > budget:
        raise BudgetExceededError(f"|G| = {rest << twos} exceeds budget {budget}")


def _a24_spec(rank: int, with_c4: bool, budget: int) -> GroupSpec:
    if rank < 0:
        raise ValueError(f"rank {rank} is negative")
    _within_witness_budget(rank, 4 if with_c4 else 1, budget)
    return GroupSpec((2,) * rank + ((4,) if with_c4 else ()))


def a24_ideal(rank: int, with_c4: bool) -> Ideal:
    """The witness ideal for C2^rank (x C4), spanned by
    - the pair family (1 + x_A)(1 + x_B), over unordered pairs of distinct
      nonempty sets A, B of C2 coordinates, x_A being 1 on A and 0 elsewhere;
    - with C4 = <y>, the cross terms (1 + x_J)(1 + y^r), over nonempty J and
      r = 1..3, and 1 + y + y^2 + y^3.

    The ordered family over all sets and r = 0..3 spans the same ideal, as
    its other members are 0 or repeats: 1 + x_A = 0 for empty A and
    1 + y^0 = 0; (1 + x_A)^2 = 1 + x_A^2 = 0; and (1 + x_B)(1 + x_A) repeats
    (1 + x_A)(1 + x_B). Without the C4 factor only the pair family remains;
    its quotient has unit group C2^rank and dimension rank + 1. Refused over
    the witness budget.

    >>> a24_ideal(3, False).dim
    4
    """
    spec = _a24_spec(rank, with_c4, DEFAULT_WITNESS_MAX_ORDER)
    amb = group_algebra(spec)
    # elements(spec) is lexicographic with y last, so y^r has index r, and
    # x_A has the sum of the strides of A's coordinates, each step * 2^t:
    # the nonempty A give the nonzero multiples of step below |G|
    step = 4 if with_c4 else 1
    xs = range(step, amb.dim, step)
    gens = [_pair_vector(amb, a, b) for a, b in itertools.combinations(xs, 2)]
    if with_c4:
        gens += [_pair_vector(amb, j, r) for j in xs for r in (1, 2, 3)]
        gens.append(0b1111)
    return ideal_span(amb, gens)


def star_ideal(rank: int, with_c4: bool) -> Ideal:
    """The ideal spanned by u_1*...*u_n + u_1 + ... + u_n + n + 1 over unit
    tuples with at most one unit of order 4, for n up to 4, over at most 32
    elements (the 4-tuples over 64 elements would take minutes).

    Expected to coincide with a24_ideal at every rank; the equality is
    asserted computationally by the test suite rather than assumed.
    """
    spec = _a24_spec(rank, with_c4, 32)
    els = elements(spec)
    gens: list[int] = []
    for n in range(1, 5):
        parity = (n + 1) & 1
        for combo in itertools.combinations_with_replacement(els, n):
            if sum(1 for u in combo if element_order(spec, u) == 4) > 1:
                continue
            prod_elem = identity_element(spec)
            acc = 0
            for u in combo:
                prod_elem = add_elements(spec, prod_elem, u)
                acc ^= _vec(spec, u)
            acc ^= _vec(spec, prod_elem)
            if parity:
                acc ^= _vec(spec, identity_element(spec))
            gens.append(acc)
    return ideal_span(group_algebra(spec), gens)


def chain_ring_ideals(g: GroupSpec) -> tuple[Ideal, ...]:
    """Every ideal of F2[g], for |g| <= 16 with a cyclic 2-part: g = P x H,
    with P = C_{2^k} and H of odd order.

    Each block F2[g]e, for a primitive idempotent e (_local_decomposition),
    is local with residue degree f_e; the ideals listed are those generated
    by the e*s^j_e, one j_e in 0..2^k per block, in itertools.product order,
    with s = 1 + y for a generator y of P (s = 0 for odd g, where y = 1).
    For C_{2^k}, e = 1: the ideals ((x+1)^j).

    Completeness is not assumed: a structural certificate, checked on the
    dimensions of the listed ideals, proves that no other ideal exists.

    >>> len(chain_ring_ideals(GroupSpec((12,))))
    25
    """
    order_within(g, 16, "the search bound 16")
    evens = [d for d in g.finite_orders if d % 2 == 0]
    if len(evens) > 1:
        raise GroupSyntaxError("chain pool needs a group whose 2-part is cyclic")
    amb = group_algebra(g)
    size = evens[0] & -evens[0] if evens else 1  # |P|
    # y has order |P| in the even factor; for odd g it is the identity
    s = amb.one_vector ^ _vec(g, tuple(d // size if d % 2 == 0 else 0 for d in g.finite_orders))
    blocks = [(images[0], f) for images, _, f in _local_decomposition(amb)[1]]  # e*1 = e
    vectors = list(itertools.product(range(size + 1), repeat=len(blocks)))
    ideals = tuple(ideal_span(amb, [amb.mul(e, amb.power(s, j)) for (e, _), j in zip(blocks, js)])
                   for js in vectors)

    # Certificate: dim = sum f_e (2^k - j_e) for every listed ideal. With
    # j = 2^k on the other blocks, the ideal (e s^j) of the block A_e =
    # F2[g]e has dimension f_e (2^k - j), j = 0..2^k. So dim A_e = 2^k f_e,
    # and (e s), nilpotent as s^(2^k) = 1 + y^(2^k) = 0, has dimension
    # dim A_e - f_e = dim N*e: it is N*e, and A_e/(e s) is the residue
    # field. An element of A_e outside (e s) is then a unit of the local
    # ring A_e. An x in (e s^v) but not in (e s^(v+1)) is e s^v times
    # such a unit, so it generates (e s^v). Any ideal of A_e is thus (e s^v)
    # for the minimal valuation v of its elements, and an ideal I of F2[g]
    # is the sum of its parts Ie, as the e sum to 1. So the list is
    # complete, and the dimensions of the Ie show its ideals are distinct.
    for ideal, js in zip(ideals, vectors):
        if ideal.dim != sum(f * (size - j) for (_, f), j in zip(blocks, js)):
            raise FuchslabError(f"block ideals of F2[{g}] have unexpected dimensions")
    return ideals


def construct_witness(g: GroupSpec) -> QuotientRing:
    """A quotient ring that fully realizes g, for positive finite verdicts.

    F2[W'] modulo a24_ideal, where W' is the W x C4 part of g. With a C3
    summand the ring is the subring of (F2[W']/a24) x F4 generated by the
    images (coset, 1) of W' and (1, t) of the C3 generator, presented over
    W' x C3 by present_over; its parent_group is that concatenated
    presentation.
    """
    verdict = classify(g)
    if not verdict.fully_realizable:
        raise NotRealizableError(f"{verdict.group} is not fully realizable ({verdict.reason.value})")
    c = verdict.group
    if not c.is_finite:
        raise InfiniteGroupError(f"witness for {c} is symbolic-only")
    # a positive finite group is C2^rank, times C4 and C3 at most once each
    rank = sum(d % 4 == 2 for d in c.finite_orders)
    with_c4 = any(d % 4 == 0 for d in c.finite_orders)
    with_c3 = any(d % 3 == 0 for d in c.finite_orders)
    _within_witness_budget(rank, (4 if with_c4 else 1) * (3 if with_c3 else 1))
    ideal = a24_ideal(rank, with_c4)
    w = ideal.ambient.group
    w_ring = QuotientRing(ideal)
    if not with_c3:
        return w_ring
    comps = [w_ring.quotient_algebra, field_algebra(2)]
    gens = [tuple(int(t == j) for t in range(w.rank)) for j in range(w.rank)]
    images = [product_element(comps, [w_ring.group_image[element_index(w, e)], 1]) for e in gens]
    images.append(product_element(comps, [w_ring.quotient_algebra.one_vector, 0b10]))
    return present_over(GroupSpec(w.finite_orders + (3,)), product_algebra(comps), images)


_RECIPE_RE = re.compile(r"([A-Za-z0-9]+)\(([^()]*)\)")
_RECIPE_KEYS = {"a24": ("rank", "c4"), "a24xC3": ("rank", "c4"), "chain": ("k", "j")}


def _recipe_args(name: str, raw: str) -> dict[str, str]:
    args: dict[str, str] = {}
    if raw.strip():
        for item in raw.split(","):
            key, _, value = map(str.strip, item.partition("="))
            if not value:
                raise GroupSyntaxError(f"bad recipe argument {item!r}")
            if key not in _RECIPE_KEYS[name]:
                raise GroupSyntaxError(f"recipe {name} takes no argument {key!r}")
            if key in args:
                raise GroupSyntaxError(f"recipe argument {key!r} is given twice")
            args[key] = value
    return args


def _int_arg(args: dict[str, str], key: str) -> int:
    value = args[key]
    try:
        return int(value)
    except ValueError:
        raise GroupSyntaxError(f"recipe argument {key}={value!r} is not an integer") from None


def ring_from_recipe(recipe: str) -> tuple[GroupSpec, QuotientRing]:
    """Materialize a witness ring from its machine-readable recipe string,
    e.g. "a24(rank=2,c4=true)", "a24xC3(rank=1,c4=false)", "chain(k=2,j=3)"."""
    m = _RECIPE_RE.fullmatch(recipe.strip())
    if m is None or m.group(1) not in _RECIPE_KEYS:
        raise GroupSyntaxError(f"unknown recipe string {recipe!r}")
    name, args = m.group(1), _recipe_args(m.group(1), m.group(2))
    try:
        if name == "chain":
            k, j = _int_arg(args, "k"), _int_arg(args, "j")
            if k < 1:
                raise GroupSyntaxError(f"chain exponent k={k} is below 1")
            if k > 4:  # before 2**k is built
                raise BudgetExceededError(f"chain sweep supports k in 1..4, got {k}")
            spec = GroupSpec((2**k,))
            ideals = chain_ring_ideals(spec)
            if not 1 <= j <= 2**k:
                raise GroupSyntaxError(f"chain power j={j} outside 1..{2**k}")
            return spec, QuotientRing(ideals[j])
        rank = _int_arg(args, "rank")
    except KeyError as exc:
        raise GroupSyntaxError(f"recipe {recipe!r} is missing argument {exc}") from exc
    c4 = args.get("c4", "false")
    if c4 not in ("true", "false"):
        raise GroupSyntaxError(f"recipe argument c4={c4!r} must be true or false")
    if rank < 0:
        raise GroupSyntaxError(f"recipe argument rank={rank} is negative")
    rest = ((4,) if c4 == "true" else ()) + ((3,) if name == "a24xC3" else ())
    _within_witness_budget(rank, prod(rest))  # before the tuple of rank factors is built
    spec = canonicalize(GroupSpec((2,) * rank + rest))
    return spec, construct_witness(spec)


def _default_pool(amb: Algebra) -> list[int]:
    pool: list[int] = []
    seen: set[int] = set()
    for i in range(1, amb.dim):
        for j in range(i, amb.dim):
            v = _pair_vector(amb, i, j)
            if v and v not in seen:
                seen.add(v)
                pool.append(v)
    for i in range(1, amb.dim):
        w = amb.one_vector ^ 1 << i
        power = w
        walked: set[int] = set()
        while power and power not in walked:
            if power not in seen:
                seen.add(power)
                pool.append(power)
            walked.add(power)
            power = amb.mul(power, w)
    return pool


def _join(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """RREF basis of the sum of two ideals given by their RREF bases.

    A sum of ideals is an ideal, so the span needs no multiplication
    closure: the smaller basis is inserted into the larger, already in RREF.
    """
    if len(x) < len(y):
        x, y = y, x
    return gf2.rref(y, x)


def _subset_ideals(amb: Algebra, pool: list[int], budget: int):
    # In a commutative ring the ideal a subset generates is the sum of the
    # principal ideals of its members: the ideal of its prefix plus the
    # principal ideal of its last member. Consecutive subsets share most of
    # their prefix, and many prefixes and members span the same few ideals.
    # So each distinct ideal is interned as a small id by its RREF basis, id
    # 0 being the zero ideal, and each sum is formed once per unordered pair
    # of ids, on bases: only the ideals yielded are wrapped as Ideal objects.
    # Larger subsets mostly regenerate the same few big ideals, so the
    # subsets taken are capped alongside the distinct-ideal budget.
    bases: list[tuple[int, ...]] = [()]
    ids = {(): 0}

    def intern(basis: tuple[int, ...]) -> int:
        if basis not in ids:
            ids[basis] = len(bases)
            bases.append(basis)
        return ids[basis]

    principal = [intern(ideal_span(amb, [v]).rref_basis) for v in pool]
    sums: dict[tuple[int, int], int] = {}

    def plus(x: int, y: int) -> int:
        key = (x, y) if x < y else (y, x)
        total = sums.get(key)
        if total is None:
            total = sums[key] = intern(_join(bases[x], bases[y]))
        return total

    yielded: set[int] = set()
    work_cap = max(8 * budget, 512)
    for size in range(1, len(pool) + 1):
        if len(yielded) >= budget or work_cap <= 0:
            return
        before = len(yielded)
        # chain[m] is the id of the ideal of the current subset's first m members
        chain = [0] * (size + 1)
        last = (-1,) * size
        for combo in itertools.combinations(range(len(pool)), size):
            work_cap -= 1
            m = 0
            while combo[m] == last[m]:
                m += 1
            for j in range(m, size):
                chain[j + 1] = plus(chain[j], principal[combo[j]])
            last = combo
            ideal = chain[size]
            if ideal not in yielded:
                yielded.add(ideal)
                yield _trusted(Ideal, ambient=amb, rref_basis=bases[ideal])
            if len(yielded) >= budget or work_cap <= 0:
                return
        # A level that adds nothing ends the search. For a subset C u {i} of
        # the next size, this level gave sum(C) = sum(D) for a smaller D, so
        # sum(C u {i}) = sum(D) + p_i = sum(D u {i}), and D u {i} is no larger
        # than C. The next level adds nothing either, nor any after it.
        if len(yielded) == before:
            return


POOLS = ("default", "chain")


def bounded_ideal_search(g: GroupSpec, pool: str = "default", budget: int = 256) -> SearchReport:
    """Sweep ideals from the selected pool, quotient the admissible ones, and
    count how many realize / fully realize g. Exhaustive only for the chain
    pool, on a group whose 2-part is cyclic, when the budget covers its
    ideal list, which chain_ring_ideals proves complete.

    A quotient realizes g when its units are exactly the image of G, which
    units_are_group decides by counting them. It fully realizes g when
    every endomorphism lifts, which every_endo_lifts decides with a walk
    that stops at the first failure. The bound |G| <= 16 keeps
    |End(G)| <= 65,536 inside the default endomorphism budget.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} is below 1")
    c = canonicalize(g)
    if not c.is_finite:
        raise InfiniteGroupError("searches need a finite group")
    order = order_within(c, 16, "the search bound 16")
    amb = group_algebra(c)

    exhaustive = False
    if pool == "default":
        stream = _subset_ideals(amb, _default_pool(amb), budget)
        description = "default[(1+g)(1+h), (1+g)^j subsets]"
    elif pool == "chain":
        ideals = chain_ring_ideals(c)
        stream = ideals[:budget]
        exhaustive = budget >= len(ideals)
        # a 2-group is one block, e = 1; any other group has a block per e
        two_group = order & (order - 1) == 0
        description = "chain[(x+1)^j]" if two_group else "chain[e(x+1)^j per block]"
    else:
        raise GroupSyntaxError(f"unknown pool {pool!r}; choose from {POOLS}")

    examined = realizing = fully = 0
    for ideal in stream:
        examined += 1
        if ideal.contains(amb.one_vector) or (1 << (amb.dim - ideal.dim)) - 1 < order:
            continue
        q = QuotientRing(ideal)
        # No check of the unit group's invariants is needed: the projection
        # is a ring map, so on G it is a group homomorphism into the units,
        # and one-to-one and onto them it makes them isomorphic to G.
        if not q.units_are_group:
            continue
        realizing += 1
        fully += every_endo_lifts(ideal)
    return SearchReport(
        group=c,
        pool_description=description,
        ideals_examined=examined,
        realizing_found=realizing,
        fully_realizing_found=fully,
        exhaustive=exhaustive,
    )
