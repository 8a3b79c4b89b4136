"""Finite-dimensional GF(2) algebras and their unit groups.

An Algebra is a basis, a multiplication table of GF(2) vectors, and the
vector representing 1. Elements are bit-packed ints (see gf2). Group
algebras, finite fields and products are built here, together with ideals
in canonical RREF form, quotients, unit detection and unit-group structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from . import gf2
from .errors import (
    BudgetExceededError,
    FuchslabError,
    InfiniteGroupError,
    OrderMismatchError,
    ZeroRingError,
)
from .groups import (
    GroupElement,
    GroupSpec,
    canonicalize,
    elements,
    prime_power_split,
)

AlgebraElement = int

DEFAULT_UNIT_BUDGET_DIM = 24

_VALIDATE_DIM_LIMIT = 64


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls, built without __post_init__.

    Only for objects valid by construction: the public constructors stay the
    place where outside input is checked.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class Algebra:
    """A commutative unital GF(2) algebra given by structure constants.

    mult_table[i][j] is the product of basis elements i and j, expressed in
    the basis as a bit-packed vector. Ring axioms are checked exhaustively
    on basis pairs/triples at construction for dim <= 64.
    """

    dim: int
    basis_labels: tuple[str, ...]
    mult_table: tuple[tuple[int, ...], ...]
    one_vector: int
    group: GroupSpec | None = None  # the group whose elements() index the basis

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("algebras here are unital, so dim >= 1")
        if len(self.basis_labels) != self.dim or len(self.mult_table) != self.dim:
            raise ValueError("basis labels and multiplication table must match dim")
        mask = (1 << self.dim) - 1
        if any(len(row) != self.dim for row in self.mult_table):
            raise ValueError("multiplication table must be dim x dim")
        if any(entry & ~mask for row in self.mult_table for entry in row):
            raise ValueError("table entry outside the algebra")
        if not 0 < self.one_vector <= mask:
            raise ValueError("one_vector must be a nonzero vector in the algebra")
        if self.group is not None and (not self.group.is_finite or self.group.torsion_order != self.dim):
            raise ValueError("a group basis needs one basis vector per group element")
        if self.dim <= _VALIDATE_DIM_LIMIT:
            self._validate_axioms()

    def _validate_axioms(self) -> None:
        table = self.mult_table
        for j in range(self.dim):
            b = 1 << j
            if self.mul(self.one_vector, b) != b or self.mul(b, self.one_vector) != b:
                raise ValueError("one_vector is not a two-sided identity")
        for i in range(self.dim):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError(f"table is not commutative at ({i},{j})")
        if all(entry.bit_count() == 1 for row in table for entry in row):
            # monomial table: associativity reduces to index arithmetic
            logs = [[entry.bit_length() - 1 for entry in row] for row in table]
            for i in range(self.dim):
                for j in range(self.dim):
                    lij = logs[i][j]
                    row_i = logs[i]
                    row_lij = logs[lij]
                    lj = logs[j]
                    for k in range(self.dim):
                        if row_lij[k] != row_i[lj[k]]:
                            raise ValueError(f"not associative at ({i},{j},{k})")
        else:
            for i in range(self.dim):
                for j in range(self.dim):
                    ij = table[i][j]
                    for k in range(self.dim):
                        if self.mul(ij, 1 << k) != self.mul(1 << i, table[j][k]):
                            raise ValueError(f"not associative at ({i},{j},{k})")

    def mul(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Product of two bit-packed elements."""
        acc = 0
        table = self.mult_table
        for i in gf2.bits(u):
            row = table[i]
            for j in gf2.bits(v):
                acc ^= row[j]
        return acc

    def power(self, u: AlgebraElement, n: int) -> AlgebraElement:
        """u**n for n >= 0, by squaring."""
        result = self.one_vector
        base = u
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def element_label(self, e: AlgebraElement) -> str:
        if e == 0:
            return "0"
        return " + ".join(self.basis_labels[i] for i in gf2.bits(e))


def _monomial_label(names: list[str], exps: GroupElement) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(names, exps)
        if e
    ]
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=64)
def group_algebra(g: GroupSpec) -> Algebra:
    """The group algebra of a finite abelian group over GF(2).

    Basis indexed by elements(g) in lexicographic order, so the identity is
    basis 0 and the table realizes the group product. The algebra carries g:
    ideals of it belong to this presentation and no other.
    """
    if not g.is_finite:
        raise InfiniteGroupError(f"group algebra of {g} is not materialized")
    els = elements(g)
    index = {e: i for i, e in enumerate(els)}
    names = ["x"] if g.rank == 1 else [f"x{j + 1}" for j in range(g.rank)]
    labels = tuple(_monomial_label(names, e) for e in els)
    orders = g.finite_orders
    table = tuple(
        tuple(
            1 << index[tuple((a + b) % d for a, b, d in zip(ea, eb, orders))]
            for eb in els
        )
        for ea in els
    )
    return Algebra(len(els), labels, table, 1, group=g)


def _poly_mod(a: int, b: int) -> int:
    """Remainder of GF(2)[t] division, polynomials as bit-packed ints."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _is_irreducible(poly: int, degree: int) -> bool:
    return all(
        _poly_mod(poly, q) != 0 for q in range(2, 1 << (degree // 2 + 1))
    )


def field_algebra(k: int) -> Algebra:
    """The field with 2**k elements, from the lexicographically smallest
    irreducible polynomial of degree k (coefficient of t^i in bit i)."""
    if not 1 <= k <= 8:
        raise BudgetExceededError(f"field degree {k} outside 1..8")
    poly = next(p for p in range(1 << k, 1 << (k + 1)) if _is_irreducible(p, k))
    mask = (1 << k) - 1
    powers = [1]
    for _ in range(2 * k - 2):
        nxt = powers[-1] << 1
        if nxt >> k:
            nxt = (nxt ^ poly) & mask
        powers.append(nxt)
    labels = tuple("1" if i == 0 else ("t" if i == 1 else f"t^{i}") for i in range(k))
    table = tuple(tuple(powers[i + j] for j in range(k)) for i in range(k))
    return Algebra(k, labels, table, 1)


def product_algebra(factors: list[Algebra] | tuple[Algebra, ...]) -> Algebra:
    """Direct product with componentwise multiplication."""
    if not factors:
        raise ValueError("product of no algebras")
    if len(factors) == 1:
        return factors[0]
    dim = sum(f.dim for f in factors)
    offsets = list(itertools.accumulate((f.dim for f in factors), initial=0))
    labels: list[str] = []
    table = [[0] * dim for _ in range(dim)]
    one = 0
    for t, f in enumerate(factors):
        o = offsets[t]
        labels.extend(f"{t}:{lab}" for lab in f.basis_labels)
        one |= f.one_vector << o
        for i in range(f.dim):
            for j in range(f.dim):
                table[o + i][o + j] = f.mult_table[i][j] << o
    return Algebra(dim, tuple(labels), tuple(tuple(row) for row in table), one)


def product_element(factors: list[Algebra] | tuple[Algebra, ...], components: list[int]) -> AlgebraElement:
    """Assemble an element of product_algebra(factors) from per-factor parts."""
    if len(components) != len(factors):
        raise ValueError("one component per factor")
    acc = 0
    offset = 0
    for f, c in zip(factors, components):
        acc |= c << offset
        offset += f.dim
    return acc


@dataclass(frozen=True, eq=False)
class Ideal:
    """A multiplication-closed GF(2) subspace in canonical RREF form."""

    ambient: Algebra
    rref_basis: tuple[int, ...]

    def __post_init__(self) -> None:
        if gf2.rref(self.rref_basis) != self.rref_basis:
            raise ValueError("basis is not in canonical reduced row-echelon form")
        amb = self.ambient
        for b in range(amb.dim):
            basis_vec = 1 << b
            for v in self.rref_basis:
                if not self.contains(amb.mul(basis_vec, v)):
                    raise ValueError("subspace is not closed under multiplication")

    @property
    def dim(self) -> int:
        return len(self.rref_basis)

    def contains(self, v: AlgebraElement) -> bool:
        return gf2.reduce_vector(v, self.rref_basis) == 0

    def reduce(self, v: AlgebraElement) -> AlgebraElement:
        return gf2.reduce_vector(v, self.rref_basis)


def ideal_span(a: Algebra, generators: list[AlgebraElement] | tuple[AlgebraElement, ...]) -> Ideal:
    """Smallest ideal of `a` containing the generators, in one pass.

    In a commutative unital algebra the ideal generated by v is
    A*v = span{b*v} over the basis b: it contains v = 1*v, and
    a*(b*v) = (a*b)*v stays inside it. So the products of the basis with
    the generators span the ideal, with no closure loop.
    """
    gens = tuple(g for g in generators if g)
    span = gf2.rref(a.mul(1 << b, v) for b in range(a.dim) for v in gens)
    # closed under multiplication and in canonical RREF form by construction
    return _trusted(Ideal, ambient=a, rref_basis=span)


def ideal_sum(ideals: list[Ideal] | tuple[Ideal, ...]) -> Ideal:
    """The sum of one or more ideals of the same algebra.

    A sum of ideals is an ideal, so the RREF span of their bases needs no
    multiplication closure and no revalidation.
    """
    if not ideals or any(i.ambient is not ideals[0].ambient for i in ideals):
        raise ValueError("ideal_sum needs one or more ideals of the same algebra")
    span = gf2.rref(v for i in ideals for v in i.rref_basis)
    return _trusted(Ideal, ambient=ideals[0].ambient, rref_basis=span)


def is_unit(a: Algebra, e: AlgebraElement) -> bool:
    """True iff the multiplication-by-e matrix is invertible over GF(2)."""
    pivots: dict[int, int] = {}
    for j in range(a.dim):
        col = a.mul(e, 1 << j)
        while col:
            p = gf2.lowest_bit(col)
            row = pivots.get(p)
            if row is None:
                pivots[p] = col
                break
            col ^= row
        if col == 0:
            return False
    return True


def find_inverse(a: Algebra, e: AlgebraElement) -> AlgebraElement | None:
    """Inverse of e, or None, by walking powers of e until they repeat.

    In a finite commutative ring e is a unit iff some power e**k equals 1,
    and then e**(k-1) is the inverse. Independent of the matrix-rank path,
    so it doubles as a test oracle for is_unit.
    """
    seen: set[int] = set()
    prev = a.one_vector
    cur = e
    while cur not in seen:
        if cur == a.one_vector:
            return prev
        seen.add(cur)
        prev = cur
        cur = a.mul(cur, e)
    return None


def multiplicative_order(a: Algebra, u: AlgebraElement) -> int:
    """Order of a unit u in the unit group."""
    k = 1
    cur = u
    limit = 1 << a.dim
    while cur != a.one_vector:
        cur = a.mul(cur, u)
        k += 1
        if k > limit:
            raise FuchslabError(f"{a.element_label(u)} is not a unit")
    return k


def units(a: Algebra, *, budget_dim: int = DEFAULT_UNIT_BUDGET_DIM,
          cap: int | None = None) -> frozenset[AlgebraElement] | None:
    """All invertible elements, by exhaustive scan over 2**dim elements.

    With a cap, the scan is abandoned and None returned as soon as more than
    `cap` units are found.
    """
    if a.dim > budget_dim:
        raise BudgetExceededError(
            f"unit enumeration over 2^{a.dim} elements exceeds the dim <= {budget_dim} budget"
        )
    found: list[int] = []
    for e in range(1, 1 << a.dim):
        if is_unit(a, e):
            found.append(e)
            if cap is not None and len(found) > cap:
                return None
    return frozenset(found)


def invariants_from_units(a: Algebra, unit_set: frozenset[AlgebraElement]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian unit group from order statistics.

    Counts of elements of order dividing p^k determine the p-Sylow cyclic
    decomposition; the prime-power pieces are then merged with the same CRT
    regrouping used for group specs.
    """
    n = len(unit_set)
    if n == 1:
        return ()
    pieces: list[int] = []
    for p, emax in prime_power_split(n).items():
        hist = [0] * (emax + 1)
        for u in unit_set:
            cur = u
            k = 0
            while k <= emax and cur != a.one_vector:
                cur = a.power(cur, p)
                k += 1
            if k <= emax:
                hist[k] += 1
        counts = list(itertools.accumulate(hist))
        logs = []
        for c in counts:
            e = 0
            while p**e < c:
                e += 1
            if p**e != c:
                raise FuchslabError("unit order statistics are not those of an abelian group")
            logs.append(e)
        at_least = [logs[k] - logs[k - 1] for k in range(1, emax + 1)]
        for i in range(1, at_least[0] + 1):
            exponent = sum(1 for m in at_least if m >= i)
            pieces.append(p**exponent)
    if prod(pieces) != n:
        raise FuchslabError("unit order statistics are not those of an abelian group")
    return canonicalize(GroupSpec(tuple(pieces))).finite_orders


def unit_group_invariants(a: Algebra, *, budget_dim: int = DEFAULT_UNIT_BUDGET_DIM) -> tuple[int, ...]:
    """Invariant factors of the unit group of `a`."""
    return invariants_from_units(a, units(a, budget_dim=budget_dim))


def augmentation(g: GroupSpec, e: AlgebraElement) -> int:
    """Coordinate sum of e in F2[g]: the ring map sending every group
    element to 1. Its kernel is spanned by the vectors 1 + g."""
    if not g.is_finite:
        raise InfiniteGroupError("augmentation is evaluated on materialized group algebras")
    if e >> g.torsion_order:
        raise ValueError("element does not live in the group algebra")
    return e.bit_count() & 1


class QuotientRing:
    """F2[G]/I on the non-pivot coordinates of the ideal's RREF basis.

    The projection is a ring homomorphism; `group_image[i]` is the coset of
    the i-th group element. `unit_elements` and `unit_to_group` are computed
    on first use: the latter is populated only when the projection is
    injective on G and the image is exactly the unit set, in which case it
    is a group isomorphism from the units onto G.
    """

    def __init__(self, parent_group: GroupSpec, ideal: Ideal,
                 *, unit_budget_dim: int = DEFAULT_UNIT_BUDGET_DIM) -> None:
        amb = ideal.ambient
        if amb.group != parent_group:
            raise ValueError("ideal does not live in the group algebra of the parent group")
        if ideal.contains(amb.one_vector):
            raise ZeroRingError("1 lies in the ideal; the quotient is the zero ring")
        self.parent_group = parent_group
        self.ideal = ideal
        self._unit_budget_dim = unit_budget_dim
        pivots = {gf2.lowest_bit(row) for row in ideal.rref_basis}
        self._nonpivot = tuple(c for c in range(amb.dim) if c not in pivots)
        self._coord_of = {c: i for i, c in enumerate(self._nonpivot)}
        qdim = len(self._nonpivot)
        labels = tuple(amb.basis_labels[c] for c in self._nonpivot)
        table = tuple(
            tuple(
                self.project(amb.mul(1 << self._nonpivot[i], 1 << self._nonpivot[j]))
                for j in range(qdim)
            )
            for i in range(qdim)
        )
        # a quotient of a commutative unital algebra by a proper ideal
        # satisfies the ring axioms, so they are not checked again
        self.quotient_algebra = _trusted(
            Algebra, dim=qdim, basis_labels=labels, mult_table=table,
            one_vector=self.project(amb.one_vector), group=None,
        )
        self.group_image = tuple(self.project(1 << i) for i in range(amb.dim))

    def project(self, v: AlgebraElement) -> AlgebraElement:
        """Coset of an ambient element, in quotient coordinates."""
        reduced = self.ideal.reduce(v)
        acc = 0
        for b in gf2.bits(reduced):
            acc |= 1 << self._coord_of[b]
        return acc

    @property
    def dim(self) -> int:
        return self.quotient_algebra.dim

    @property
    def unit_elements(self) -> frozenset[AlgebraElement]:
        cached = getattr(self, "_unit_elements", None)
        if cached is None:
            cached = units(self.quotient_algebra, budget_dim=self._unit_budget_dim)
            self._unit_elements = cached
        return cached

    @property
    def unit_to_group(self) -> dict[AlgebraElement, GroupElement] | None:
        """The package's one test that the units are exactly the image of G."""
        if not hasattr(self, "_unit_to_group"):
            els = elements(self.parent_group)
            # more units than group elements already rules out equality
            found = units(self.quotient_algebra, budget_dim=self._unit_budget_dim, cap=len(els))
            if found is not None:
                self._unit_elements = found
            image = dict(zip(self.group_image, els))
            ok = found is not None and len(image) == len(els) and set(image) == found
            self._unit_to_group = image if ok else None
        return self._unit_to_group

    def unit_group_invariants(self) -> tuple[int, ...]:
        return invariants_from_units(self.quotient_algebra, self.unit_elements)


def quotient(g: GroupSpec, i: Ideal, *, unit_budget_dim: int = DEFAULT_UNIT_BUDGET_DIM) -> QuotientRing:
    """The quotient of F2[g] by an ideal; raises ZeroRingError if 1 lies in it."""
    return QuotientRing(g, i, unit_budget_dim=unit_budget_dim)


def unit_embedding_kernel(g: GroupSpec, target: Algebra, images: list[AlgebraElement]) -> Ideal:
    """Kernel of the ring map F2[g] -> target sending generator j to images[j].

    The images must be units whose multiplicative orders divide the matching
    factor orders. The map is surjective iff |G| - kernel dim = target dim.
    """
    return Ideal(group_algebra(g), unit_embedding_basis(g, target, images))


def unit_embedding_basis(g: GroupSpec, target: Algebra,
                         images: list[AlgebraElement]) -> tuple[int, ...]:
    """The RREF basis of unit_embedding_kernel, with the same checks on the
    images but none on the basis: a caller that drops duplicate kernels
    validates only the new ones."""
    if not g.is_finite:
        raise InfiniteGroupError("unit embeddings are materialized for finite groups only")
    if len(images) != g.rank:
        raise OrderMismatchError("one unit image per group generator required")
    for d, u in zip(g.finite_orders, images):
        if not is_unit(target, u):
            raise OrderMismatchError(f"image {target.element_label(u)} is not a unit")
        if target.power(u, d) != target.one_vector:
            raise OrderMismatchError(
                f"unit {target.element_label(u)} does not have order dividing {d}"
            )
    pows = [
        [target.power(u, t) for t in range(d)]
        for d, u in zip(g.finite_orders, images)
    ]
    elem_images = []
    for e in elements(g):
        acc = target.one_vector
        for j, t in enumerate(e):
            acc = target.mul(acc, pows[j][t])
        elem_images.append(acc)
    return gf2.kernel_of_images(elem_images, target.dim)


def present_over(g: GroupSpec, target: Algebra, images: list[AlgebraElement],
                 *, unit_budget_dim: int = DEFAULT_UNIT_BUDGET_DIM) -> QuotientRing:
    """Present the subring of `target` generated by unit images of g as a
    quotient of F2[g]. This is the standard route for running realizability
    reports against rings that are not given as group-algebra quotients."""
    return quotient(g, unit_embedding_kernel(g, target, images), unit_budget_dim=unit_budget_dim)


def subring_span(a: Algebra, subset: list[AlgebraElement] | tuple[AlgebraElement, ...]) -> tuple[int, ...]:
    """RREF basis of the smallest subalgebra containing 1 and the subset."""
    span = gf2.rref([a.one_vector, *subset])
    while True:
        products = [a.mul(v, w) for v in span for w in span]
        closed = gf2.rref(list(span) + products)
        if closed == span:
            break
        span = closed
    return span


def subring_generated(a: Algebra, subset: list[AlgebraElement] | tuple[AlgebraElement, ...]) -> Algebra:
    """The subalgebra generated by 1 and `subset`, with induced multiplication.

    Basis vectors are the RREF rows of subring_span; coordinates of a product
    in that basis are read off its pivot bits.
    """
    span = subring_span(a, subset)
    table = []
    for v in span:
        row = []
        for w in span:
            coords = gf2.express_in_rref(a.mul(v, w), span)
            assert coords is not None  # span is multiplication-closed
            row.append(coords)
        table.append(tuple(row))
    one = gf2.express_in_rref(a.one_vector, span)
    assert one is not None
    labels = tuple(f"s{i}" for i in range(len(span)))
    return Algebra(len(span), labels, tuple(table), one)
