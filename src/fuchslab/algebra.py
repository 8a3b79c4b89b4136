"""Finite-dimensional GF(2) algebras and their unit groups.

An Algebra is its multiplication table of GF(2) vectors, the vector
representing 1, and, for a group algebra, the group whose elements index
the basis. Elements are bit-packed ints (see gf2). Group
algebras, finite fields and products are built here, together with ideals
in canonical RREF form, quotients, rings generated by unit images
(present_over), unit detection, unit counting and unit-group structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import prod
from operator import xor

from . import gf2
from .errors import (
    BudgetExceededError,
    FuchslabError,
    InfiniteGroupError,
    OrderMismatchError,
    ZeroRingError,
)
from .groups import GroupSpec, canonicalize

AlgebraElement = int

DEFAULT_UNIT_BUDGET_DIM = 24


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
    on basis pairs/triples at construction, except for a group algebra,
    whose table must be its group's Cayley table.
    """

    mult_table: tuple[tuple[int, ...], ...]
    one_vector: int
    group: GroupSpec | None = None  # the group whose elements() index the basis

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("algebras here are unital, so dim >= 1")
        mask = (1 << self.dim) - 1
        if any(len(row) != self.dim for row in self.mult_table):
            raise ValueError("multiplication table must be dim x dim")
        if any(entry & ~mask for row in self.mult_table for entry in row):
            raise ValueError("table entry outside the algebra")
        if not 0 < self.one_vector <= mask:
            raise ValueError("one_vector must be a nonzero vector in the algebra")
        if self.group is not None:
            if not self.group.is_finite or self.group.torsion_order != self.dim:
                raise ValueError("a group basis needs one basis vector per group element")
            # QuotientRing and the lift test read each entry as a group
            # product; a Cayley table is commutative and associative, with
            # basis vector 0, the identity element, as its identity
            if self.mult_table != _cayley_table(self.group):
                raise ValueError(f"table is not the Cayley table of {self.group}")
            if self.one_vector != 1:
                raise ValueError("the identity of a group algebra is basis vector 0")
        else:
            self._validate_axioms()

    @property
    def dim(self) -> int:
        return len(self.mult_table)

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
        base = _element_of(self, u)
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result


def _cayley_table(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is the basis vector of the product of the i-th and j-th
    elements of g, in the lexicographic order of elements(g).

    That order puts the last factor fastest, so the index table of g x C_d
    is the one of g with each index s spread to s*d + (x + y) mod d.
    """
    sums = [[0]]
    for d in g.finite_orders:
        sums = [[s * d + (x + y) % d for s in row for y in range(d)]
                for row in sums for x in range(d)]
    return tuple(tuple(1 << s for s in row) for row in sums)


@lru_cache(maxsize=64)
def group_algebra(g: GroupSpec) -> Algebra:
    """The group algebra of a finite abelian group over GF(2).

    Basis indexed by elements(g) in lexicographic order, so the identity is
    basis 0 and the table realizes the group product. The algebra carries g:
    ideals of it belong to this presentation and no other.
    """
    if not g.is_finite:
        raise InfiniteGroupError(f"group algebra of {g} is not materialized")
    # the Cayley table is what Algebra(..., group=g) would build to compare with
    return _trusted(Algebra, mult_table=_cayley_table(g), one_vector=1, group=g)


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
    table = tuple(tuple(powers[i + j] for j in range(k)) for i in range(k))
    # F2[t]/(poly) with poly irreducible is a field, so the axioms hold
    return _trusted(Algebra, mult_table=table, one_vector=1, group=None)


def product_algebra(factors: list[Algebra] | tuple[Algebra, ...]) -> Algebra:
    """Direct product with componentwise multiplication."""
    if not factors:
        raise ValueError("product of no algebras")
    if len(factors) == 1:
        return factors[0]
    dim = sum(f.dim for f in factors)
    offsets = list(itertools.accumulate((f.dim for f in factors), initial=0))
    table = [[0] * dim for _ in range(dim)]
    one = 0
    for t, f in enumerate(factors):
        o = offsets[t]
        one |= f.one_vector << o
        for i in range(f.dim):
            for j in range(f.dim):
                table[o + i][o + j] = f.mult_table[i][j] << o
    # a product of valid algebras is valid, so the axioms are not checked again
    return _trusted(Algebra, mult_table=tuple(tuple(row) for row in table),
                    one_vector=one, group=None)


def product_element(factors: list[Algebra] | tuple[Algebra, ...], components: list[int]) -> AlgebraElement:
    """Assemble an element of product_algebra(factors) from per-factor parts."""
    if len(components) != len(factors):
        raise ValueError("one component per factor")
    acc = 0
    offset = 0
    for f, c in zip(factors, components):
        if not 0 <= c < 1 << f.dim:
            raise ValueError(f"component {c:#b} lies outside its factor of dim {f.dim}")
        acc |= c << offset
        offset += f.dim
    return acc


@dataclass(frozen=True, eq=False)
class Ideal:
    """A multiplication-closed GF(2) subspace in canonical RREF form."""

    ambient: Algebra
    rref_basis: tuple[int, ...]

    def __post_init__(self) -> None:
        amb = self.ambient
        if any(v < 0 or v >> amb.dim for v in self.rref_basis):
            raise ValueError("basis vector lies outside the ambient algebra")
        if gf2.rref(self.rref_basis) != self.rref_basis:
            raise ValueError("basis is not in canonical reduced row-echelon form")
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
    supports = [tuple(gf2.bits(v)) for v in generators if v]

    def products():  # b*v is row b of the table summed over v's support
        for support in supports:
            for row in a.mult_table:
                acc = 0
                for j in support:
                    acc ^= row[j]
                yield acc

    span = gf2.rref(products())
    # closed under multiplication and in canonical RREF form by construction
    return _trusted(Ideal, ambient=a, rref_basis=span)


def _element_of(a: Algebra, e: AlgebraElement) -> AlgebraElement:
    """e, refused unless it is an element of `a`; Algebra.mul does not check."""
    if e < 0 or e >> a.dim:
        raise ValueError(f"{e:#b} is not an element of the dim-{a.dim} algebra")
    return e


def is_unit(a: Algebra, e: AlgebraElement) -> bool:
    """True iff the multiplication-by-e matrix is invertible over GF(2)."""
    _element_of(a, e)
    return len(gf2.rref(a.mul(e, 1 << j) for j in range(a.dim))) == a.dim


def find_inverse(a: Algebra, e: AlgebraElement) -> AlgebraElement | None:
    """Inverse of e, or None, by walking powers of e until they repeat.

    In a finite commutative ring e is a unit iff some power e**k equals 1,
    and then e**(k-1) is the inverse. Independent of the matrix-rank path,
    so it doubles as a test oracle for is_unit.
    """
    seen: set[int] = set()
    prev = a.one_vector
    cur = _element_of(a, e)
    while cur not in seen:
        if cur == a.one_vector:
            return prev
        seen.add(cur)
        prev = cur
        cur = a.mul(cur, e)
    return None


def multiplicative_order(a: Algebra, u: AlgebraElement) -> int:
    """Order of a unit u in the unit group.

    A non-unit is refused by one rank test: its powers never reach 1.
    """
    if not is_unit(a, u):
        raise FuchslabError(f"{u:#b} is not a unit")
    k, cur = 1, u
    while cur != a.one_vector:
        cur = a.mul(cur, u)
        k += 1
    return k


def units(a: Algebra) -> frozenset[AlgebraElement]:
    """All invertible elements, by a scan over 2**dim: the reference that
    unit_count and unit_group_invariants are tested against."""
    if a.dim > DEFAULT_UNIT_BUDGET_DIM:
        raise BudgetExceededError(
            f"unit enumeration over 2^{a.dim} elements exceeds the dim <= "
            f"{DEFAULT_UNIT_BUDGET_DIM} budget"
        )
    return frozenset(e for e in range(1, 1 << a.dim) if is_unit(a, e))


@lru_cache(maxsize=64)
def _local_decomposition(a: Algebra) -> tuple[tuple[tuple[int, ...], ...],
                                              tuple[tuple[tuple[int, ...], int, int], ...]]:
    """The images of the basis under F^0, F^1, ..., F^K, and for each
    primitive idempotent e the record (images, d, f): the products e*b over
    the basis b, d = dim a*e and the residue degree f = d - dim N*e.
    Cached per algebra, so F2[G] is decomposed once per group.

    Squaring F(x) = x^2 is F2-linear in a commutative ring of characteristic
    2. For nilpotent x the ideals x^i*a shrink strictly until they vanish
    (x^i*a = x^(i+1)*a gives x^i*(1 + x*b) = 0, and 1 + x*b is a unit), so
    x^dim = 0 and F^K with 2^K >= dim kills exactly the nilradical N.
    F + 1 kills exactly the idempotents, a subspace closed under products.
    Splitting 1 by a basis f of them (each part p into p*f and p + p*f,
    zeros dropped) leaves the atoms of that Boolean ring, the primitive
    idempotents e. So a is the product of the rings a*e; each has no
    idempotents but 0 and e, so it is local with residue field F_(2^f), and
    its non-units form its nilradical N*e.
    """
    basis = tuple(1 << i for i in range(a.dim))
    squares = [a.mul(b, b) for b in basis]  # F(v) is the sum of squares[i] over v's bits
    steps = [basis]
    for _ in range((a.dim - 1).bit_length()):  # up to the least K with 2^K >= dim
        steps.append(tuple(reduce(xor, (squares[i] for i in gf2.bits(v)), 0) for v in steps[-1]))
    nil = gf2.kernel_of_images(steps[-1], a.dim)
    parts = [a.one_vector]
    for f in gf2.kernel_of_images([s ^ b for s, b in zip(squares, basis)], a.dim):
        parts = [q for p in parts for q in (a.mul(p, f), a.mul(p, f) ^ p) if q]
    blocks = []
    for e in parts:
        images = tuple(a.mul(e, b) for b in basis)
        d = len(gf2.rref(images))
        blocks.append((images, d, d - len(gf2.rref(a.mul(e, v) for v in nil))))
    return tuple(steps), tuple(blocks)


def unit_count(a: Algebra) -> int:
    """|a^x|, counted by linear algebra with no scan over the elements.

    a is the product of local rings a*e whose non-units form N*e, of
    codimension f in a*e (_local_decomposition): |a^x| = prod (2^d - 2^(d - f)).
    It works on any algebra; for a quotient of a group algebra the tests
    hold it against _block_unit_count, which units_are_group uses.
    """
    return prod((1 << d) - (1 << (d - f)) for _, d, f in _local_decomposition(a)[1])


def unit_group_invariants(a: Algebra) -> tuple[int, ...]:
    """Invariant factors of the unit group of `a`, by linear algebra.

    a^x is the product of the local unit groups (a*e)^x, and each is
    (a*e / N*e)^x x (1 + N*e). The residue field has 2^f elements,
    f = dim(a*e) - dim(N*e), so its unit group is cyclic of order 2^f - 1.
    1 + N is the 2-part: u -> u + 1 maps {u : u^(2^k) = 1} onto ker F^k,
    since 1 + a nilpotent is a unit. With d_k = dim ker F^k, 1 + N has
    d_k - d_(k-1) cyclic factors of order at least 2^k.

    >>> unit_group_invariants(group_algebra(GroupSpec((4,))))
    (2, 4)
    >>> unit_group_invariants(product_algebra([field_algebra(1), field_algebra(2)]))
    (3,)
    """
    steps, local = _local_decomposition(a)
    kernel_dims = [a.dim - len(gf2.rref(step)) for step in steps]  # d_0 = 0, ..., d_K
    at_least = [d - c for c, d in zip(kernel_dims, kernel_dims[1:])]
    pieces = [1 << sum(m >= i for m in at_least) for i in range(1, max(at_least, default=0) + 1)]
    pieces += [(1 << f) - 1 for _, _, f in local if f > 1]
    return canonicalize(GroupSpec(tuple(pieces))).finite_orders


def augmentation(g: GroupSpec, e: AlgebraElement) -> int:
    """Coordinate sum of e in F2[g]: the ring map sending every group
    element to 1. Its kernel is spanned by the vectors 1 + g."""
    if not g.is_finite:
        raise InfiniteGroupError("augmentation is evaluated on materialized group algebras")
    if e >> g.torsion_order:
        raise ValueError("element does not live in the group algebra")
    return e.bit_count() & 1


def _block_unit_count(ideal: Ideal) -> int:
    """|(F2[G]/I)^x| for an ideal I of a group algebra, read off the blocks
    of F2[G], whose decomposition is cached per algebra.

    F2[G] is the product of the local rings A_e = F2[G]e over its primitive
    idempotents e, of dimension d_e and residue field F_(2^f_e)
    (_local_decomposition). An ideal splits as I = sum of Ie, and
    F2[G]/I is the product of the A_e/Ie. A quotient of a local ring by a
    proper ideal is local with the same residue field, so each nonzero
    A_e/Ie, of dimension r_e = d_e - dim Ie, has its non-units in a
    subspace of codimension f_e, and
    |(F2[G]/I)^x| = prod over r_e > 0 of (2^r_e - 2^(r_e - f_e)).
    dim Ie is the rank of e*v over the basis v of I. A 2-group, one whose
    order is a power of 2, has one block, F2[G] itself, with f = 1, as
    (1 + g)^(2^k) = 1 + g^(2^k) = 0 for g of order 2^k makes the
    augmentation ideal nilpotent; so the count is 2^(dim R - 1) and no block
    is computed.

    F2[C3]/(1 + x + x^2) is F4, with 3 units:

    >>> _block_unit_count(ideal_span(group_algebra(GroupSpec((3,))), [0b111]))
    3
    """
    amb = ideal.ambient
    if amb.dim & (amb.dim - 1) == 0:
        return 1 << (amb.dim - ideal.dim - 1)
    count = 1
    for images, d, f in _local_decomposition(amb)[1]:
        r = d - len(gf2.rref(reduce(xor, (images[b] for b in gf2.bits(v)), 0)
                             for v in ideal.rref_basis))
        if r:
            count *= (1 << r) - (1 << (r - f))
    return count


class QuotientRing:
    """F2[G]/I on the non-pivot coordinates of the ideal's RREF basis.

    The projection is a ring homomorphism; `group_image[i]` is the coset of
    the i-th group element. `units_are_group` tells whether the units are
    exactly that image, one element of G each. The image, the coordinates
    and the multiplication table are built on first use: deciding
    `units_are_group` needs no table.
    """

    def __init__(self, ideal: Ideal) -> None:
        if ideal.ambient.group is None:
            raise ValueError("the ideal must live in a group algebra")
        if ideal.contains(ideal.ambient.one_vector):
            raise ZeroRingError("1 lies in the ideal; the quotient is the zero ring")
        self.ideal = ideal

    @property
    def parent_group(self) -> GroupSpec:
        """G, read off the ideal's group algebra F2[G]."""
        return self.ideal.ambient.group

    @cached_property
    def _coord_of(self) -> dict[int, int]:
        """Quotient coordinate of each non-pivot column, in column order."""
        pivots = {gf2.lowest_bit(row) for row in self.ideal.rref_basis}
        columns = (c for c in range(self.ideal.ambient.dim) if c not in pivots)
        return {c: i for i, c in enumerate(columns)}

    def project(self, v: AlgebraElement) -> AlgebraElement:
        """Coset of an ambient element, in quotient coordinates."""
        coord_of = self._coord_of
        acc = 0
        for b in gf2.bits(self.ideal.reduce(_element_of(self.ideal.ambient, v))):
            acc |= 1 << coord_of[b]
        return acc

    @cached_property
    def group_image(self) -> tuple[AlgebraElement, ...]:
        return tuple(self.project(1 << i) for i in range(self.ideal.ambient.dim))

    @cached_property
    def quotient_algebra(self) -> Algebra:
        # the ambient carries its group, so its table is the Cayley table: the
        # product of two basis vectors is the basis vector at bit_length() - 1,
        # and its coset is read off the image with no multiplication or reduction
        table = self.ideal.ambient.mult_table
        image = self.group_image
        columns = tuple(self._coord_of)
        rows = tuple(tuple(image[table[r][c].bit_length() - 1] for c in columns)
                     for r in columns)
        # a quotient of a commutative unital algebra by a proper ideal
        # satisfies the ring axioms, so they are not checked again
        return _trusted(Algebra, mult_table=rows, one_vector=image[0], group=None)

    @property
    def dim(self) -> int:
        return self.ideal.ambient.dim - self.ideal.dim

    @cached_property
    def units_are_group(self) -> bool:
        """The package's one test that the units are exactly the image of G.

        The projection is a ring map, so it sends G into the units; when
        there are |G| units (_block_unit_count) and it is one-to-one on G,
        its image is all of them. The count, the cheaper test, comes first.
        """
        order = self.ideal.ambient.dim
        return _block_unit_count(self.ideal) == order == len(set(self.group_image))

    def unit_group_invariants(self) -> tuple[int, ...]:
        return unit_group_invariants(self.quotient_algebra)


def present_over(g: GroupSpec, target: Algebra, images: list[AlgebraElement]) -> QuotientRing:
    """The subring of `target` generated by unit images of g's generators,
    presented as F2[g] modulo the kernel of F2[g] -> target.

    This is the package's one builder for rings generated by unit images:
    products of rings (images (u, 1) and (1, v)), the C3 witness and the
    subring generated by given units all come through it. The images must
    be units of the target whose multiplicative orders divide the matching
    factor orders; u^d = 1 alone makes u a unit, with inverse u^(d-1). The
    kernel of a ring map is an ideal, so it is wrapped without revalidation.
    """
    if not g.is_finite:
        raise InfiniteGroupError("unit embeddings are materialized for finite groups only")
    if len(images) != g.rank:
        raise OrderMismatchError("one unit image per group generator required")
    for d, u in zip(g.finite_orders, images):
        if u < 0 or u >> target.dim:
            raise OrderMismatchError(f"image {u:#b} lies outside the dim-{target.dim} target")
        if target.power(u, d) != target.one_vector:
            raise OrderMismatchError(f"image {u:#b} is not a unit of order dividing {d}")
    # elements(g x C_d) lists (e, 0), (e, 1), ..., (e, d - 1) for each e of g in turn
    elem_images = [target.one_vector]
    for d, u in zip(g.finite_orders, images):
        layers = [elem_images]
        for _ in range(d - 1):
            layers.append([target.mul(v, u) for v in layers[-1]])
        elem_images = [v for column in zip(*layers) for v in column]
    basis = gf2.kernel_of_images(elem_images, target.dim)
    kernel = _trusted(Ideal, ambient=group_algebra(g), rref_basis=basis)
    return QuotientRing(kernel)
