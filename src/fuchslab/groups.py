"""Finitely generated abelian groups in invariant-factor form.

A group is a tuple of finite cyclic orders plus a count of infinite cyclic
factors. Elements of finite groups are exponent tuples against the factor
list; homomorphisms store one generator image per factor. Infinite factors
are carried as a count only: anything that needs element enumeration raises
InfiniteGroupError.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm, log10, prod

from .errors import BudgetExceededError, GroupSyntaxError, InfiniteGroupError, OrderMismatchError

GroupElement = tuple[int, ...]

_FACTOR_RE = re.compile(r"C(inf|[0-9]+)(?:\^([0-9]+))?")

# Parser bounds: prime_power_split finds the least prime factor p of an
# order in about p^(1/2) Pollard-Brent steps, at most 10^3 below 10^12,
# while a product of two large primes past the bound could take hours;
# more factors build lists no command can use.
MAX_CYCLIC_ORDER = 10**12
MAX_FACTORS = 10**6


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated abelian group as a list of cyclic factor orders.

    `finite_orders` lists the torsion factors; `infinite_rank` counts the
    infinite cyclic factors. Canonical specs (as produced by `parse_group`
    and `canonicalize`) have the orders in invariant-factor form, each
    dividing the next.
    """

    finite_orders: tuple[int, ...]
    infinite_rank: int = 0

    def __post_init__(self) -> None:
        if any(not isinstance(d, int) or d < 2 for d in self.finite_orders):
            raise ValueError(f"cyclic factor orders must be integers >= 2: {self.finite_orders}")
        if self.infinite_rank < 0:
            raise ValueError("infinite_rank must be >= 0")

    @property
    def is_finite(self) -> bool:
        return self.infinite_rank == 0

    @property
    def torsion_order(self) -> int:
        return prod(self.finite_orders)

    @property
    def rank(self) -> int:
        return len(self.finite_orders)

    def __str__(self) -> str:
        return render_group(self)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism between finite abelian groups, by generator images.

    images[j] is the image of the j-th generator of `source`; its order must
    divide source.finite_orders[j], which makes the hom well defined.
    """

    source: GroupSpec
    target: GroupSpec
    images: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if not (self.source.is_finite and self.target.is_finite):
            raise InfiniteGroupError("homomorphisms are represented for finite groups only")
        if len(self.images) != self.source.rank:
            raise ValueError("one image per source generator required")
        for d, img in zip(self.source.finite_orders, self.images):
            if len(img) != self.target.rank:
                raise ValueError(f"image {img} does not live in {self.target}")
            if any(not 0 <= e < o for e, o in zip(img, self.target.finite_orders)):
                raise ValueError(f"image {img} not reduced modulo {self.target.finite_orders}")
            if d % element_order(self.target, img):
                raise OrderMismatchError(
                    f"image {img} has order {element_order(self.target, img)}, "
                    f"which does not divide the generator order {d}"
                )

    def apply(self, e: GroupElement) -> GroupElement:
        """Image of an element of the source group."""
        out = [0] * self.target.rank
        for coeff, img in zip(e, self.images):
            for t, x in enumerate(img):
                out[t] += coeff * x
        return tuple(x % o for x, o in zip(out, self.target.finite_orders))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(other.source, self.target, tuple(self.apply(img) for img in other.images))


def parse_group(text: str) -> GroupSpec:
    """Parse a group-spec string and return the canonicalized GroupSpec.

    Grammar: GROUP := FACTOR ("x" FACTOR)*; FACTOR := "C"N("^"R)? | "Cinf"("^"R)?
    with N >= 1 and R >= 1; whitespace around the "x" separator is optional,
    and "C1" factors are dropped. N > MAX_CYCLIC_ORDER or more than
    MAX_FACTORS factors raise BudgetExceededError before any int() or list.

    >>> parse_group("C2^3 x C4 x C3").finite_orders
    (2, 2, 2, 12)
    >>> parse_group("Cinf^2 x C2")
    GroupSpec(finite_orders=(2,), infinite_rank=2)
    """
    orders: list[int] = []
    inf_rank = 0
    for token in text.split("x"):
        token = token.strip()
        m = _FACTOR_RE.fullmatch(token)
        if m is None:
            raise GroupSyntaxError(f"bad group factor {token!r} in {text!r}")
        repeat = _bounded_int(m.group(2) or "1", MAX_FACTORS, "factor count")
        if repeat < 1:
            raise GroupSyntaxError(f"factor repeat must be >= 1 in {token!r}")
        if len(orders) + inf_rank + repeat > MAX_FACTORS:
            raise BudgetExceededError(f"factor count exceeds the limit {MAX_FACTORS}")
        if m.group(1) == "inf":
            inf_rank += repeat
        else:
            n = _bounded_int(m.group(1), MAX_CYCLIC_ORDER, "cyclic order")
            if n == 0:
                raise GroupSyntaxError(f"cyclic order 0 in {token!r}")
            if n > 1:
                orders.extend([n] * repeat)
    return canonicalize(GroupSpec(tuple(orders), inf_rank))


def _bounded_int(digits: str, limit: int, what: str) -> int:
    """int(digits), refused by digit count before converting if over the limit."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise BudgetExceededError(f"{what} exceeds the limit {limit}")
    return int(digits)


def render_group(g: GroupSpec) -> str:
    """Canonical string form: invariant factors ascending, then Cinf factors."""
    c = canonicalize(g)
    parts = []
    for order, run in itertools.groupby(c.finite_orders):
        n = len(list(run))
        parts.append(f"C{order}" if n == 1 else f"C{order}^{n}")
    if c.infinite_rank == 1:
        parts.append("Cinf")
    elif c.infinite_rank > 1:
        parts.append(f"Cinf^{c.infinite_rank}")
    return " x ".join(parts) if parts else "C1"


# Miller-Rabin with these bases decides primality exactly below 3.3 * 10^24
# (Sorenson and Webster, 2015); above that it is a strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an n with no prime factor in _MR_BASES, as
    prime_power_split leaves it."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle search on
    x -> x^2 + c, with gcds batched over 128 steps)."""
    for c in itertools.count(1):
        y, r, q, m = 2, 1, 1, 128
        g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_power_split(n: int) -> dict[int, int]:
    """n as {prime: exponent}: trial division by the primes below 42, then
    Miller-Rabin and Pollard-Brent on what is left, so a 12-digit prime or
    a product of two 6-digit primes factors in well under a millisecond."""
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def canonicalize(g: GroupSpec) -> GroupSpec:
    """Invariant-factor form of g; idempotent, preserves the isomorphism class.

    Orders that already form a chain d1 | d2 | ... | dn (each >= 2) are an
    invariant-factor form of g, which is unique, so g comes back unchanged.

    >>> canonicalize(GroupSpec((6, 4))).finite_orders
    (2, 12)
    """
    orders = g.finite_orders
    if all(b % a == 0 for a, b in zip(orders, orders[1:])):
        return g
    per_prime: dict[int, list[int]] = {}
    for d, count in Counter(orders).items():
        for p, e in prime_power_split(d).items():
            per_prime.setdefault(p, []).extend([e] * count)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in per_prime.values()), default=0)
    factors = []
    for k in range(depth):
        d = prod(p ** exps[k] for p, exps in per_prime.items() if k < len(exps))
        factors.append(d)
    return GroupSpec(tuple(reversed(factors)), g.infinite_rank)


def order_within(g: GroupSpec, bound: int, budget: str) -> int:
    """|g|, or BudgetExceededError naming the budget when it exceeds bound.
    Past 64 factors it names |g| >= 2^rank: no huge product is built or printed."""
    if g.rank > 64 and g.rank >= bound.bit_length():
        raise BudgetExceededError(f"|G| >= 2^{g.rank} exceeds {budget}")
    if g.torsion_order > bound:
        raise BudgetExceededError(f"|G| = {g.torsion_order} exceeds {budget}")
    return g.torsion_order


def elements(g: GroupSpec) -> list[GroupElement]:
    """All elements in lexicographic order; the first is the identity."""
    if not g.is_finite:
        raise InfiniteGroupError(f"cannot enumerate elements of {g}")
    return list(itertools.product(*(range(d) for d in g.finite_orders)))


def element_index(g: GroupSpec, e: GroupElement) -> int:
    """Position of e in the lexicographic element list."""
    idx = 0
    for coeff, d in zip(e, g.finite_orders):
        idx = idx * d + coeff
    return idx


def add_elements(g: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    return tuple((x + y) % d for x, y, d in zip(a, b, g.finite_orders))


def scale_element(g: GroupSpec, k: int, e: GroupElement) -> GroupElement:
    return tuple((k * x) % d for x, d in zip(e, g.finite_orders))


def identity_element(g: GroupSpec) -> GroupElement:
    return (0,) * g.rank


def element_order(g: GroupSpec, e: GroupElement) -> int:
    """Least n >= 1 with n*e = 0."""
    if not g.is_finite:
        raise InfiniteGroupError("element orders are computed for finite groups only")
    return lcm(*(d // gcd(d, x) for d, x in zip(g.finite_orders, e)), 1)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def order_profile(g: GroupSpec) -> dict[int, int]:
    """Map order -> number of elements of that exact order.

    Counts come from the divisor identity #{e : order(e) | m} = prod gcd(d_i, m),
    so no element enumeration is needed; the profile determines the isomorphism
    class of a finite abelian group.
    """
    if not g.is_finite:
        raise InfiniteGroupError("order profiles are computed for finite groups only")
    exponent = lcm(*g.finite_orders, 1)
    profile: dict[int, int] = {}
    for n in _divisors(exponent):
        dividing = prod(gcd(d, n) for d in g.finite_orders)
        profile[n] = dividing - sum(profile[m] for m in _divisors(n) if m != n)
    return {n: c for n, c in profile.items() if c}


def _endo_count_powers(g: GroupSpec) -> list[tuple[int, int]]:
    """Pairs (gcd(a, b), count_a * count_b) over distinct factor orders a, b,
    whose powers multiply to |End(g)| = prod over factor pairs of gcd(d_i, d_j)."""
    if not g.is_finite:
        raise InfiniteGroupError("endomorphism counting needs a finite group")
    orders = g.finite_orders
    counts = {d: orders.count(d) for d in set(orders)}
    return [(gcd(a, b), ca * cb) for a, ca in counts.items() for b, cb in counts.items()]


def endo_count(g: GroupSpec) -> int:
    """|End(g)| by the order-dividing count formula, without enumeration."""
    return prod(base**exp for base, exp in _endo_count_powers(g))


def endo_count_log10(g: GroupSpec) -> float:
    """log10 |End(g)|, from the same powers, without building the integer."""
    return sum(exp * log10(base) for base, exp in _endo_count_powers(g))


def image_candidates(g: GroupSpec) -> list[list[GroupElement]]:
    """Per generator j, the elements whose order divides finite_orders[j], in
    lexicographic order. Tuples drawn from these lists are exactly End(g)."""
    if not g.is_finite:
        raise InfiniteGroupError("cannot enumerate endomorphisms of an infinite group")
    els = elements(g)
    return [[e for e in els if d % element_order(g, e) == 0] for d in g.finite_orders]


def enumerate_endos(g: GroupSpec) -> list[GroupHom]:
    """All endomorphisms, complete and duplicate-free, in a fixed order."""
    return [
        GroupHom(g, g, images)
        for images in itertools.product(*image_candidates(g))
    ]


def identity_hom(g: GroupSpec) -> GroupHom:
    images = tuple(
        tuple(1 if t == j else 0 for t in range(g.rank)) for j in range(g.rank)
    )
    return GroupHom(g, g, images)
