"""The realizability engine.

A ring endomorphism of R = F2[G]/I with unit group G is determined by its
restriction to G, and a group endomorphism of G lifts to the ring exactly
when its linear extension maps I into I. The engine therefore enumerates
End(G), filters by ideal preservation, and renders the verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gf2
from .algebra import Algebra, Ideal, QuotientRing
from .errors import BudgetExceededError, UnitGroupMismatchError
from .groups import (
    GroupHom,
    GroupSpec,
    canonicalize,
    element_index,
    elements,
    endo_count,
    image_candidates,
)

DEFAULT_MAX_ENDOS = 10**6


@dataclass(frozen=True)
class RealizabilityReport:
    """Outcome of checking whether a ring fully realizes a group."""

    group: GroupSpec
    ring_dim: int
    unit_group_ok: bool
    total_endos: int
    realized_endos: int
    fully_realizes: bool
    failing_witness: GroupHom | None


def preserves_ideal(g: GroupSpec, phi: GroupHom, i: Ideal) -> bool:
    """True iff the linear extension of phi maps every RREF basis vector of
    the ideal back into the ideal."""
    if i.ambient.group != g:
        raise ValueError("the ideal must live in the group algebra of g")
    els = elements(g)
    image_bit: dict[int, int] = {}
    for v in i.rref_basis:
        acc = 0
        for b in gf2.bits(v):
            bit = image_bit.get(b)
            if bit is None:
                bit = 1 << element_index(g, phi.apply(els[b]))
                image_bit[b] = bit
            acc ^= bit
        if not i.contains(acc):
            return False
    return True


def _scan_data(g: GroupSpec, ideal: Ideal) -> tuple:
    """Precomputed tables for the endomorphism filter, which checks the
    ideal's RREF basis, the same criterion as preserves_ideal."""
    amb = ideal.ambient
    if amb.group != g:
        raise ValueError("the ideal must live in the group algebra of g")
    cayley = tuple(
        tuple(entry.bit_length() - 1 for entry in row) for row in amb.mult_table
    )
    red = tuple(ideal.reduce(1 << b) for b in range(amb.dim))
    needed = sorted({b for v in ideal.rref_basis for b in gf2.bits(v)})
    position = {b: i for i, b in enumerate(needed)}
    els = elements(g)
    steps = tuple(
        tuple((j, e) for j, e in enumerate(els[b]) if e) for b in needed
    )
    checks = tuple(tuple(position[b] for b in gf2.bits(v)) for v in ideal.rref_basis)
    cands = tuple(
        tuple(element_index(g, e) for e in cand) for cand in image_candidates(g)
    )
    return (tuple(len(c) for c in cands), cands, cayley, red, steps, checks)


def _scan_endos(data: tuple, total: int) -> bytearray:
    """One verdict byte per endomorphism among the first `total` in
    enumeration order: 1 if it preserves the ideal, else 0."""
    sizes, cands, cayley, red, steps, checks = data
    digits = [0] * len(sizes)
    kept = bytearray(total)
    for t in range(total):
        chosen = [cands[j][d] for j, d in enumerate(digits)]
        imgs = []
        for step in steps:
            img = 0
            for j, mult in step:
                cj = chosen[j]
                for _ in range(mult):
                    img = cayley[img][cj]
            imgs.append(img)
        ok = True
        for support in checks:
            acc = 0
            for pos in support:
                acc ^= red[imgs[pos]]
            if acc:
                ok = False
                break
        if ok:
            kept[t] = 1
        for j in range(len(digits) - 1, -1, -1):
            digits[j] += 1
            if digits[j] < sizes[j]:
                break
            digits[j] = 0
    return kept


def count_preserving(g: GroupSpec, ideal: Ideal, total: int) -> tuple[int, int | None]:
    """Count the endomorphisms of g whose extension preserves the ideal, and
    the enumeration index of the first one that does not (None if all do)."""
    kept = _scan_endos(_scan_data(g, ideal), total)
    first_fail = kept.find(0)
    return kept.count(1), None if first_fail < 0 else first_fail


def _homs_from_indices(g: GroupSpec, indices) -> list[GroupHom]:
    """The endomorphisms at the given enumeration indices: mixed-radix
    digits over image_candidates(g), the last generator fastest."""
    cands = image_candidates(g)
    homs = []
    for index in indices:
        images = []
        for cand in reversed(cands):
            index, digit = divmod(index, len(cand))
            images.append(cand[digit])
        homs.append(GroupHom(g, g, tuple(reversed(images))))
    return homs


def _endo_total(g: GroupSpec, max_endos: int) -> int:
    """|End(g)|, refused when it exceeds the enumeration budget."""
    total = endo_count(g)
    if total > max_endos:
        raise BudgetExceededError(f"|End(G)| = {total} exceeds the budget {max_endos}")
    return total


def ring_endos(q: QuotientRing, *, max_endos: int = DEFAULT_MAX_ENDOS) -> list[GroupHom]:
    """The group endomorphisms of G that lift to ring endomorphisms of q,
    read from the scan's verdicts in enumeration order.

    Requires the unit group of q to be exactly the image of G, so that the
    returned list is in bijection with End(q).
    """
    g = q.parent_group
    if q.unit_to_group is None:
        raise UnitGroupMismatchError("the unit group is not the image of the presenting group")
    kept = _scan_endos(_scan_data(g, q.ideal), _endo_total(g, max_endos))
    return _homs_from_indices(g, (t for t, ok in enumerate(kept) if ok))


def fully_realizes(q: QuotientRing, expected: GroupSpec,
                   *, max_endos: int = DEFAULT_MAX_ENDOS) -> RealizabilityReport:
    """Full-realizability verdict for q against the expected unit group.

    unit_group_ok requires the unit set to be exactly the image of G, and G
    to be the expected group. The witness, when one exists, is the first
    endomorphism in enumeration order that does not preserve the ideal.
    """
    g = q.parent_group
    total = _endo_total(g, max_endos)
    expected_c = canonicalize(expected)
    unit_ok = q.unit_to_group is not None and canonicalize(g) == expected_c
    realized, first_fail = count_preserving(g, q.ideal, total)
    fully = unit_ok and realized == total
    witness = None
    if unit_ok and not fully and first_fail is not None:
        witness = _homs_from_indices(g, [first_fail])[0]
    return RealizabilityReport(
        group=expected_c,
        ring_dim=q.dim,
        unit_group_ok=unit_ok,
        total_endos=total,
        realized_endos=realized,
        fully_realizes=fully,
        failing_witness=witness,
    )


def ring_endos_oracle(a: Algebra) -> int:
    """Ring endomorphism count by brute force over all linear self-maps,
    filtering unitality and multiplicativity on basis pairs. Exponential in
    dim**2, so capped at dim <= 4; kept as an independent oracle for the
    End(G)-filter path."""
    if a.dim > 4:
        raise BudgetExceededError("oracle enumerates 2^(dim^2) maps; dim <= 4 required")
    dim = a.dim
    one = a.one_vector
    table = a.mult_table
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    count = 0
    for images in itertools.product(range(1 << dim), repeat=dim):
        f_one = 0
        for b in gf2.bits(one):
            f_one ^= images[b]
        if f_one != one:
            continue
        ok = True
        for i, j in pairs:
            lhs = 0
            for b in gf2.bits(table[i][j]):
                lhs ^= images[b]
            if lhs != a.mul(images[i], images[j]):
                ok = False
                break
        if ok:
            count += 1
    return count
