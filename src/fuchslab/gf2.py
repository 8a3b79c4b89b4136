"""Bit-packed GF(2) linear algebra on Python ints.

A vector is an int whose bit i is coordinate i. A subspace is stored as its
unique reduced row-echelon basis: rows sorted by pivot column, every pivot
bit cleared from all other rows, so two subspaces are equal iff their bases
are equal as tuples. A row's pivot is its lowest set bit, so `v & row & -row`
is nonzero iff v has a 1 at that pivot.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def lowest_bit(v: int) -> int:
    """Index of the least significant set bit of a nonzero int."""
    return (v & -v).bit_length() - 1


def bits(v: int) -> Iterator[int]:
    """Yield the indices of the set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def rref(rows: Iterable[int], start: Sequence[int] = ()) -> tuple[int, ...]:
    """Canonical reduced row-echelon basis of the span of the given rows.

    `start`, an RREF basis, is extended by the rows instead of being
    eliminated again: the result is the RREF of start and rows together.
    """
    basis = list(start)  # invariant: fully reduced, distinct pivots
    for v in rows:
        for row in basis:
            if v & row & -row:
                v ^= row
        if v == 0:
            continue
        pivot = v & -v
        for i, row in enumerate(basis):
            if row & pivot:
                basis[i] = row ^ v
        basis.append(v)
    if len(basis) > len(start):  # start is sorted, and elimination keeps pivots
        basis.sort(key=lowest_bit)
    return tuple(basis)


def reduce_vector(v: int, basis: Sequence[int]) -> int:
    """Remainder of v after elimination against an RREF basis."""
    for row in basis:
        if v & row & -row:
            v ^= row
    return v


def kernel_of_images(images: Sequence[int], width: int) -> tuple[int, ...]:
    """Kernel of the linear map sending domain basis vector i to images[i].

    The images live in a codomain of `width` bits; the kernel comes back as
    an RREF basis in the domain (bit i = domain coordinate i). It is read
    off the RREF of the rows image_i | e_i shifted past `width`: the rows
    with no image bits span the kernel, and their pivots lie past `width`,
    so shifted down they are already in canonical form.
    """
    mask = (1 << width) - 1
    rows = rref((img & mask) | (1 << (width + i)) for i, img in enumerate(images))
    return tuple(row >> width for row in rows if not row & mask)
