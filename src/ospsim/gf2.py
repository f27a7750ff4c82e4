"""GF(2) linear algebra on packed ints, and the bit-tuple boundary.

row_reduce, nullspace, sample_span, solve_affine and sample_solution work
on ints, most significant bit first: entry i of a width-w vector is bit
w-1-i, the qubit order of the state engine (index 0 = leftmost ket).  The
protocol code and the wire keep tuples of 0/1 ints, converted where a
caller reads the bits by bits_to_int and int_to_bits; the text helpers,
dot and xor_vec work on tuples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "bits_to_text",
    "text_to_bits",
    "xor_vec",
    "dot",
    "row_reduce",
    "nullspace",
    "sample_span",
    "solve_affine",
    "sample_solution",
]


def bits_to_text(bits) -> str:
    """Render a bit tuple as a '0'/'1' string."""
    return "".join("1" if b else "0" for b in bits)


def text_to_bits(text: str) -> tuple:
    """Parse a '0'/'1' string into a bit tuple."""
    if any(c not in "01" for c in text):
        raise ValueError("bit-string text must be 0/1 only")
    return tuple(1 if c == "1" else 0 for c in text)


def bits_to_int(bits) -> int:
    """Pack a bit tuple (MSB first) into an int."""
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return value


def int_to_bits(value: int, width: int) -> tuple:
    """Unpack an int into a width-length bit tuple, MSB first."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def xor_vec(a, b):
    """Elementwise xor of two equal-length bit tuples."""
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(x ^ y for x, y in zip(a, b))


def dot(a, b) -> int:
    """Inner product mod 2."""
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    acc = 0
    for x, y in zip(a, b):
        acc ^= x & y
    return acc


def row_reduce(rows):
    """Return an independent list of packed rows in row-echelon form."""
    basis = []
    for row in rows:
        cur = row
        for piv in basis:
            cur = min(cur, cur ^ piv)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    return basis


def nullspace(rows, width: int):
    """Packed basis of {d : d.r = 0 for every packed row r}: one vector per
    free column in column order, its pivot bits set rightmost first."""
    echelon = row_reduce(rows)[::-1]
    pivots = {row.bit_length() - 1 for row in echelon}
    basis = []
    for bit in reversed(range(width)):
        if bit not in pivots:
            vec = 1 << bit
            for row in echelon:
                if (row & vec).bit_count() & 1:
                    vec |= 1 << (row.bit_length() - 1)
            basis.append(vec)
    return basis


def sample_span(rows, rng: np.random.Generator) -> int:
    """Uniform element of the span of packed rows: a coin per echelon row."""
    out = 0
    for piv in row_reduce(rows):
        if rng.integers(0, 2):
            out ^= piv
    return out


def solve_affine(constraints, width: int):
    """Packed (particular solution, homogeneous basis) of v.a_i = b_i over
    packed (a_i, b_i) pairs, or None when the system is inconsistent."""
    # Augmented rows: constraint vector shifted left once, parity bit last.
    aug = []
    for vec, bit in constraints:
        if not 0 <= vec < 1 << width:
            raise ValueError("constraint wider than %d bits" % width)
        aug.append((vec << 1) | (bit & 1))
    reduced = row_reduce(aug)
    if 1 in reduced:
        return None  # 0 = 1, inconsistent
    # Back substitution, the rightmost pivot first.
    particular = 0
    for row in reversed(reduced):
        vec = row >> 1
        if (row ^ (vec & particular).bit_count()) & 1:
            particular |= 1 << (vec.bit_length() - 1)
    return particular, nullspace([row >> 1 for row in reduced], width)


def sample_solution(constraints, width: int, rng: np.random.Generator):
    """Uniform packed v satisfying all packed (vector, parity) constraints,
    or None: a coin per homogeneous vector, in free-column order."""
    solved = solve_affine(constraints, width)
    if solved is None:
        return None
    out, homogeneous = solved
    for hvec in homogeneous:
        if rng.integers(0, 2):
            out ^= hvec
    return out
