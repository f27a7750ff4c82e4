"""Small GF(2) linear-algebra helpers on bit tuples.

Vectors are tuples of 0/1 ints, most significant bit first, matching the
qubit ordering used by the state engine (index 0 = leftmost ket symbol).
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


def row_reduce(rows, width: int):
    """Return an independent list of int-packed rows in row-echelon form."""
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
    """Basis (list of bit tuples) of {d : d.r = 0 for every row r}."""
    packed = row_reduce([bits_to_int(r) for r in rows], width)
    # Identify pivot columns of the echelon rows, then back-fill free columns.
    pivot_of_col = {}
    for row in packed:
        col = width - row.bit_length()
        pivot_of_col[col] = row
    free_cols = [c for c in range(width) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        vec = [0] * width
        vec[fc] = 1
        # Solve pivot values so every constraint row has even overlap.
        for col in sorted(pivot_of_col, reverse=True):
            row = pivot_of_col[col]
            row_bits = int_to_bits(row, width)
            acc = 0
            for c in range(width):
                if c != col:
                    acc ^= row_bits[c] & vec[c]
            vec[col] = acc
        basis.append(tuple(vec))
    return basis


def sample_span(basis_rows, rng: np.random.Generator):
    """Uniform element of the span of the given (bit tuple) rows."""
    rows = [tuple(r) for r in basis_rows]
    if not rows:
        raise ValueError("empty basis has no width information")
    w = len(rows[0])
    out = (0,) * w
    indep = row_reduce([bits_to_int(r) for r in rows], w)
    for piv in indep:
        if rng.integers(0, 2):
            out = xor_vec(out, int_to_bits(piv, w))
    return out


def solve_affine(constraints, width: int):
    """Particular solution v with v.a_i = b_i for (a_i, b_i) pairs, or None.

    Returns (particular, homogeneous_basis) where the basis spans all
    solutions of the associated homogeneous system.
    """
    # Augmented int rows: constraint vector shifted left once, parity bit last.
    aug = []
    for vec, bit in constraints:
        if len(vec) != width:
            raise ValueError("constraint width mismatch")
        aug.append((bits_to_int(vec) << 1) | (bit & 1))
    reduced = row_reduce(aug, width + 1)
    for row in reduced:
        if row == 1:
            return None  # 0 = 1, inconsistent
    # Back substitution on echelon rows.
    particular = [0] * width
    for row in sorted(reduced):
        col = width + 1 - row.bit_length()
        bits = int_to_bits(row, width + 1)
        acc = bits[width]
        for c in range(col + 1, width):
            acc ^= bits[c] & particular[c]
        particular[col] = acc
    homogeneous = nullspace([int_to_bits(r >> 1, width) for r in reduced], width)
    return tuple(particular), homogeneous


def sample_solution(constraints, width: int, rng: np.random.Generator):
    """Uniform v satisfying all (vector, parity) constraints, or None."""
    solved = solve_affine(constraints, width)
    if solved is None:
        return None
    particular, homogeneous = solved
    out = particular
    for hvec in homogeneous:
        if rng.integers(0, 2):
            out = xor_vec(out, hvec)
    return out
