"""The elimination kernel, matrix product and reduced-form kit of both fields.

GF(4) = {0, 1, w, W} (W = w^2) is held as the codes 0, 1, 2, 3, so addition
is XOR of codes and the other operations are lookups in `MUL`, `CONJ` and
`INV`; GF(2) is the 0/1 subfield.
"""

from __future__ import annotations

import numpy as np

# Multiplication from the cyclic group {1, w, W}: codes 1, 2, 3 are w^0, w^1,
# w^2 and exponents add mod 3.  Conjugation is squaring, inversion is cubing
# less one.  Addition needs no table: codes add by XOR.
MUL = np.zeros((4, 4), dtype=np.uint8)
for _a in range(1, 4):
    for _b in range(1, 4):
        MUL[_a, _b] = 1 + ((_a - 1) + (_b - 1)) % 3
CONJ = np.array([MUL[x, x] for x in range(4)], dtype=np.uint8)
INV = np.array([0, 1, 3, 2], dtype=np.uint8)


def matmul_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of code arrays, from integer products of bit planes.

    Each plane of the product is the parity of integer sums, which uint8 keeps
    as it wraps mod 256.  0/1 codes need one product; otherwise a = a0 + a1 w
    and w^2 = 1 + w give the planes a0 b0 + a1 b1 and (a0 + a1)(b0 + b1) + a0 b0.
    """
    if a.max(initial=0) <= 1 and b.max(initial=0) <= 1:
        return (a @ b) & 1
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    low = a0 @ b0
    return (low ^ a1 @ b1) & 1 | ((low ^ (a0 ^ a1) @ (b0 ^ b1)) & 1) << 1


# -- elimination --------------------------------------------------------------
#
# One kernel, `eliminate`, reduces matrices over both fields; `rref_codes`
# and the GF(2) kit's `BitMatrix.rref` are conversions around it.  Each row
# is a run of bit planes of a fixed width (whole bytes for codes, whole
# 64-bit words for a BitMatrix): plane p holds bit p of every code, column
# j at bit p * width + j, so a + b w keeps its 1-coefficient a in plane 0
# and its w-coefficient b in plane 1.  0/1 matrices, GF(2) ones among them,
# need plane 0 only and have the same reduced form over either field; a
# BitMatrix row read as a little-endian int is such a row.  Multiplying by
# w maps the planes (a, b) to (b, a ^ b), since w (a + b w) = b + (a + b) w,
# and by W = w^2 maps them to (a ^ b, a).
#
# The whole matrix is one Python int, row i at bit i * span, so a column is
# cleared in every row by a fixed number of integer operations.  With
# `unit` the int that has bit 0 of every row set, rest >> c & unit marks
# the rows with an entry in column c of a plane, and (m << span) - m
# spreads each mark over its whole row; ANDing that with the pivot row
# repeated once per row picks the rows to XOR it into.  An entry a + b w
# takes a times the pivot row and b times w times it, one mark per plane.
# Each pivot, the leftmost column with an entry in an unused row, comes
# from the last such row and is scaled to 1; clearing its column empties
# that row, and the top unused row moves into its place, so the unused rows
# stay packed.  The pivot rows go to a second int in pivot order, whose
# column is cleared the same way.  Reduced forms are unique for the row
# space, so every basis derived from them is canonical.


# A reduced row echelon form and its pivot columns.
Reduction = tuple[np.ndarray, list[int]]


def eliminate(raw: bytes, rows: int, width: int) -> tuple[bytes, list[int]]:
    """Reduced row echelon form of packed rows, and its pivot columns.

    `raw` holds `rows` rows of equal length, each the little-endian int of
    its bit planes, `width` bits apiece.  The result has the same layout:
    the reduced nonzero rows in pivot order, then zero rows.
    """
    step = len(raw) // rows if rows else 0
    span = 8 * step
    two = span > width
    unit = int.from_bytes(b"\1".ljust(step, b"\0") * rows, "little")
    mask = (1 << width) - 1
    rest, count = int.from_bytes(raw, "little"), rows
    done, pivots = 0, []
    for c in range(width):
        if not rest:
            break
        # bit 0 of each row of `rest` whose entry a + b w in column c has a = 1 (ha), b = 1 (hb)
        ha = rest >> c & unit
        hb = rest >> c + width & unit if two else 0
        if not ha | hb:
            continue
        at = (ha | hb).bit_length() - 1
        row = rest >> at & (1 << span) - 1
        a, b = row & mask, row >> width
        if b >> c & 1:
            # scale an entry W by w, an entry w by W
            a, b = (b, a ^ b) if a >> c & 1 else (a ^ b, a)
        one = a | b << width
        k = len(pivots)
        copies = max(count, k)
        x = int.from_bytes(one.to_bytes(step, "little") * copies, "little")
        rest ^= ((ha << span) - ha) & x
        ha = done >> c & unit
        done ^= ((ha << span) - ha) & x
        if two:
            # the pivot row times w, which has entry w in column c
            x = int.from_bytes((b | (a ^ b) << width).to_bytes(step, "little") * copies, "little")
            rest ^= ((hb << span) - hb) & x
            hb = done >> c + width & unit
            done ^= ((hb << span) - hb) & x
        # the pivot row is zero now, and the top unused row takes its place
        count -= 1
        top = rest >> count * span
        rest ^= top << at ^ top << count * span
        done |= one << k * span
        pivots.append(c)
    return done.to_bytes(len(raw), "little"), pivots


def rref_codes(a: np.ndarray) -> Reduction:
    """Reduced row echelon form of a code array, and its pivot columns."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    rows, cols = a.shape
    # 0/1 codes have the same reduced form over GF(2) and GF(4), on one plane
    shifts = np.arange(1 if a.max(initial=0) <= 1 else 2, dtype=np.uint8)[:, None]
    packed = np.packbits(a[:, None, :] >> shifts & 1, axis=-1, bitorder="little")
    raw, pivots = eliminate(packed.tobytes(), rows, 8 * packed.shape[-1])
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(packed.shape)
    bits = np.unpackbits(bits, axis=-1, count=cols, bitorder="little")
    return np.bitwise_or.reduce(bits << shifts, axis=1), pivots


def adjoint_image(adjoint: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Reduced basis of im(a) from the reduced form of a* and its pivots.

    im(a) is the row space of a^T, the conjugate of the row space of a*, and
    conjugation fixes 0 and 1 and so commutes with reduction.
    """
    return CONJ[adjoint[: len(pivots)]]


def null_basis(reduced: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Kernel basis of a reduced matrix: the identity on its free columns."""
    free = sorted(set(range(reduced.shape[1])) - set(pivots))
    basis = np.zeros((len(free), reduced.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = reduced[: len(pivots)][:, free].T
    return basis


def residue(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v less its combination of `rows`, a reduced basis with pivots 1.

    The coefficient of each row is v's entry at that row's pivot, the only
    row nonzero there, so v lies in the span iff its residue is 0.  `v` is
    one vector or a stack of them along the last axis.
    """
    if not len(rows):
        return v.copy()
    leads = np.argmax(rows != 0, axis=1)
    return v ^ np.bitwise_xor.reduce(MUL[v[..., leads, None], rows], axis=-2)
