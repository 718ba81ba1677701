"""Matrix algebra over GF(2^8).

Implements exactly what IDA needs (Figure 3 of the paper): multiplication
of the dispersal matrix with the data, and Gauss-Jordan inversion of the
``m x m`` reconstruction submatrix ``[x'_ij]`` so the receiver can compute
``[y_ij] = [x'_ij]^-1``.  A product is the byte-row product of
:func:`repro.ida.gf256.gf_matvec_bytes`, and elimination works on whole
rows: each pivot step scales the pivot row with one gather from
:data:`~repro.ida.gf256.MUL_TABLE` and clears its column in every other
row with one more, so the Python loop runs once per column, never per
entry.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DispersalError
from repro.ida.gf256 import MUL_TABLE, gf_inv, gf_matvec_bytes


def _as_matrix(values: np.ndarray | list) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.uint8)
    if matrix.ndim != 2:
        raise DispersalError(f"expected a 2-D matrix, got shape {matrix.shape}")
    return matrix


def _eliminate(work: np.ndarray, row: int, col: int) -> None:
    """One Gauss-Jordan step on ``work`` in place: scale ``row`` so its
    ``col`` entry is 1, then clear ``col`` in every other row.

    Rows whose ``col`` entry is already 0 gather ``0 * pivot_row`` and
    stay as they are, so no row is skipped by a Python test.
    """
    work[row] = MUL_TABLE[gf_inv(int(work[row, col]))][work[row]]
    factors = work[:, col].copy()
    factors[row] = 0
    work ^= MUL_TABLE[factors[:, None], work[row][None, :]]


def _pivot(work: np.ndarray, col: int, first: int) -> int | None:
    """The first row at or below ``first`` with a non-zero ``col`` entry."""
    candidates = np.flatnonzero(work[first:, col])
    return None if candidates.size == 0 else first + int(candidates[0])


def gf_identity(size: int) -> np.ndarray:
    """The ``size x size`` identity matrix over GF(256)."""
    return np.eye(size, dtype=np.uint8)


def gf_mat_mul(left: np.ndarray | list, right: np.ndarray | list) -> np.ndarray:
    """Matrix product over GF(256)."""
    a = _as_matrix(left)
    b = _as_matrix(right)
    if a.shape[1] != b.shape[0]:
        raise DispersalError(
            f"cannot multiply {a.shape} by {b.shape}: inner dims differ"
        )
    return gf_matvec_bytes(a, b)


def gf_mat_inv(matrix: np.ndarray | list) -> np.ndarray:
    """Gauss-Jordan inversion over GF(256).

    Raises :class:`DispersalError` when the matrix is singular - for IDA
    this means the chosen dispersal rows were not independent, which the
    Vandermonde construction rules out by design.
    """
    source = _as_matrix(matrix)
    size = source.shape[0]
    if source.shape[1] != size:
        raise DispersalError(f"cannot invert non-square matrix {source.shape}")
    # The augmented [source | identity]: row operations on both halves
    # at once leave the inverse on the right.
    work = np.concatenate((source, gf_identity(size)), axis=1)
    for col in range(size):
        pivot_row = _pivot(work, col, col)
        if pivot_row is None:
            raise DispersalError(
                f"matrix is singular (no pivot in column {col})"
            )
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
        _eliminate(work, col, col)
    return work[:, size:].copy()


def gf_mat_rank(matrix: np.ndarray | list) -> int:
    """Rank over GF(256) by Gauss-Jordan elimination."""
    work = _as_matrix(matrix).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot_row = _pivot(work, col, rank)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[[rank, pivot_row]] = work[[pivot_row, rank]]
        _eliminate(work, rank, col)
        rank += 1
    return rank


def is_nonsingular(matrix: np.ndarray | list) -> bool:
    """Whether a square matrix over GF(256) is invertible."""
    square = _as_matrix(matrix)
    if square.shape[0] != square.shape[1]:
        return False
    return gf_mat_rank(square) == square.shape[0]
