"""Scalar GF(256) kernels: the oracles of the product-table gathers.

These are the coefficient-by-coefficient loops :mod:`repro.ida.gf256`,
:mod:`repro.ida.matrix` and :mod:`repro.ida.vandermonde` used before
every array operation became one gather from ``MUL_TABLE``.  Each
multiplies through the log/exp tables, one coefficient at a time, so
the differential tests compare the gathers against arithmetic that
never touches the product table.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DispersalError

# Division, inverse and power never touched a product table; the oracles
# use the library's own.
from repro.ida.gf256 import EXP_TABLE, LOG_TABLE, gf_div, gf_inv, gf_pow


def gf_mul(a: int, b: int) -> int:
    """One product through the log/exp tables."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[int(LOG_TABLE[a]) + int(LOG_TABLE[b])])


def gf_mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
    """Every byte of ``data`` times ``scalar``: one log/exp pair per
    coefficient, vectorized over the bytes only."""
    if scalar == 0:
        return np.zeros_like(data)
    if scalar == 1:
        return data.copy()
    log_s = int(LOG_TABLE[scalar])
    result = EXP_TABLE[LOG_TABLE[data.astype(np.int32)] + log_s]
    result[data == 0] = 0
    return result.astype(np.uint8)


def gf_matvec_bytes(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``matrix @ data``: one scaled data row XORed in per coefficient."""
    rows, m = matrix.shape
    if data.shape[0] != m:
        raise DispersalError(
            f"shape mismatch: matrix is {matrix.shape}, data {data.shape}"
        )
    out = np.zeros((rows, data.shape[1]), dtype=np.uint8)
    for row in range(rows):
        for col in range(m):
            coefficient = int(matrix[row, col])
            if coefficient:
                out[row] ^= gf_mul_bytes(coefficient, data[col])
    return out


def _as_matrix(values) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.uint8)
    if matrix.ndim != 2:
        raise DispersalError(f"expected a 2-D matrix, got shape {matrix.shape}")
    return matrix


def gf_mat_mul(left, right) -> np.ndarray:
    """Matrix product, one scalar product per entry and term."""
    a = _as_matrix(left)
    b = _as_matrix(right)
    if a.shape[1] != b.shape[0]:
        raise DispersalError(
            f"cannot multiply {a.shape} by {b.shape}: inner dims differ"
        )
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= gf_mul(int(a[i, k]), int(b[k, j]))
            out[i, j] = acc
    return out


def gf_mat_inv(matrix) -> np.ndarray:
    """Gauss-Jordan inversion, entry by entry."""
    source = _as_matrix(matrix)
    size = source.shape[0]
    if source.shape[1] != size:
        raise DispersalError(f"cannot invert non-square matrix {source.shape}")
    work = source.astype(np.int32).copy()
    inverse = np.eye(size, dtype=np.int32)
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if work[r, col] != 0), None
        )
        if pivot_row is None:
            raise DispersalError(
                f"matrix is singular (no pivot in column {col})"
            )
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot = int(work[col, col])
        if pivot != 1:
            for j in range(size):
                work[col, j] = gf_div(int(work[col, j]), pivot)
                inverse[col, j] = gf_div(int(inverse[col, j]), pivot)
        for row in range(size):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            for j in range(size):
                work[row, j] ^= gf_mul(factor, int(work[col, j]))
                inverse[row, j] ^= gf_mul(factor, int(inverse[col, j]))
    return inverse.astype(np.uint8)


def gf_mat_rank(matrix) -> int:
    """Rank by elimination, entry by entry."""
    work = _as_matrix(matrix).astype(np.int32).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivot_row = next(
            (r for r in range(rank, rows) if work[r, col] != 0), None
        )
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[[rank, pivot_row]] = work[[pivot_row, rank]]
        inv_pivot = gf_inv(int(work[rank, col]))
        for j in range(cols):
            work[rank, j] = gf_mul(int(work[rank, j]), inv_pivot)
        for row in range(rows):
            if row == rank or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            for j in range(cols):
                work[row, j] ^= gf_mul(factor, int(work[rank, j]))
        rank += 1
        if rank == rows:
            break
    return rank


def dispersal_matrix(n_total: int, m: int) -> np.ndarray:
    """The Vandermonde matrix, one ``gf_pow`` per entry."""
    matrix = np.zeros((n_total, m), dtype=np.uint8)
    for row in range(n_total):
        for col in range(m):
            matrix[row, col] = gf_pow(row + 1, col)
    return matrix
