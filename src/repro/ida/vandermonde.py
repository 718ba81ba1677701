"""Dispersal matrices with the "any m rows independent" property.

Rabin's construction needs an ``N x m`` matrix ``[x_ij]`` over the field
such that *every* choice of ``m`` rows is mutually independent, so that
the reconstruction submatrix is always invertible (Section 2.1).  A
Vandermonde matrix over distinct evaluation points delivers this: row
``i`` is ``(1, x_i, x_i^2, ..., x_i^{m-1})`` and any ``m`` rows form a
square Vandermonde matrix with distinct nodes, whose determinant
``prod_{i<j} (x_i - x_j)`` is non-zero.

The *systematic* variant post-multiplies by the inverse of the top
``m x m`` block, turning the first ``m`` rows into the identity - the
first ``m`` dispersed blocks are then the plaintext segments themselves.
Right-multiplication by an invertible matrix preserves the any-``m``-rows
property (each submatrix is the original submatrix times the same
invertible factor), so the variant is equally sound while making AIDA's
"no redundancy" operating point free of decoding cost.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DispersalError
from repro.ida.gf256 import EXP_TABLE, GF_ORDER, LOG_TABLE
from repro.ida.matrix import gf_mat_inv, gf_mat_mul


def dispersal_matrix(n_total: int, m: int) -> np.ndarray:
    """The ``n_total x m`` Vandermonde dispersal matrix.

    Evaluation points are the field elements ``1 .. n_total`` (distinct and
    non-zero), so at most ``GF_ORDER - 1 = 255`` rows are available; the
    paper's block-size discussion (Section 5) notes that the dispersal
    level ``m`` is in practice far below this.

    Raises
    ------
    DispersalError
        If ``m < 1``, ``n_total < m``, or ``n_total > 255``.
    """
    if m < 1:
        raise DispersalError(f"dispersal level m={m} must be >= 1")
    if n_total < m:
        raise DispersalError(
            f"total blocks N={n_total} must be >= dispersal level m={m}"
        )
    if n_total > GF_ORDER - 1:
        raise DispersalError(
            f"N={n_total} exceeds the field limit of {GF_ORDER - 1} rows"
        )
    # Row i evaluates point i + 1 (distinct, non-zero): entry (i, k) is
    # (i + 1) ** k = EXP[LOG[i + 1] * k mod 255], one gather for all.
    logs = LOG_TABLE[1:n_total + 1]
    return EXP_TABLE[(logs[:, None] * np.arange(m)) % (GF_ORDER - 1)]


def systematic_dispersal_matrix(n_total: int, m: int) -> np.ndarray:
    """Dispersal matrix whose first ``m`` rows are the identity.

    Built as ``V @ inv(V[:m])`` from the Vandermonde matrix ``V``; see the
    module docstring for why the any-``m``-rows property is preserved.
    """
    vandermonde = dispersal_matrix(n_total, m)
    top_inverse = gf_mat_inv(vandermonde[:m])
    return gf_mat_mul(vandermonde, top_inverse)


def reconstruction_matrix(
    matrix: np.ndarray, row_indices: list[int] | tuple[int, ...]
) -> np.ndarray:
    """Inverse of the submatrix picked out by ``row_indices``.

    This is the paper's ``[y_ij] = [x'_ij]^-1`` step: the receiver selects
    the rows matching the ``m`` blocks it actually obtained and inverts
    that square submatrix.  The indices must be distinct and in range.
    """
    m = matrix.shape[1]
    indices = list(row_indices)
    if len(indices) != m:
        raise DispersalError(
            f"need exactly m={m} row indices, got {len(indices)}"
        )
    if len(set(indices)) != len(indices):
        raise DispersalError(f"row indices must be distinct: {indices}")
    if any(not 0 <= i < matrix.shape[0] for i in indices):
        raise DispersalError(
            f"row indices out of range [0, {matrix.shape[0]}): {indices}"
        )
    return gf_mat_inv(matrix[indices, :])
