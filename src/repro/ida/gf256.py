"""Arithmetic in the finite field GF(2^8).

Rabin's IDA performs its linear transformations "in the domain of a
particular irreducible polynomial"; we use the field of 256 elements with
the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D, the classic
Reed-Solomon modulus) and generator 2.  Bytes are field elements, addition
is XOR, and multiplication goes through discrete logarithms:

    a * b = EXP[LOG[a] + LOG[b]]          (a, b != 0)

The exp table is doubled in length so products of logs never need a
modular reduction.  From the two, :data:`MUL_TABLE` tabulates every
product once at import: 256 x 256 bytes (64 KiB), ``MUL_TABLE[a, b] =
a * b``, zeros included.  Every array operation - a scalar times a byte
row, a matrix times a stack of byte rows, the row operations of
:mod:`repro.ida.matrix` - is one numpy gather from it, so no Python loop
runs per coefficient or per byte.  That is what makes dispersal of
megabyte payloads, and the payload check of every sweep cell, cheap in
pure Python (see ``benchmarks/bench_ida_throughput.py`` and
``benchmarks/bench_sweep_dispatch.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DispersalError

#: Number of field elements.
GF_ORDER = 256

#: Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
PRIMITIVE_POLY = 0x11D

#: Multiplicative generator of the field.
GENERATOR = 2

#: Products one :func:`gf_matvec_bytes` chunk gathers at most: a
#: ``rows x m`` matrix runs over column chunks of ``GATHER_PRODUCTS //
#: (rows * m)`` bytes, so its index and product temporaries stay near
#: 1 MiB whatever the shape.  An 8-of-16 dispersal gathers 1 KiB of each
#: payload row per chunk, and a sweep cell's payloads (tens of bytes)
#: fit one chunk.
GATHER_PRODUCTS = 1 << 17


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build EXP (length 512) and LOG (length 256) tables."""
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate so EXP[i + j] works for i, j in [0, 255).
    exp[255:510] = exp[:255]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


def _build_product_table() -> np.ndarray:
    """``MUL[a, b] = a * b`` for every pair of field elements."""
    logs = LOG_TABLE[1:]
    table = np.zeros((GF_ORDER, GF_ORDER), dtype=np.uint8)
    table[1:, 1:] = EXP_TABLE[logs[:, None] + logs[None, :]]
    return table


#: The full multiplication table (row ``a`` is "times ``a``").
MUL_TABLE = _build_product_table()

# Flat view for gathers keyed ``(a << 8) | b``.
_PRODUCTS = MUL_TABLE.ravel()


def gf_add(a: int, b: int) -> int:
    """Field addition (= subtraction): bitwise XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Field multiplication: one product-table lookup."""
    return int(MUL_TABLE[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise DispersalError("zero has no multiplicative inverse in GF(256)")
    return int(EXP_TABLE[255 - int(LOG_TABLE[a])])


def gf_div(a: int, b: int) -> int:
    """Field division ``a / b``; raises on division by zero."""
    if b == 0:
        raise DispersalError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP_TABLE[int(LOG_TABLE[a]) - int(LOG_TABLE[b]) + 255])


def gf_pow(a: int, exponent: int) -> int:
    """Field exponentiation ``a ** exponent`` (exponent >= 0)."""
    if exponent < 0:
        raise DispersalError("negative exponents unsupported; use gf_inv")
    if exponent == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) * exponent) % 255])


def gf_mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by ``scalar`` (vectorized).

    ``data`` must be a uint8 array; the result is a new uint8 array of
    its shape, gathered from the product table's row ``scalar``.
    """
    return MUL_TABLE[scalar][data]


def gf_matvec_bytes(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(256) matrix product ``matrix @ data`` on byte arrays.

    ``matrix`` is ``(rows, m)`` uint8, ``data`` is ``(m, width)`` uint8;
    the result is ``(rows, width)``.  Each column chunk is one gather of
    every product ``matrix[r, k] * data[k, c]`` (flat product-table key
    ``(matrix[r, k] << 8) | data[k, c]``), XOR-reduced over ``k``.
    """
    rows, m = matrix.shape
    if data.shape[0] != m:
        raise DispersalError(
            f"shape mismatch: matrix is {matrix.shape}, data {data.shape}"
        )
    width = data.shape[1]
    out = np.zeros((rows, width), dtype=np.uint8)
    if not m:
        return out
    high = (matrix.astype(np.intp) << 8)[:, :, None]
    step = max(1, GATHER_PRODUCTS // max(1, rows * m))
    for lo in range(0, width, step):
        np.bitwise_xor.reduce(
            _PRODUCTS[high | data[:, lo:lo + step]],
            axis=1,
            out=out[:, lo:lo + step],
        )
    return out
