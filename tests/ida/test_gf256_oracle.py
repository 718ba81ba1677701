"""The product-table gathers against the scalar GF(256) loops.

Every array operation of :mod:`repro.ida.gf256`, :mod:`repro.ida.matrix`
and :mod:`repro.ida.vandermonde` must equal the coefficient-by-coefficient
loop of :mod:`gf256_reference` byte for byte, including the error it
raises and the text of that error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gf256_reference as reference
from repro.errors import DispersalError
from repro.ida import dispersal, gf256, matrix as gf_matrix, vandermonde
from repro.ida.gf256 import MUL_TABLE


@st.composite
def byte_matrices(draw, rows, cols):
    """uint8 matrices of a given shape: seeded bytes with a drawn share
    of zero entries, and sometimes a whole zero row or column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    zeros = draw(st.sampled_from([0.0, 0.3, 0.8]))
    values[rng.random((rows, cols)) < zeros] = 0
    if rows and draw(st.booleans()):
        values[draw(st.integers(0, rows - 1))] = 0
    if cols and draw(st.booleans()):
        values[:, draw(st.integers(0, cols - 1))] = 0
    return values


#: Matrix sides: mostly small, up to m = 32.
sides = st.one_of(st.integers(0, 6), st.integers(7, 32))


@st.composite
def products(draw, max_rows=12):
    """``(matrix, data, budget)``: the budget sets the chunk width, so
    widths land on both sides of a chunk boundary."""
    rows = draw(st.integers(0, max_rows))
    m = draw(sides)
    budget = draw(st.sampled_from([1, 7, 64, 1000, gf256.GATHER_PRODUCTS]))
    step = max(1, budget // max(1, rows * m))
    width = draw(
        st.one_of(
            st.integers(0, 3),
            st.sampled_from([step - 1, step, step + 1, 2 * step + 1]).filter(
                lambda w: 0 <= w <= 600
            ),
            st.integers(0, 300),
        )
    )
    matrix = draw(byte_matrices(rows, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(0, 256, (m, width), dtype=np.uint8)
    if m and width and draw(st.booleans()):
        data[draw(st.integers(0, m - 1))] = 0  # a zero data row
    return matrix, data, budget


class TestProductTable:
    def test_every_product_matches_the_log_exp_tables(self):
        for a in range(256):
            row = [reference.gf_mul(a, b) for b in range(256)]
            assert MUL_TABLE[a].tolist() == row

    def test_table_is_64_kib_of_bytes(self):
        assert MUL_TABLE.shape == (256, 256)
        assert MUL_TABLE.dtype == np.uint8
        assert MUL_TABLE.nbytes == 64 * 1024


class TestByteKernels:
    @given(
        scalar=st.integers(0, 255),
        data=st.binary(min_size=0, max_size=300),
    )
    def test_mul_bytes(self, scalar, data):
        array = np.frombuffer(data, dtype=np.uint8)
        out = gf256.gf_mul_bytes(scalar, array)
        assert out.dtype == np.uint8
        assert out.tolist() == reference.gf_mul_bytes(scalar, array).tolist()

    @given(case=products())
    @settings(max_examples=150, deadline=None)
    def test_matvec(self, case):
        matrix, data, budget = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf256, "GATHER_PRODUCTS", budget)
            out = gf256.gf_matvec_bytes(matrix, data)
        expected = reference.gf_matvec_bytes(matrix, data)
        assert out.dtype == np.uint8 and out.shape == expected.shape
        assert (out == expected).all()

    @pytest.mark.parametrize("width", [1, 1023, 1024, 1025, 2049])
    def test_matvec_at_the_default_chunk_boundary(self, width):
        # 16 x 8 (an 8-of-16 dispersal) gathers 1 KiB columns per chunk.
        rng = np.random.default_rng(width)
        matrix = rng.integers(0, 256, (16, 8), dtype=np.uint8)
        data = rng.integers(0, 256, (8, width), dtype=np.uint8)
        assert gf256.GATHER_PRODUCTS // (16 * 8) == 1024
        assert (
            gf256.gf_matvec_bytes(matrix, data)
            == reference.gf_matvec_bytes(matrix, data)
        ).all()


class TestMatrixKernels:
    @given(
        shape=st.tuples(
            st.integers(0, 10), sides, st.integers(0, 10)
        ).flatmap(
            lambda dims: st.tuples(
                byte_matrices(dims[0], dims[1]),
                byte_matrices(dims[1], dims[2]),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mat_mul(self, shape):
        left, right = shape
        out = gf_matrix.gf_mat_mul(left, right)
        assert (out == reference.gf_mat_mul(left, right)).all()
        assert out.shape == (left.shape[0], right.shape[1])

    @given(square=sides.flatmap(lambda m: byte_matrices(m, m)))
    @settings(max_examples=60, deadline=None)
    def test_mat_inv_and_singular_texts(self, square):
        try:
            expected = reference.gf_mat_inv(square)
        except DispersalError as error:
            with pytest.raises(DispersalError) as raised:
                gf_matrix.gf_mat_inv(square)
            assert str(raised.value) == str(error)
        else:
            out = gf_matrix.gf_mat_inv(square)
            assert out.dtype == np.uint8
            assert (out == expected).all()

    @given(
        dims=st.tuples(sides, sides),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_mat_rank(self, dims, data):
        source = data.draw(byte_matrices(*dims))
        assert gf_matrix.gf_mat_rank(source) == reference.gf_mat_rank(source)
        if dims[0] == dims[1]:
            assert gf_matrix.is_nonsingular(source) == (
                reference.gf_mat_rank(source) == dims[0]
            )

    @pytest.mark.parametrize("m", [1, 2, 6, 32])
    def test_vandermonde_inverses(self, m):
        full = vandermonde.dispersal_matrix(m + 3, m)
        assert (full == reference.dispersal_matrix(m + 3, m)).all()
        top = full[:m]
        assert (
            gf_matrix.gf_mat_inv(top) == reference.gf_mat_inv(top)
        ).all()
        systematic = vandermonde.systematic_dispersal_matrix(m + 3, m)
        assert (
            systematic
            == reference.gf_mat_mul(full, reference.gf_mat_inv(top))
        ).all()


class TestErrorTexts:
    """Every DispersalError the kernels raise, word for word."""

    CASES = [
        (
            lambda: gf256.gf_matvec_bytes(
                np.zeros((2, 3), dtype=np.uint8),
                np.zeros((2, 4), dtype=np.uint8),
            ),
            "shape mismatch: matrix is (2, 3), data (2, 4)",
        ),
        (
            lambda: gf_matrix.gf_mat_mul(np.zeros(3), np.zeros((3, 1))),
            "expected a 2-D matrix, got shape (3,)",
        ),
        (
            lambda: gf_matrix.gf_mat_mul(np.zeros((2, 3)), np.zeros((2, 3))),
            "cannot multiply (2, 3) by (2, 3): inner dims differ",
        ),
        (
            lambda: gf_matrix.gf_mat_inv(np.zeros((2, 3), dtype=np.uint8)),
            "cannot invert non-square matrix (2, 3)",
        ),
        (
            lambda: gf_matrix.gf_mat_inv(np.zeros((2, 2, 2), dtype=np.uint8)),
            "expected a 2-D matrix, got shape (2, 2, 2)",
        ),
        (
            lambda: gf_matrix.gf_mat_inv(
                np.array([[1, 2], [1, 2]], dtype=np.uint8)
            ),
            "matrix is singular (no pivot in column 1)",
        ),
        (
            lambda: gf_matrix.gf_mat_inv(np.zeros((3, 3), dtype=np.uint8)),
            "matrix is singular (no pivot in column 0)",
        ),
        (
            lambda: gf_matrix.gf_mat_rank([1, 2, 3]),
            "expected a 2-D matrix, got shape (3,)",
        ),
        (
            lambda: gf256.gf_inv(0),
            "zero has no multiplicative inverse in GF(256)",
        ),
        (lambda: gf256.gf_div(3, 0), "division by zero in GF(256)"),
        (
            lambda: gf256.gf_pow(2, -1),
            "negative exponents unsupported; use gf_inv",
        ),
        (
            lambda: vandermonde.dispersal_matrix(256, 2),
            "N=256 exceeds the field limit of 255 rows",
        ),
    ]

    @pytest.mark.parametrize("call, text", CASES)
    def test_text(self, call, text):
        with pytest.raises(DispersalError) as raised:
            call()
        assert str(raised.value) == text


class TestDispersalBytes:
    @given(
        payload=st.binary(min_size=0, max_size=400),
        m=st.integers(1, 8),
        extra=st.integers(0, 8),
        systematic=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_and_reconstruction_match_the_scalar_product(
        self, payload, m, extra, systematic, data
    ):
        n_total = m + extra
        blocks = dispersal.disperse(
            payload, m, n_total, systematic=systematic
        )
        matrix = (
            vandermonde.systematic_dispersal_matrix(n_total, m)
            if systematic
            else vandermonde.dispersal_matrix(n_total, m)
        )
        width = max(1, -(-len(payload) // m))
        padded = np.zeros(m * width, dtype=np.uint8)
        padded[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        expected = reference.gf_matvec_bytes(matrix, padded.reshape(m, width))
        assert [block.payload for block in blocks] == [
            row.tobytes() for row in expected
        ]
        chosen = data.draw(
            st.lists(
                st.integers(0, n_total - 1),
                min_size=m,
                max_size=m,
                unique=True,
            )
        )
        assert dispersal.reconstruct([blocks[i] for i in chosen]) == payload
