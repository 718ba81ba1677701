"""Rabin's Information Dispersal Algorithm and Bestavros' adaptive AIDA.

This subpackage is the fault-tolerance substrate of the paper's Section 2:

* :mod:`repro.ida.gf256` - arithmetic in GF(2^8) (the "irreducible
  polynomial arithmetic" of Rabin's construction): table-driven scalar
  operations, and array operations that each gather from one 64 KiB
  product table;
* :mod:`repro.ida.matrix` - Gauss-Jordan inversion (on whole rows) and
  multiplication of matrices over the field;
* :mod:`repro.ida.vandermonde` - dispersal matrices ``[x_ij]`` (N x m)
  any ``m`` rows of which are mutually independent, plus the systematic
  variant whose first ``m`` blocks are the plaintext;
* :mod:`repro.ida.dispersal` - dispersal of a byte string into ``N``
  blocks such that any ``m`` reconstruct it exactly (Figure 3);
* :mod:`repro.ida.blocks` - self-identifying blocks ("this is block 4 out
  of 5 of object Z") and their wire codec;
* :mod:`repro.ida.aida` - the AIDA bandwidth-allocation step that scales
  transmitted redundancy between ``m`` (none) and ``N`` (maximum), per
  operation mode (Figure 4).
"""

from repro.ida.gf256 import (
    GF_ORDER,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
)
from repro.ida.matrix import (
    gf_identity,
    gf_mat_inv,
    gf_mat_mul,
    gf_mat_rank,
    is_nonsingular,
)
from repro.ida.vandermonde import (
    dispersal_matrix,
    systematic_dispersal_matrix,
)
from repro.ida.blocks import Block, decode_block, encode_block
from repro.ida.dispersal import disperse, reconstruct
from repro.ida.aida import (
    AidaEncoder,
    RedundancyPolicy,
    bandwidth_allocation,
    tolerable_faults,
)

__all__ = [
    "GF_ORDER",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "gf_pow",
    "gf_identity",
    "gf_mat_inv",
    "gf_mat_mul",
    "gf_mat_rank",
    "is_nonsingular",
    "dispersal_matrix",
    "systematic_dispersal_matrix",
    "Block",
    "decode_block",
    "encode_block",
    "disperse",
    "reconstruct",
    "AidaEncoder",
    "RedundancyPolicy",
    "bandwidth_allocation",
    "tolerable_faults",
]
