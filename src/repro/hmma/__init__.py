"""Demystified Tensor Core semantics: fragment layouts and HMMA execution.

This package implements the paper's Section IV findings as executable code:
the 8x8 "warp register" fragment layouts (Figs. 1-2) and the functional
behaviour of the ``HMMA.1688`` instruction family.
"""

from .fp16 import (
    HALF,
    as_half,
    bits_to_half,
    gemm_flops,
    half_bits,
    pack_half2,
    ulp_distance,
    unpack_half2,
)
from .fragments import (
    COL_MAJOR,
    ROW_MAJOR,
    WARP_SIZE,
    FragmentLayout,
    elements_of_lane,
    fragment_to_matrix,
    fragments_f32_to_matrix16x8,
    fragments_to_matrix16x8,
    hmma_operand_layouts,
    lane_map,
    lane_of_element,
    matrix16x8_to_fragments,
    matrix16x8_to_fragments_f32,
    matrix_to_fragment,
)
from .int8 import (
    IMMA_8816_OPS,
    fragment_a_to_int8_matrix,
    fragment_b_to_int8_matrix,
    fragments_to_s32_matrix,
    imma_8816,
    int8_matrix_to_fragment_a,
    int8_matrix_to_fragment_b,
    s32_matrix_to_fragments,
)
from .mma import (
    HMMA_1688_FLOPS,
    hmma_1688_f16,
    hmma_1688_f32,
    hmma_884_f16,
    mma_reference,
)

__all__ = [
    "HALF",
    "as_half",
    "bits_to_half",
    "gemm_flops",
    "half_bits",
    "pack_half2",
    "ulp_distance",
    "unpack_half2",
    "COL_MAJOR",
    "ROW_MAJOR",
    "WARP_SIZE",
    "FragmentLayout",
    "elements_of_lane",
    "fragment_to_matrix",
    "fragments_f32_to_matrix16x8",
    "fragments_to_matrix16x8",
    "hmma_operand_layouts",
    "lane_map",
    "lane_of_element",
    "matrix16x8_to_fragments",
    "matrix16x8_to_fragments_f32",
    "matrix_to_fragment",
    "IMMA_8816_OPS",
    "fragment_a_to_int8_matrix",
    "fragment_b_to_int8_matrix",
    "fragments_to_s32_matrix",
    "imma_8816",
    "int8_matrix_to_fragment_a",
    "int8_matrix_to_fragment_b",
    "s32_matrix_to_fragments",
    "HMMA_1688_FLOPS",
    "hmma_1688_f16",
    "hmma_1688_f32",
    "hmma_884_f16",
    "mma_reference",
]
