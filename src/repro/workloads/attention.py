"""Attention-shaped GEMMs: the transformer problems the paper never ran.

One attention head is two chained GEMMs with a softmax between them:

* ``S = Q @ K^T`` -- a *tall-skinny* problem ``(seq x seq x d_head)``:
  the contracted dimension is tiny (64 in BERT), so the kernel runs few
  k-iterations per CTA and the launch is fixed-cost dominated;
* ``O = P @ V`` -- a *rectangular* problem ``(seq x d_head x seq)``:
  a long contraction onto a narrow output, the shape where FP16
  accumulation error grows fastest (every output element sums ``seq``
  products -- see :mod:`repro.numerics`).

Both run through the real generated kernel on the functional simulator.
The softmax itself is not a Tensor Core op on any generation this
family models; it executes host-side in float32 and rounds to float16,
the way frameworks run mixed-precision attention (matmuls on Tensor
Cores, reductions in FP32).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from ..core.hgemm import hgemm, hgemm_reference, resolve_config

__all__ = ["AttentionSpec", "attention_head", "attention_head_reference"]


@dataclass(frozen=True)
class AttentionSpec:
    """Shape of one multi-head self-attention layer."""

    seq: int           # sequence length (rows of Q/K/V)
    d_model: int       # model width
    n_heads: int

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model={self.d_model} is not divisible by "
                             f"n_heads={self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def gemm_problems(self) -> list:
        """The layer's GEMMs as (name, m, n, k, count) tuples.

        ``count`` is how many independent instances one layer launches
        (per-head score/output GEMMs are a batch of ``n_heads``).
        """
        return [
            ("QKV projection", self.seq, 3 * self.d_model, self.d_model, 1),
            ("scores Q@K^T", self.seq, self.seq, self.d_head, self.n_heads),
            ("output P@V", self.seq, self.d_head, self.seq, self.n_heads),
            ("out projection", self.seq, self.d_model, self.d_model, 1),
        ]


def _softmax_rows_f16(scores: np.ndarray, scale: float) -> np.ndarray:
    """Row softmax of *scores* in float32, rounded once to float16.

    The max-subtraction form is what every framework ships; running it
    in float32 keeps the reduction out of the half-precision error
    budget so the GEMMs' contribution stays isolated.
    """
    s32 = scores.astype(np.float32) * np.float32(scale)
    s32 -= s32.max(axis=1, keepdims=True)
    e = np.exp(s32)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float16)


def attention_head(q, k, v, device: GpuSpec = RTX2070, kernel="ours"):
    """One attention head on the simulated device.

    Args:
        q, k, v: (seq, d_head) float16 matrices.

    Returns:
        (out, stats) -- the (seq, d_head) float16 context output, and a
        dict of aggregate launch statistics (instructions, HMMA count,
        CTAs) over the two GEMMs.
    """
    q16 = np.ascontiguousarray(q, dtype=np.float16)
    k16 = np.ascontiguousarray(k, dtype=np.float16)
    v16 = np.ascontiguousarray(v, dtype=np.float16)
    seq, d_head = q16.shape
    if k16.shape != (seq, d_head) or v16.shape != (seq, d_head):
        raise ValueError(f"Q/K/V must all be ({seq}, {d_head}); got "
                         f"K{k16.shape}, V{v16.shape}")
    scores = hgemm(q16, np.ascontiguousarray(k16.T), kernel=kernel,
                   spec=device, return_run=True)
    p = _softmax_rows_f16(scores.c, 1.0 / np.sqrt(d_head))
    out = hgemm(p, v16, kernel=kernel, spec=device, return_run=True)
    stats = {
        "instructions": (scores.stats.instructions_retired
                         + out.stats.instructions_retired),
        "mma": (scores.stats.opcode_counts.get("HMMA", 0)
                + out.stats.opcode_counts.get("HMMA", 0)),
        "ctas": scores.stats.ctas_run + out.stats.ctas_run,
        "launches": 2,
    }
    return out.c, stats


def attention_head_reference(q, k, v, device: GpuSpec = RTX2070,
                             kernel="ours") -> np.ndarray:
    """Precision-model oracle for :func:`attention_head`.

    Uses the same host-side softmax and the per-``w_k`` step-rounding
    GEMM model, with each GEMM's ``w_k`` taken from the kernel the
    driver would resolve for that shape on *device* -- bit-exact against
    the simulated head.
    """
    q16 = np.ascontiguousarray(q, dtype=np.float16)
    k16 = np.ascontiguousarray(k, dtype=np.float16)
    v16 = np.ascontiguousarray(v, dtype=np.float16)
    seq, d_head = q16.shape
    cfg_scores = resolve_config(kernel, seq, seq, d_head, spec=device)
    scores = hgemm_reference(q16, np.ascontiguousarray(k16.T),
                             w_k=cfg_scores.w_k)
    p = _softmax_rows_f16(scores, 1.0 / np.sqrt(d_head))
    cfg_out = resolve_config(kernel, seq, d_head, seq, spec=device)
    return hgemm_reference(p, v16, w_k=cfg_out.w_k)
