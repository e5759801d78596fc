"""Named workload suites: registry, functional runner, estimates.

A :class:`Workload` is one deep-learning layer expressed at two scales:

* ``sim``  -- small shapes that run end-to-end through the functional
  simulator in seconds, verified bit-exactly against the precision
  model (what CI and ``repro workloads run`` execute);
* ``full`` -- the production shapes the paper's Section I motivates
  (BERT-large, ResNet-50, LSTM), fed to the device performance model
  for predicted TFLOPS (``repro workloads estimate``).

Suites group workloads under the names users ask for (``bert``,
``resnet``, ``lstm``, ``layers``, ``smoke``).  Every simulated member
must be bit-exact against its oracle -- a suite run is a verification
sweep over the whole deep-learning scenario space, not just a demo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from ..core.hgemm import hgemm, hgemm_reference
from ..report import format_table
from .attention import AttentionSpec, attention_head, attention_head_reference
from .batched import hgemm_strided_batched, hgemm_strided_batched_reference
from .conv import ConvSpec, conv2d, conv2d_reference

__all__ = [
    "GemmShape", "Workload", "WorkloadSuite", "WorkloadResult",
    "SuiteResult", "SUITES", "get_suite", "suite_names", "run_suite",
    "estimate_suite",
]


@dataclass(frozen=True)
class GemmShape:
    """One GEMM problem: ``count`` independent instances of (m, n, k)."""

    name: str
    m: int
    n: int
    k: int
    count: int = 1

    def describe(self) -> str:
        body = f"{self.m}x{self.n}x{self.k}"
        return f"{self.count} x {body}" if self.count > 1 else body

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k * self.count


@dataclass(frozen=True)
class Workload:
    """One layer at both scales.  ``sim``/``full`` hold the kind-specific
    problem object: a :class:`GemmShape` for ``gemm``/``batched`` (its
    ``count`` is the batch), a :class:`~repro.workloads.conv.ConvSpec`
    for ``conv``, an :class:`~repro.workloads.attention.AttentionSpec`
    for ``attention``."""

    name: str
    kind: str                  # "gemm" | "batched" | "conv" | "attention"
    sim: object
    full: object
    note: str = ""

    def __post_init__(self) -> None:
        kinds = ("gemm", "batched", "conv", "attention")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")

    def problems(self, scale: str = "full") -> list:
        """The workload's GEMMs at *scale*, as :class:`GemmShape` rows."""
        obj = self._at(scale)
        if self.kind in ("gemm", "batched"):
            return [obj]
        if self.kind == "conv":
            m, n, k = obj.gemm_shape
            return [GemmShape(name=f"{self.name} im2col", m=m, n=n, k=k)]
        probs = [GemmShape(name=f"{self.name} {name}", m=m, n=n, k=k,
                           count=count)
                 for name, m, n, k, count in obj.gemm_problems()]
        return probs

    def _at(self, scale: str):
        if scale not in ("sim", "full"):
            raise ValueError(f"scale must be 'sim' or 'full', got {scale!r}")
        return self.sim if scale == "sim" else self.full


@dataclass(frozen=True)
class WorkloadSuite:
    """A named group of workloads."""

    name: str
    description: str
    workloads: tuple

    def problems(self, scale: str = "full") -> list:
        return [p for w in self.workloads for p in w.problems(scale)]


def _bert(scale_seq: int, d_model: int, heads: int) -> AttentionSpec:
    return AttentionSpec(seq=scale_seq, d_model=d_model, n_heads=heads)


#: The registry.  Simulation-scale shapes are chosen so every GEMM
#: dimension tiles on all four registry devices (m, n multiples of 64;
#: k a multiple of 32, covering Ampere's HMMA.16816 k-step).
SUITES = {}


def _register(suite: WorkloadSuite) -> WorkloadSuite:
    SUITES[suite.name] = suite
    return suite


_register(WorkloadSuite(
    name="layers",
    description="the paper's Section I motivating layer GEMMs "
                "(FC, conv-as-GEMM, LSTM, BERT projections)",
    workloads=(
        Workload("fc-classifier", "gemm",
                 sim=GemmShape("FC layer", 128, 256, 64),
                 full=GemmShape("classifier FC, batch 1024",
                                1024, 1024, 4096)),
        Workload("bert-qkv", "gemm",
                 sim=GemmShape("QKV projection", 64, 192, 64),
                 full=GemmShape("BERT-large QKV projection (seq 512)",
                                512, 3072, 1024)),
        Workload("bert-ffn-up", "gemm",
                 sim=GemmShape("FFN up", 64, 256, 64),
                 full=GemmShape("BERT-large FFN up (seq 512)",
                                512, 4096, 1024)),
        Workload("bert-ffn-down", "gemm",
                 sim=GemmShape("FFN down", 64, 64, 256),
                 full=GemmShape("BERT-large FFN down (seq 512)",
                                512, 1024, 4096)),
        Workload("lstm-cell", "gemm",
                 sim=GemmShape("LSTM gates", 64, 256, 128),
                 full=GemmShape("LSTM cell, hidden 1024, batch 256",
                                256, 4096, 2048)),
        Workload("resnet-conv-gemm", "gemm",
                 sim=GemmShape("conv3x3 as GEMM", 128, 64, 288),
                 full=GemmShape("ResNet conv3x3 as GEMM (56x56x256)",
                                3136, 256, 2304)),
    ),
))

_register(WorkloadSuite(
    name="bert",
    description="one BERT-large self-attention layer: QKV projection, "
                "per-head tall-skinny scores, rectangular P@V, output "
                "projection",
    workloads=(
        Workload("attention", "attention",
                 sim=_bert(64, 64, 1),
                 full=_bert(512, 1024, 16),
                 note="softmax runs host-side in FP32, as mixed-precision "
                      "frameworks do"),
        Workload("ffn-up", "gemm",
                 sim=GemmShape("FFN up", 64, 256, 64),
                 full=GemmShape("FFN up (seq 512)", 512, 4096, 1024)),
        Workload("ffn-down", "gemm",
                 sim=GemmShape("FFN down", 64, 64, 256),
                 full=GemmShape("FFN down (seq 512)", 512, 1024, 4096)),
    ),
))

_register(WorkloadSuite(
    name="resnet",
    description="ResNet-style convolutions lowered to GEMM via im2col",
    workloads=(
        Workload("conv3x3", "conv",
                 sim=ConvSpec(n=1, h=8, w=8, c_in=32, c_out=64, pad=1),
                 full=ConvSpec(n=1, h=56, w=56, c_in=256, c_out=256, pad=1),
                 note="NHWC x RSCK; M = N*OH*OW patch rows"),
        Workload("conv3x3-strided", "conv",
                 sim=ConvSpec(n=2, h=16, w=16, c_in=32, c_out=64,
                              pad=1, stride=2),
                 full=ConvSpec(n=1, h=56, w=56, c_in=256, c_out=512,
                               pad=1, stride=2)),
        Workload("conv1x1", "conv",
                 sim=ConvSpec(n=1, h=8, w=8, c_in=64, c_out=128, r=1, s=1),
                 full=ConvSpec(n=1, h=56, w=56, c_in=256, c_out=512,
                               r=1, s=1),
                 note="pointwise: im2col degenerates to a plain reshape"),
    ),
))

_register(WorkloadSuite(
    name="lstm",
    description="LSTM cell gates: four gate GEMMs sharing one input, "
                "run as a strided batch",
    workloads=(
        Workload("gates", "batched",
                 sim=GemmShape("gate GEMMs", 64, 64, 128, count=4),
                 full=GemmShape("gate GEMMs, hidden 1024, batch 256",
                                256, 1024, 2048, count=4),
                 note="A (the input) has batch stride 0; each gate has "
                      "its own weights"),
    ),
))

_register(WorkloadSuite(
    name="smoke",
    description="one small member of every workload kind (CI suite)",
    workloads=(
        Workload("gemm", "gemm",
                 sim=GemmShape("square", 64, 64, 32),
                 full=GemmShape("square", 4096, 4096, 4096)),
        Workload("batched", "batched",
                 sim=GemmShape("batch", 64, 64, 32, count=2),
                 full=GemmShape("batch", 512, 512, 512, count=8)),
        Workload("conv", "conv",
                 sim=ConvSpec(n=1, h=8, w=8, c_in=32, c_out=64, pad=1),
                 full=ConvSpec(n=8, h=28, w=28, c_in=128, c_out=128, pad=1)),
        Workload("attention", "attention",
                 sim=_bert(64, 64, 1),
                 full=_bert(512, 512, 8)),
    ),
))


def suite_names() -> list:
    return sorted(SUITES)


def get_suite(name) -> WorkloadSuite:
    """Look up a suite by name (or pass a :class:`WorkloadSuite` through)."""
    if isinstance(name, WorkloadSuite):
        return name
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload suite {name!r}; known: {suite_names()}"
        ) from None


# ------------------------------------------------------ functional runner

@dataclass
class WorkloadResult:
    """One workload executed through the functional simulator."""

    workload: str
    kind: str
    shape: str
    exact: bool
    instructions: int = 0
    mma: int = 0
    ctas: int = 0
    launches: int = 1
    message: str = ""


@dataclass
class SuiteResult:
    """All workloads of one suite run."""

    suite: str
    device: str
    scale: str
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.exact for r in self.results)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.results)

    def table(self) -> str:
        rows = [(r.workload, r.kind, r.shape, r.launches, r.instructions,
                 r.mma, "yes" if r.exact else "NO")
                for r in self.results]
        return format_table(
            ["workload", "kind", "GEMM", "launches", "instructions",
             "MMA", "bit-exact"],
            rows, title=f"workload suite '{self.suite}' on {self.device} "
                        f"({self.scale} scale)")

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [self.table(),
                 f"{status}: {sum(r.exact for r in self.results)}/"
                 f"{len(self.results)} workloads bit-exact vs the "
                 "precision model"]
        for r in self.results:
            if not r.exact:
                lines.append(f"  FAIL {r.workload}: {r.message}")
        return "\n".join(lines)


def _run_gemm(shape: GemmShape, spec, kernel, rng):
    a = rng.uniform(-1, 1, (shape.m, shape.k)).astype(np.float16)
    b = rng.uniform(-1, 1, (shape.k, shape.n)).astype(np.float16)
    run = hgemm(a, b, kernel=kernel, spec=spec, return_run=True)
    oracle = hgemm_reference(a, b, w_k=run.config.w_k)
    stats = {"instructions": run.stats.instructions_retired,
             "mma": run.stats.opcode_counts.get("HMMA", 0),
             "ctas": run.stats.ctas_run, "launches": 1}
    return bool(np.array_equal(run.c, oracle)), stats


def _run_batched(shape: GemmShape, spec, kernel, rng):
    # Shared input (stride 0), per-entry weights: the LSTM-gate layout.
    a = rng.uniform(-1, 1, (shape.m, shape.k)).astype(np.float16)
    b = rng.uniform(-1, 1, (shape.count, shape.k, shape.n)).astype(np.float16)
    run = hgemm_strided_batched(a, b, kernel=kernel, spec=spec,
                                return_run=True)
    oracle = hgemm_strided_batched_reference(a, b, w_k=run.config.w_k)
    stats = {"instructions": run.instructions, "mma": run.mma,
             "ctas": run.ctas, "launches": run.launches}
    return bool(np.array_equal(run.c, oracle)), stats


def _run_conv(conv: ConvSpec, spec, kernel, rng):
    x = rng.uniform(-1, 1, (conv.n, conv.h, conv.w,
                            conv.c_in)).astype(np.float16)
    w = rng.uniform(-0.5, 0.5, (conv.r, conv.s, conv.c_in,
                                conv.c_out)).astype(np.float16)
    run = conv2d(x, w, conv, device=spec, kernel=kernel, return_run=True)
    oracle = conv2d_reference(x, w, conv, w_k=run.config.w_k)
    out = run.c.reshape(oracle.shape)
    stats = {"instructions": run.stats.instructions_retired,
             "mma": run.stats.opcode_counts.get("HMMA", 0),
             "ctas": run.stats.ctas_run, "launches": 1}
    return bool(np.array_equal(out, oracle)), stats


def _run_attention(att: AttentionSpec, spec, kernel, rng):
    heads_exact = True
    stats = {"instructions": 0, "mma": 0, "ctas": 0, "launches": 0}
    for _head in range(att.n_heads):
        q = rng.uniform(-1, 1, (att.seq, att.d_head)).astype(np.float16)
        k = rng.uniform(-1, 1, (att.seq, att.d_head)).astype(np.float16)
        v = rng.uniform(-1, 1, (att.seq, att.d_head)).astype(np.float16)
        out, head_stats = attention_head(q, k, v, device=spec, kernel=kernel)
        oracle = attention_head_reference(q, k, v, device=spec, kernel=kernel)
        heads_exact &= bool(np.array_equal(out, oracle))
        for key in stats:
            stats[key] += head_stats[key]
    return heads_exact, stats


_RUNNERS = {"gemm": _run_gemm, "batched": _run_batched,
            "conv": _run_conv, "attention": _run_attention}


def run_suite(suite, spec: GpuSpec = RTX2070, scale: str = "sim",
              kernel="ours", seed: int = 0) -> SuiteResult:
    """Run every workload of *suite* through the functional simulator.

    Each member executes the real generated kernel and is checked
    bit-exactly against its precision-model oracle.  ``scale='sim'``
    (the default) uses the small shapes; ``scale='full'`` runs the
    production shapes -- only advisable with a warm cache and patience.
    """
    suite = get_suite(suite)
    out = SuiteResult(suite=suite.name, device=spec.name, scale=scale)
    for i, workload in enumerate(suite.workloads):
        problem = workload._at(scale)
        rng = np.random.default_rng(seed * 1000 + i)
        shape = ", ".join(p.describe() for p in workload.problems(scale))
        try:
            exact, stats = _RUNNERS[workload.kind](problem, spec, kernel, rng)
            out.results.append(WorkloadResult(
                workload=workload.name, kind=workload.kind, shape=shape,
                exact=exact, message="" if exact else "result differs "
                "from the precision model", **stats))
        except Exception as exc:
            out.results.append(WorkloadResult(
                workload=workload.name, kind=workload.kind, shape=shape,
                exact=False, message=str(exc)))
    return out


# ----------------------------------------------------------- estimates

def estimate_suite(suite, spec: GpuSpec = RTX2070, scale: str = "full",
                   model=None, baseline: bool = True,
                   max_workers: int = None) -> list:
    """Performance-model estimates for every GEMM of *suite* at *scale*.

    Returns rows of ``(GemmShape, tile_label, estimate, baseline_est)``
    where the tile label is the winning member of the kernel family
    (the big 256x256 tile vs the small-layer 128x128 variant -- the
    shape-aware selection a production library performs) and
    ``baseline_est`` is the cuBLAS-like estimate with its documented
    quirks (None with ``baseline=False``).  ``model`` shares SM-profile
    caches across calls.
    """
    from ..analysis.perf_model import PerformanceModel
    from ..core.config import cublas_like, ours

    suite = get_suite(suite)
    pm = model or PerformanceModel(spec)
    family = {
        "256x256": ours(),
        "128x128": ours(b_m=128, b_n=128, w_m=64, w_n=64, name="ours-small"),
    }
    pm.profile_many(list(family.values()) + ([cublas_like()] if baseline
                                             else []),
                    max_workers=max_workers)
    rows = []
    for problem in suite.problems(scale):
        candidates = {label: pm.estimate(cfg, problem.m, problem.n, problem.k)
                      for label, cfg in family.items()}
        label = max(candidates, key=lambda key: candidates[key].tflops)
        base = None
        if baseline:
            base = pm.estimate(cublas_like(), problem.m, problem.n,
                               problem.k, baseline_quirks=True)
        rows.append((problem, label, candidates[label], base))
    return rows


def format_estimates(rows, spec: GpuSpec, title: str = "") -> str:
    """Render :func:`estimate_suite` rows as the layer-performance table."""
    table = []
    for problem, label, est, base in rows:
        row = [problem.name, problem.describe(), label,
               round(est.tflops, 1)]
        if base is not None:
            row += [round(base.tflops, 1), round(est.tflops / base.tflops, 2)]
        row.append(est.bound)
        table.append(tuple(row))
    headers = ["layer", "GEMM", "tile", "ours TFLOPS"]
    if rows and rows[0][3] is not None:
        headers += ["cuBLAS TFLOPS", "speedup"]
    headers.append("bound")
    return format_table(headers, table,
                        title=title or "Predicted layer GEMM performance "
                        f"on {spec.name} (shape-aware tile selection)")
