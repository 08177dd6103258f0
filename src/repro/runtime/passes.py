"""The compile pass pipeline: named transformations over the graph IR.

:func:`repro.runtime.compile_model` builds an empty
:class:`~repro.runtime.ir.Graph` and hands it to a :class:`PassManager`
running the standard sequence::

    lower → fold_bn → fuse_epilogues → winograd → [quantize]
          → link_halos → assign_arenas → finalize

Each pass is a named, independently-testable function
``(graph, ctx) -> note`` registered in :data:`PASS_REGISTRY`:

| pass             | what it does                                                |
|------------------|-------------------------------------------------------------|
| ``lower``        | walk the module tree (``lowering_sequence``/``_branches``   |
|                  | hooks) into unfused graph nodes + layout conversions        |
| ``fold_bn``      | fold every conv→BN pair into the conv's weight/bias         |
| ``fuse_epilogues``| absorb a following ReLU into conv/linear/BN epilogues      |
| ``winograd``     | mark eligible 3x3/s1 convs for the F(m,3) fast path         |
| ``quantize``     | rewrite eligible convs to the int8 execution form           |
| ``link_halos``   | point producers at their consumer's padded input buffer     |
| ``assign_arenas``| check/record the workspace-tag manifest arenas key on       |
| ``finalize``     | append the exit layout conversion, build GEMM operands,     |
|                  | verify the finished graph                                   |

Passes declare ordering constraints (``after``/``before``);
:class:`PassManager` validates them at construction, so an
out-of-order pipeline (quantize before BN folding, halo linking before
fusion) fails loudly instead of producing a subtly wrong model. After
every pass the graph re-verifies its structural invariants
(:meth:`~repro.runtime.ir.Graph.verify`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from .ir import Graph, TensorMeta

__all__ = [
    "CompileContext",
    "Pass",
    "PassRecord",
    "PassManager",
    "PASS_REGISTRY",
    "compiler_pass",
    "default_passes",
]


@dataclass
class CompileContext:
    """Everything the passes need to know about one compilation.

    Inputs come from :func:`repro.runtime.compile_model`'s arguments;
    the pass pipeline fills in the output fields (``quant_report``,
    ``arena_manifest``) as it runs.
    """

    model: object
    dtype: Optional[np.dtype] = None
    quantize: Optional[object] = None  # resolved QuantizationConfig
    calibration: Optional[np.ndarray] = None
    input_shape: Optional[Tuple[int, ...]] = None  # (C, H, W), for winograd
    winograd: bool = True  # let the winograd pass mark eligible convs
    # Outputs:
    quant_report: Optional[object] = None
    arena_manifest: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._tags = count()

    def next_tag(self) -> str:
        """Fresh unique arena tag for a newly created op."""
        return f"op{next(self._tags)}"


@dataclass(frozen=True)
class Pass:
    """One named graph transformation with ordering constraints.

    ``fn(graph, ctx)`` mutates the graph in place and returns a short
    human-readable note (or ``None``). ``after``/``before`` name passes
    this one must follow/precede *when both appear* in a pipeline —
    :class:`PassManager` enforces them at construction time.
    """

    name: str
    fn: Callable[[Graph, CompileContext], Optional[str]]
    after: Tuple[str, ...] = ()
    before: Tuple[str, ...] = ()


@dataclass
class PassRecord:
    """What one pass did during a compilation (the describe() trace)."""

    name: str
    note: str = ""
    seconds: float = 0.0


#: All registered passes by name (the ``compiler_pass`` decorator fills it).
PASS_REGISTRY: Dict[str, Pass] = {}


def compiler_pass(name: str, after: Tuple[str, ...] = (), before: Tuple[str, ...] = ()):
    """Decorator registering a function as a named compile pass."""

    def register(fn: Callable[[Graph, CompileContext], Optional[str]]) -> Pass:
        compile_pass = Pass(name=name, fn=fn, after=after, before=before)
        PASS_REGISTRY[name] = compile_pass
        return compile_pass

    return register


class PassManager:
    """Runs a validated sequence of passes over one compile graph.

    Construction resolves pass names through :data:`PASS_REGISTRY` and
    enforces every pass's ``after``/``before`` constraints, raising
    ``ValueError`` on an invalid order (the ordering invariants are unit
    tested — ``fold_bn`` must precede ``quantize``, ``link_halos`` must
    follow ``fuse_epilogues``, ``lower`` first, ``finalize`` last).
    :meth:`run` executes the passes, verifying the graph after each one,
    and keeps a :class:`PassRecord` trace for ``CompiledModel.describe``.
    """

    def __init__(self, passes: Sequence[Union[str, Pass]]) -> None:
        self.passes: List[Pass] = []
        for item in passes:
            if isinstance(item, str):
                if item not in PASS_REGISTRY:
                    raise ValueError(
                        f"unknown pass {item!r}; registered: {sorted(PASS_REGISTRY)}"
                    )
                item = PASS_REGISTRY[item]
            self.passes.append(item)
        self._validate_order()
        self.records: List[PassRecord] = []

    def _validate_order(self) -> None:
        position = {p.name: i for i, p in enumerate(self.passes)}
        if len(position) != len(self.passes):
            raise ValueError("duplicate pass in pipeline")
        for p in self.passes:
            for earlier in p.after:
                if earlier in position and position[earlier] > position[p.name]:
                    raise ValueError(
                        f"pass ordering violation: {p.name!r} must run "
                        f"after {earlier!r}"
                    )
            for later in p.before:
                if later in position and position[later] < position[p.name]:
                    raise ValueError(
                        f"pass ordering violation: {p.name!r} must run "
                        f"before {later!r}"
                    )
        if self.passes and "lower" in position and position["lower"] != 0:
            raise ValueError("pass ordering violation: 'lower' must run first")
        if (
            self.passes
            and "finalize" in position
            and position["finalize"] != len(self.passes) - 1
        ):
            raise ValueError("pass ordering violation: 'finalize' must run last")

    def run(self, graph: Graph, ctx: CompileContext) -> Graph:
        """Execute every pass in order, verifying the graph after each."""
        self.records = []
        for compile_pass in self.passes:
            start = time.perf_counter()
            note = compile_pass.fn(graph, ctx)
            graph.verify()
            self.records.append(
                PassRecord(
                    name=compile_pass.name,
                    note=note or "",
                    seconds=time.perf_counter() - start,
                )
            )
        return graph


def default_passes(ctx: CompileContext) -> List[Pass]:
    """The standard pipeline for one context (winograd/quantize included
    only when requested, so the trace shows exactly what ran)."""
    names = ["lower", "fold_bn", "fuse_epilogues"]
    if ctx.winograd:
        names.append("winograd")
    if ctx.quantize is not None:
        names.append("quantize")
    names += ["link_halos", "assign_arenas", "finalize"]
    return [PASS_REGISTRY[name] for name in names]


# ---------------------------------------------------------------------
# lower
# ---------------------------------------------------------------------
@dataclass
class _Residual:
    """Intermediate marker for a two-branch residual step."""

    body: List[object]
    shortcut: List[object]
    relu: bool


def _expand(module: nn.Module) -> List[object]:
    """Expand a module tree into primitive steps and residual markers."""
    if isinstance(module, (nn.Dropout, nn.Identity)):
        return []  # eval-mode no-ops
    if isinstance(module, nn.Sequential):
        return [step for child in module for step in _expand(child)]
    branches = getattr(module, "lowering_branches", None)
    if branches is not None:
        # Hook contract: (body, shortcut) applies ReLU after the add
        # (the classic post-activation block); a 3-tuple
        # (body, shortcut, post_relu) makes the activation explicit for
        # pre-activation-style blocks.
        parts = branches()
        body, shortcut = parts[0], parts[1]
        relu = parts[2] if len(parts) > 2 else True
        return [
            _Residual(
                body=[s for m in body for s in _expand(m)],
                shortcut=[s for m in shortcut for s in _expand(m)],
                relu=relu,
            )
        ]
    sequence = getattr(module, "lowering_sequence", None)
    if sequence is not None:
        return [step for child in sequence() for step in _expand(child)]
    return [module]


def _lower_conv(step: nn.Conv2d, ctx: CompileContext):
    """One conv module -> an unfused ConvOp carrying raw parameters."""
    from .compile import ConvOp

    params = step.inference_params()
    weight, bias, encoded = params["weight"], params["bias"], params["encoded"]
    kh = kw = step.kernel_size
    return ConvOp(
        stride=step.stride,
        padding=step.padding,
        kernel=(kh, kw),
        c_in=step.in_channels,
        c_out=step.out_channels,
        tag=ctx.next_tag(),
        weight=weight,
        bias=bias,
        encoded=encoded,
        dtype=ctx.dtype,
    )


def _lower_steps(steps: Sequence[object], ctx: CompileContext, graph: Graph) -> None:
    """Emit unfused graph nodes for expanded steps, tracking layout.

    The direct port of the old monolithic builder, minus the peepholes:
    BN folding and ReLU fusion are their own passes now, so every module
    becomes its own node and the fusion passes splice nodes out.
    """
    from .compile import (
        AvgPoolOp,
        BatchNormOp,
        FlattenOp,
        GlobalAvgPoolOp,
        LinearOp,
        MaxPoolOp,
        ModuleOp,
        ReluOp,
        ResidualOp,
        ToNCHW,
        ToNHWC,
        _cast,
    )

    def fmt() -> str:
        return graph.out_meta.layout

    def ensure(want: str) -> None:
        current = fmt()
        if current == want:
            return
        if current == "flat":
            raise TypeError(
                "cannot lower: a spatial op follows a flattened activation"
            )
        if want == "nhwc":
            graph.append(ToNHWC(tag=ctx.next_tag()))
        else:
            graph.append(ToNCHW(tag=ctx.next_tag()))

    for step in steps:
        if isinstance(step, _Residual):
            ensure("nhwc")
            branches = {}
            for key, branch_steps in (("body", step.body), ("shortcut", step.shortcut)):
                sub = Graph(TensorMeta("nhwc"), name=key)
                _lower_steps(branch_steps, ctx, sub)
                if sub.out_meta.layout == "nchw":
                    sub.append(ToNHWC(tag=ctx.next_tag()))
                branches[key] = sub
            node = graph.append(
                ResidualOp(
                    body_graph=branches["body"],
                    shortcut_graph=branches["shortcut"],
                    relu=step.relu,
                    tag=ctx.next_tag(),
                )
            )
            node.subgraphs.update(branches)
            continue
        if isinstance(step, nn.Conv2d):
            ensure("nhwc")
            graph.append(_lower_conv(step, ctx))
            continue
        if isinstance(step, nn.Linear):
            weight = step.weight.data
            if step._weight_mask is not None:
                weight = weight * step._weight_mask
            bias = step.bias.data if step.bias is not None else None
            graph.append(
                LinearOp(
                    weight_t=np.ascontiguousarray(weight.T, dtype=ctx.dtype),
                    bias=_cast(bias, ctx.dtype),
                    tag=ctx.next_tag(),
                )
            )
            continue
        if isinstance(step, nn.BatchNorm2d):
            ensure("nhwc")
            scale, shift = step.fold_params()
            graph.append(
                BatchNormOp(
                    scale=scale, shift=shift, tag=ctx.next_tag(), dtype=ctx.dtype
                )
            )
            continue
        if isinstance(step, nn.ReLU):
            graph.append(ReluOp(tag=ctx.next_tag()))  # elementwise: any layout
        elif isinstance(step, nn.MaxPool2d):
            ensure("nhwc")
            graph.append(
                MaxPoolOp(
                    kernel=step.kernel_size,
                    stride=step.stride,
                    padding=step.padding,
                    tag=ctx.next_tag(),
                )
            )
        elif isinstance(step, nn.AvgPool2d):
            ensure("nhwc")
            graph.append(
                AvgPoolOp(kernel=step.kernel_size, stride=step.stride, tag=ctx.next_tag())
            )
        elif isinstance(step, nn.GlobalAvgPool2d):
            ensure("nhwc")
            graph.append(GlobalAvgPoolOp(tag=ctx.next_tag()))
        elif isinstance(step, nn.Flatten):
            ensure("nhwc")
            graph.append(FlattenOp(tag=ctx.next_tag()))
        elif isinstance(step, nn.Module):
            if fmt() == "nhwc":
                graph.append(ToNCHW(tag=ctx.next_tag()))
            graph.append(ModuleOp(module=step, tag=ctx.next_tag()))
        else:  # pragma: no cover - lowering hooks only yield modules
            raise TypeError(f"cannot lower step {step!r}")


@compiler_pass("lower", before=("fold_bn", "fuse_epilogues", "quantize"))
def pass_lower(graph: Graph, ctx: CompileContext) -> str:
    """Walk the module tree into unfused graph nodes (+ layout casts)."""
    _lower_steps(_expand(ctx.model), ctx, graph)
    total = sum(1 for _ in graph.walk())
    return f"{len(graph)} top-level nodes ({total} total)"


# ---------------------------------------------------------------------
# fold_bn
# ---------------------------------------------------------------------
@compiler_pass("fold_bn", after=("lower",), before=("fuse_epilogues", "quantize", "finalize"))
def pass_fold_bn(graph: Graph, ctx: CompileContext) -> str:
    """Fold every conv→BN pair into the conv's weight and bias.

    Works on SPM-encoded convs too — scaling a kernel's non-zero
    sequence never moves its pattern, so the encoding stays valid with
    scaled values. BN nodes with no conv producer stay standalone.
    """
    from .compile import BatchNormOp, ConvOp, _fold_encoded, fold_batchnorm_params

    folded = 0

    def fold_in(g: Graph) -> None:
        nonlocal folded
        for node in list(g.nodes):
            if not isinstance(node.op, BatchNormOp) or not node.inputs:
                continue
            producer = node.inputs[0].op
            if not isinstance(producer, ConvOp):
                continue
            bn = node.op
            if producer.encoded is not None:
                producer.encoded = _fold_encoded(producer.encoded, bn.scale, None)
                producer.bias = (
                    bn.shift
                    if producer.bias is None
                    else bn.shift + producer.bias * bn.scale
                )
            else:
                producer.weight, producer.bias = fold_batchnorm_params(
                    producer.weight, producer.bias, bn.scale, bn.shift
                )
            # The BN's fused ReLU (if the fuse pass already ran it would
            # be ordered wrong — constraints forbid that) rides on the
            # relu flag, which is still False here.
            producer.invalidate()
            g.remove(node)
            folded += 1

    fold_in(graph)
    for node in graph.walk():
        for sub in node.subgraphs.values():
            fold_in(sub)
    return f"folded {folded} batchnorm(s)"


# ---------------------------------------------------------------------
# fuse_epilogues
# ---------------------------------------------------------------------
@compiler_pass(
    "fuse_epilogues",
    after=("lower", "fold_bn"),
    before=("quantize", "link_halos", "finalize"),
)
def pass_fuse_epilogues(graph: Graph, ctx: CompileContext) -> str:
    """Absorb each standalone ReLU into its producer's fused epilogue.

    Convs and BNs apply the ReLU in place on their (cache-hot) output
    tile; linears clamp their small head output directly. ReLUs with no
    fusable producer stay standalone ops.
    """
    from .compile import BatchNormOp, ConvOp, LinearOp, ReluOp

    fused = 0

    def fuse_in(g: Graph) -> None:
        nonlocal fused
        for node in list(g.nodes):
            if not isinstance(node.op, ReluOp) or not node.inputs:
                continue
            producer = node.inputs[0].op
            if isinstance(producer, (ConvOp, LinearOp, BatchNormOp)) and not producer.relu:
                producer.relu = True
                if isinstance(producer, ConvOp):
                    producer.invalidate()  # the epilogue carries the ReLU
                g.remove(node)
                fused += 1

    fuse_in(graph)
    for node in graph.walk():
        for sub in node.subgraphs.values():
            fuse_in(sub)
    return f"fused {fused} relu(s)"


# ---------------------------------------------------------------------
# winograd
# ---------------------------------------------------------------------
@compiler_pass(
    "winograd",
    after=("lower", "fold_bn", "fuse_epilogues"),
    before=("quantize", "link_halos", "assign_arenas", "finalize"),
)
def pass_winograd(graph: Graph, ctx: CompileContext) -> str:
    """Mark eligible convs for the Winograd F(m x m, 3x3) fast path.

    Eligibility is static (3x3 kernel, stride 1 — see
    :func:`repro.runtime.winograd.eligible_tiles`); SPM convs qualify
    like dense ones, their operand decoded when it is built. The *tile*
    needs each conv's output size. With ``ctx.input_shape`` the pass
    propagates shapes analytically
    (:meth:`~repro.runtime.compile.CompiledModel._walk_geometry`) and
    picks a concrete tile per layer (``wino_m = 4``/``2``); without it,
    or past an op the walk cannot see through, eligible convs get the
    ``wino_m = -1`` auto marker and the static tile rule resolves from
    the first execution plan instead.
    """
    from .compile import CompiledModel, ConvOp
    from .winograd import default_tile, eligible_tiles

    shapes = None
    if ctx.input_shape is not None:
        shapes = {}
        if CompiledModel._walk_geometry(
            graph.op_list(), tuple(ctx.input_shape), conv_hw=shapes
        ) is None:
            shapes = None

    counts: Dict[int, int] = {}
    for node in graph.walk():
        op = node.op
        if not isinstance(op, ConvOp):
            continue
        if tuple(op.kernel) != (3, 3) or op.stride != 1 or op.c_in < 16:
            continue
        in_hw = shapes.get(op.tag) if shapes is not None else None
        if in_hw is None:
            op.wino_m = -1  # auto: resolved from the first execution plan
            counts[-1] = counts.get(-1, 0) + 1
            continue
        out_hw = (in_hw[0] + 2 * op.padding - 2, in_hw[1] + 2 * op.padding - 2)
        tiles = eligible_tiles(
            kernel=op.kernel,
            stride=op.stride,
            out_hw=out_hw,
            c_in=op.c_in,
        )
        m = default_tile(out_hw=out_hw, c_in=op.c_in, tiles=tiles)
        if m:
            op.wino_m = m
            counts[m] = counts.get(m, 0) + 1
    if not counts:
        return "no eligible convs"
    parts = [
        f"{'auto' if m < 0 else f'F({m}x{m},3x3)'} on {counts[m]} conv(s)"
        for m in sorted(counts, reverse=True)
    ]
    return ", ".join(parts)


# ---------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------
@compiler_pass(
    "quantize",
    after=("fold_bn", "fuse_epilogues"),
    before=("link_halos", "assign_arenas", "finalize"),
)
def pass_quantize(graph: Graph, ctx: CompileContext) -> str:
    """Rewrite eligible convs into their int8 execution form.

    Delegates to :func:`repro.runtime.quant.quantize_pipeline` over the
    linearised top-level chain (calibration forward, per-edge scales,
    ``QuantConvOp`` conversion, quantize/dequantize boundaries), then
    rebuilds the graph from the rewritten op list.
    """
    from .quant import quantize_pipeline

    if ctx.calibration is None:
        raise ValueError(
            "compile_model(quantize=...) needs a calibration= batch "
            "to derive activation scales from"
        )
    new_ops, report = quantize_pipeline(
        graph.op_list(), ctx.dtype, ctx.calibration, ctx.quantize
    )
    graph.rebuild(new_ops)
    ctx.quant_report = report
    return (
        f"int{report.bits}: {report.quantized_layers} conv(s) quantized, "
        f"{report.fallback_layers} float, kernel={report.int8_kernel}"
    )


# ---------------------------------------------------------------------
# link_halos
# ---------------------------------------------------------------------
@compiler_pass(
    "link_halos",
    after=("fuse_epilogues", "quantize"),
    before=("finalize",),
)
def pass_link_halos(graph: Graph, ctx: CompileContext) -> str:
    """Connect producers to their consumer's padded input buffer.

    When a padded conv directly consumes a conv or pool, the producer
    writes its activation straight into the interior of the consumer's
    zero-bordered pad buffer — the consumer's bound thunk then
    recognises its own buffer (``x.base is buffer``) and skips the pad
    copy entirely. Every conv schedule and pool honours it.
    """
    from .compile import AvgPoolOp, ConvOp, MaxPoolOp

    linked = 0

    def link_in(ops: List[object]) -> None:
        nonlocal linked
        for a, b in zip(ops, ops[1:]):
            if (
                isinstance(b, ConvOp)
                and b.padding > 0
                and isinstance(a, (ConvOp, MaxPoolOp, AvgPoolOp))
            ):
                a.halo = (b.tag, b.padding)
                linked += 1

    link_in(graph.op_list())
    for node in graph.walk():
        for sub in node.subgraphs.values():
            link_in(sub.op_list())
    return f"linked {linked} producer→consumer halo(s)"


# ---------------------------------------------------------------------
# assign_arenas
# ---------------------------------------------------------------------
@compiler_pass(
    "assign_arenas", after=("quantize", "link_halos"), before=("finalize",)
)
def pass_assign_arenas(graph: Graph, ctx: CompileContext) -> str:
    """Record the workspace-tag manifest the arenas will key buffers on.

    Every op draws scratch buffers from the per-thread arena under its
    own tag; this pass assigns tags to any op still missing one and
    records the manifest (``ctx.arena_manifest``) — tag uniqueness
    itself is a graph invariant ``verify()`` enforces after every pass.
    """
    manifest: List[str] = []
    for node in graph.walk():
        op = node.op
        if getattr(op, "tag", "") == "" and hasattr(op, "tag"):
            op.tag = ctx.next_tag()
        if node.tag:
            manifest.append(node.tag)
    ctx.arena_manifest = manifest
    return f"{len(manifest)} workspace tag(s)"


# ---------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------
@compiler_pass("finalize", after=("lower",))
def pass_finalize(graph: Graph, ctx: CompileContext) -> str:
    """Seal the pipeline: exit layout, GEMM operands, final verify.

    Appends the NCHW exit conversion when the pipeline ends spatial
    (features-only models hand back the eager layout), eagerly builds
    every op's derived execution state (``ConvOp.prepare`` — weight
    operands, epilogues) so serving never pays it on the first request,
    and runs a last :meth:`~repro.runtime.ir.Graph.verify`.
    """
    from .compile import ToNCHW

    if graph.out_meta.layout == "nhwc":
        graph.append(ToNCHW(tag="out"))
    prepared = 0
    for node in graph.walk():
        prepare = getattr(node.op, "prepare", None)
        if prepare is not None:
            prepare()
            prepared += 1
    graph.verify()
    return f"{len(graph)} top-level ops, {prepared} prepared"
