"""Tests for the compile graph IR and the pass manager.

Covers the PR-5 restructuring: ``compile_model`` output must be produced
by the PassManager (per-pass effects independently observable), the
graph must verify its structural invariants (and fail loudly on
malformed graphs), pass-ordering constraints must be enforced at
manager construction, and ResNet18's residual paths must lower through
the pass pipeline with per-pass golden ``describe()`` output.
"""

import numpy as np
import pytest

from repro import nn, runtime
from repro.runtime.compile import (
    BatchNormOp,
    ConvOp,
    FlattenOp,
    MaxPoolOp,
    ReluOp,
    ResidualOp,
    ToNCHW,
)
from repro.runtime.ir import Graph, GraphError, TensorMeta
from repro.runtime.passes import PASS_REGISTRY, CompileContext, PassManager
from repro.models import resnet18_cifar


def small_model(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 3, rng=rng),
        nn.ReLU(),
    )


def run_passes(model, names):
    """Run a prefix of the standard pipeline, returning (graph, ctx)."""
    ctx = CompileContext(model=model, dtype=np.dtype(np.float32))
    graph = Graph(TensorMeta("nchw"), name=type(model).__name__)
    PassManager([PASS_REGISTRY[n] for n in names]).run(graph, ctx)
    return graph, ctx


class TestGraphVerify:
    def test_duplicate_tags_rejected(self):
        graph = Graph(TensorMeta("nhwc"))
        graph.append(ReluOp(tag="x"))
        graph.append(ReluOp(tag="x"))
        with pytest.raises(GraphError, match="duplicate arena tag"):
            graph.verify()

    def test_spatial_op_after_flat_edge_rejected(self):
        graph = Graph(TensorMeta("nhwc"))
        graph.append(FlattenOp(tag="f"))
        graph.append(MaxPoolOp(kernel=2, stride=2, padding=0, tag="p"))
        with pytest.raises(GraphError, match="expects 'nhwc'"):
            graph.verify()

    def test_wrong_entry_layout_rejected(self):
        graph = Graph(TensorMeta("nhwc"))
        graph.append(ToNCHW(tag="c"))
        graph.append(MaxPoolOp(kernel=2, stride=2, padding=0, tag="p"))
        with pytest.raises(GraphError, match="nchw"):
            graph.verify()

    def test_broken_producer_links_rejected(self):
        graph = Graph(TensorMeta("nhwc"))
        graph.append(ReluOp(tag="a"))
        node = graph.append(ReluOp(tag="b"))
        node.inputs = []  # sever the chain behind the graph's back
        with pytest.raises(GraphError, match="broken"):
            graph.verify()

    def test_subgraph_failures_are_attributed(self):
        body = Graph(TensorMeta("nhwc"), name="body")
        body.append(ReluOp(tag="dup"))
        shortcut = Graph(TensorMeta("nhwc"), name="shortcut")
        graph = Graph(TensorMeta("nhwc"))
        node = graph.append(
            ResidualOp(body_graph=body, shortcut_graph=shortcut, relu=True, tag="dup")
        )
        node.subgraphs.update(body=body, shortcut=shortcut)
        with pytest.raises(GraphError, match="duplicate arena tag"):
            graph.verify()

    def test_mutators_keep_links_consistent(self):
        graph = Graph(TensorMeta("nhwc"))
        a = graph.append(ReluOp(tag="a"))
        c = graph.append(ReluOp(tag="c"))
        b = graph.insert_after(a, ReluOp(tag="b"))
        assert [n.tag for n in graph.nodes] == ["a", "b", "c"]
        assert c.inputs == [b] and a.consumers == [b]
        graph.remove(b)
        assert c.inputs == [a] and a.consumers == [c]
        graph.verify()

    def test_op_list_cache_invalidated_on_mutation(self):
        graph = Graph(TensorMeta("nhwc"))
        graph.append(ReluOp(tag="a"))
        first = graph.op_list()
        assert graph.op_list() is first  # cached
        graph.append(ReluOp(tag="b"))
        assert len(graph.op_list()) == 2


class TestPassOrdering:
    """The manager rejects pipelines that violate pass constraints."""

    def test_quantize_before_fold_bn_rejected(self):
        with pytest.raises(ValueError, match="after 'fold_bn'"):
            PassManager(["lower", "quantize", "fold_bn", "finalize"])

    def test_link_halos_before_fuse_epilogues_rejected(self):
        with pytest.raises(ValueError, match="link_halos"):
            PassManager(["lower", "link_halos", "fuse_epilogues", "finalize"])

    def test_lower_must_run_first(self):
        with pytest.raises(ValueError, match="pass ordering violation"):
            PassManager(["fold_bn", "lower", "finalize"])
        with pytest.raises(ValueError, match="'lower' must run first"):
            PassManager(["assign_arenas", "lower", "finalize"])

    def test_finalize_must_run_last(self):
        from repro.runtime.passes import Pass

        with pytest.raises(ValueError, match="pass ordering violation"):
            PassManager(["lower", "finalize", "fold_bn"])
        noop = Pass(name="noop", fn=lambda graph, ctx: None)
        with pytest.raises(ValueError, match="'finalize' must run last"):
            PassManager([PASS_REGISTRY["lower"], PASS_REGISTRY["finalize"], noop])

    def test_unknown_and_duplicate_passes_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            PassManager(["lower", "does_not_exist"])
        with pytest.raises(ValueError, match="duplicate pass"):
            PassManager(["lower", "fold_bn", "fold_bn"])

    def test_default_pipeline_is_valid_and_ordered(self):
        from repro.runtime.passes import default_passes

        ctx = CompileContext(model=None, quantize=object())
        names = [p.name for p in default_passes(ctx)]
        assert names == [
            "lower",
            "fold_bn",
            "fuse_epilogues",
            "winograd",
            "quantize",
            "link_halos",
            "assign_arenas",
            "finalize",
        ]
        PassManager(default_passes(ctx))  # construction validates
        ctx_plain = CompileContext(model=None, winograd=False)
        assert [p.name for p in default_passes(ctx_plain)] == [
            "lower",
            "fold_bn",
            "fuse_epilogues",
            "link_halos",
            "assign_arenas",
            "finalize",
        ]


class TestPerPassEffects:
    """Each pass's effect is observable in isolation (golden output)."""

    def test_lower_emits_unfused_nodes(self):
        graph, _ = run_passes(small_model(), ["lower"])
        described = [op.describe() for op in graph.op_list()]
        assert described == [
            "to-nhwc",
            "conv+bias",
            "batchnorm",
            "relu",
            "maxpool2",
            "flatten",
            "linear",
            "relu",
        ]

    def test_fold_bn_removes_bn_and_keeps_bias(self):
        graph, _ = run_passes(small_model(), ["lower", "fold_bn"])
        described = [op.describe() for op in graph.op_list()]
        assert "batchnorm" not in described
        assert described[1] == "conv+bias"

    def test_fold_bn_matches_eager_math(self):
        model = small_model()
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        reference = runtime.predict(model, x)
        graph, _ = run_passes(
            model,
            ["lower", "fold_bn", "fuse_epilogues", "link_halos", "assign_arenas",
             "finalize"],
        )
        compiled = runtime.CompiledModel(graph, dtype=np.float32)
        np.testing.assert_allclose(compiled(x), reference, rtol=1e-4, atol=1e-5)

    def test_fuse_epilogues_absorbs_relus(self):
        graph, _ = run_passes(small_model(), ["lower", "fold_bn", "fuse_epilogues"])
        described = [op.describe() for op in graph.op_list()]
        assert described == [
            "to-nhwc",
            "conv+bias+relu",
            "maxpool2",
            "flatten",
            "linear+relu",
        ]

    def test_link_halos_connects_producers(self):
        rng = np.random.default_rng(2)
        model = nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=rng),
            nn.Conv2d(4, 4, kernel_size=3, padding=1, rng=rng),
        )
        graph, _ = run_passes(
            model, ["lower", "fold_bn", "fuse_epilogues", "link_halos"]
        )
        convs = [op for op in graph.op_list() if isinstance(op, ConvOp)]
        assert convs[0].halo == (convs[1].tag, 1)
        assert convs[1].halo is None

    def test_finalize_prepares_and_appends_exit_conversion(self):
        graph, ctx = run_passes(
            small_model(),
            ["lower", "fold_bn", "fuse_epilogues", "link_halos", "assign_arenas",
             "finalize"],
        )
        conv = next(op for op in graph.op_list() if isinstance(op, ConvOp))
        assert conv.weight_t is not None and conv.bias_rows == 1
        # Head is flat, so no ToNCHW exit; a features-only model gets one.
        assert graph.out_meta.layout == "flat"
        features = nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(3))
        )
        fgraph, _ = run_passes(
            features,
            ["lower", "fold_bn", "fuse_epilogues", "link_halos", "assign_arenas",
             "finalize"],
        )
        assert isinstance(fgraph.op_list()[-1], ToNCHW)
        assert fgraph.out_meta.layout == "nchw"


class TestResNetResidualPipeline:
    """ResNet18 residual paths under the pass pipeline."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return runtime.compile_model(resnet18_cifar(rng=np.random.default_rng(4)))

    def test_residual_nodes_carry_subgraphs(self, compiled):
        residual_nodes = [
            node for node in compiled.graph
            if isinstance(node.op, ResidualOp)
        ]
        assert len(residual_nodes) == 8
        for node in residual_nodes:
            assert set(node.subgraphs) == {"body", "shortcut"}
            node.subgraphs["body"].verify()
            node.subgraphs["shortcut"].verify()

    def test_all_batchnorms_fold_inside_residuals(self, compiled):
        # 1 stem + 16 block + 3 downsample BNs all fold into their convs.
        fold_record = next(r for r in compiled.passes if r.name == "fold_bn")
        assert fold_record.note == "folded 20 batchnorm(s)"
        assert not any(
            isinstance(node.op, BatchNormOp) for node in compiled.graph.walk()
        )

    def test_residual_describe_golden(self, compiled):
        blocks = [op for op in compiled.ops if isinstance(op, ResidualOp)]
        # Identity block: two folded convs on the body, empty shortcut.
        assert blocks[0].describe() == "residual[conv+bias+relu conv+bias | identity]"
        # Downsample block: 1x1 projection conv (+folded BN) shortcut.
        assert blocks[2].describe() == (
            "residual[conv+bias+relu conv+bias | conv+bias]"
        )

    def test_pass_trace_in_describe(self, compiled):
        text = compiled.describe()
        assert "passes: lower -> fold_bn -> fuse_epilogues" in text
        assert "fold_bn: folded 20 batchnorm(s)" in text

    def test_residual_equivalence_still_holds(self, compiled):
        model = resnet18_cifar(rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(2, 3, 32, 32))
        reference = runtime.predict(model, x)
        np.testing.assert_allclose(compiled(x), reference, rtol=1e-4, atol=1e-5)

    def test_halos_link_inside_residual_bodies(self, compiled):
        block = next(op for op in compiled.ops if isinstance(op, ResidualOp))
        body_convs = [op for op in block.body if isinstance(op, ConvOp)]
        assert body_convs[0].halo == (body_convs[1].tag, 1)


class TestCompiledModelSurface:
    def test_compile_model_output_is_pass_managed(self):
        compiled = runtime.compile_model(small_model())
        assert compiled.graph is not None
        assert [r.name for r in compiled.passes] == [
            "lower",
            "fold_bn",
            "fuse_epilogues",
            "winograd",
            "link_halos",
            "assign_arenas",
            "finalize",
        ]
        compiled.graph.verify()
        assert compiled.ops == compiled.graph.op_list()

    def test_custom_pass_list_respected(self):
        # Skipping fuse_epilogues leaves standalone ReLU ops behind.
        compiled_ops = runtime.compile_model(
            small_model(),
            passes=["lower", "fold_bn", "link_halos", "assign_arenas", "finalize"],
        ).ops
        assert any(op.describe() == "relu" for op in compiled_ops)
