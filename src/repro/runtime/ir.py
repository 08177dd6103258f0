"""Graph IR for the compiled inference pipeline.

:func:`repro.runtime.compile_model` no longer lowers a model straight to
a flat op list — it builds a :class:`Graph` of inference ops with
explicit producer/consumer links and per-edge tensor metadata
(:class:`TensorMeta`), and a
:class:`~repro.runtime.passes.PassManager` transforms that graph through
named, independently-testable passes (BN folding, epilogue fusion,
Winograd marking, quantization, halo linking, arena assignment).

The IR is deliberately small:

- A :class:`Node` wraps one executable op (an
  ``repro.runtime.compile._InferenceOp``) plus the metadata of the
  tensor it *produces* (``out_meta``). Ops stay the unit of execution;
  the graph is the unit of transformation.
- Pipelines are chains — each node consumes its predecessor's output —
  with nested subgraphs for branching structures (a residual block's
  node carries ``body``/``shortcut`` subgraphs, both consuming the
  node's input edge).
- Ops declare their layout contract through two class attributes,
  ``layout_in`` (``"nchw"``/``"nhwc"``/``"flat"``/``"any"``) and
  ``layout_out`` (a concrete layout or ``"same"``), which is what
  :meth:`Graph.verify` checks edge-by-edge.

:meth:`Graph.verify` raises :class:`GraphError` on structural damage —
broken producer/consumer links, duplicate arena tags, an op whose
declared input layout does not match its incoming edge — and the pass
manager runs it after every pass, so a buggy pass fails at compile time
instead of producing silently-wrong activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

__all__ = ["GraphError", "TensorMeta", "Node", "Graph"]

#: Recognised activation layouts flowing along graph edges.
LAYOUTS = ("nchw", "nhwc", "flat")


class GraphError(ValueError):
    """A structural invariant of the compile graph is violated."""


@dataclass(frozen=True)
class TensorMeta:
    """Metadata of one graph edge (the tensor a node produces).

    ``layout`` is the activation memory layout; ``domain`` distinguishes
    float activations from int8 *codes* on the quantized pipeline
    (scales live on the ops, the domain only names the number space).
    Shapes are deliberately absent: compiled pipelines are
    batch/spatial-size agnostic and learn concrete shapes at run time
    through the plan cache.
    """

    layout: str
    domain: str = "float"

    def __post_init__(self) -> None:
        if self.layout not in LAYOUTS:
            raise GraphError(f"unknown layout {self.layout!r}; expected {LAYOUTS}")
        if self.domain not in ("float", "codes"):
            raise GraphError(f"unknown domain {self.domain!r}")


def _layout_in(op) -> str:
    return getattr(op, "layout_in", "any")


def _layout_out(op) -> str:
    return getattr(op, "layout_out", "same")


def _domain_out(op) -> str:
    return getattr(op, "domain_out", "same")


def propagate_meta(op, in_meta: TensorMeta) -> TensorMeta:
    """Derive a node's output metadata from its op and input edge."""
    layout = _layout_out(op)
    if layout == "same":
        layout = in_meta.layout
    domain = _domain_out(op)
    if domain == "same":
        domain = in_meta.domain
    return TensorMeta(layout=layout, domain=domain)


class Node:
    """One op in the graph plus its explicit producer/consumer links."""

    __slots__ = ("op", "out_meta", "inputs", "consumers", "subgraphs")

    def __init__(self, op, out_meta: TensorMeta) -> None:
        self.op = op
        self.out_meta = out_meta
        self.inputs: List["Node"] = []
        self.consumers: List["Node"] = []
        #: Nested pipelines (e.g. ``{"body": ..., "shortcut": ...}`` on a
        #: residual node); both consume this node's *input* edge.
        self.subgraphs: Dict[str, "Graph"] = {}

    @property
    def tag(self) -> str:
        """The op's arena tag (empty for ops that take no workspace)."""
        return getattr(self.op, "tag", "")

    def in_meta(self, graph: "Graph") -> TensorMeta:
        """Metadata of the edge this node consumes."""
        if self.inputs:
            return self.inputs[0].out_meta
        return graph.entry_meta

    def __repr__(self) -> str:
        return f"Node({type(self.op).__name__}, out={self.out_meta.layout})"


class Graph:
    """A chain of :class:`Node` with explicit links and edge metadata.

    Mutators (:meth:`append`, :meth:`insert_after`, :meth:`remove`,
    :meth:`replace_op`, :meth:`rebuild`) keep producer/consumer links
    consistent and invalidate the cached linearisation, so passes can
    splice nodes freely and executors read a stable
    :meth:`op_list` afterwards.
    """

    def __init__(self, entry_meta: TensorMeta, name: str = "") -> None:
        self.entry_meta = entry_meta
        self.name = name
        self.nodes: List[Node] = []
        self._op_list: Optional[List[object]] = None

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    @property
    def out_meta(self) -> TensorMeta:
        """Metadata of the graph's exit edge (entry edge when empty)."""
        return self.nodes[-1].out_meta if self.nodes else self.entry_meta

    def op_list(self) -> List[object]:
        """The executable ops in chain order (cached until mutation)."""
        if self._op_list is None:
            self._op_list = [node.op for node in self.nodes]
        return self._op_list

    def find(self, predicate: Callable[[Node], bool]) -> List[Node]:
        """All nodes (this graph only) matching ``predicate``."""
        return [node for node in self.nodes if predicate(node)]

    def walk(self) -> Iterator[Node]:
        """Every node, recursing into subgraphs depth-first."""
        for node in self.nodes:
            yield node
            for sub in node.subgraphs.values():
                yield from sub.walk()

    # -- mutation ------------------------------------------------------
    def _dirty(self) -> None:
        self._op_list = None

    def _relink(self) -> None:
        """Recompute the chain's producer/consumer links in place."""
        for i, node in enumerate(self.nodes):
            node.inputs = [self.nodes[i - 1]] if i > 0 else []
            node.consumers = [self.nodes[i + 1]] if i + 1 < len(self.nodes) else []
        self._dirty()

    def append(self, op, out_meta: Optional[TensorMeta] = None) -> Node:
        """Add ``op`` at the end of the chain; metadata is propagated
        from the current exit edge when not given explicitly."""
        meta = out_meta or propagate_meta(op, self.out_meta)
        node = Node(op, meta)
        self.nodes.append(node)
        self._relink()
        return node

    def insert_after(self, node: Node, op, out_meta: Optional[TensorMeta] = None) -> Node:
        """Splice ``op`` into the chain right after ``node``."""
        index = self.nodes.index(node)
        meta = out_meta or propagate_meta(op, node.out_meta)
        new = Node(op, meta)
        self.nodes.insert(index + 1, new)
        self._relink()
        return new

    def remove(self, node: Node) -> None:
        """Remove ``node``, splicing its producer to its consumers."""
        self.nodes.remove(node)
        self._relink()

    def replace_op(self, node: Node, op, out_meta: Optional[TensorMeta] = None) -> Node:
        """Swap the executable op on ``node`` (links are preserved)."""
        node.op = op
        node.out_meta = out_meta or propagate_meta(op, node.in_meta(self))
        self._dirty()
        return node

    def rebuild(self, ops: Sequence[object]) -> None:
        """Replace the whole chain with ``ops``, re-deriving metadata.

        Used by list-level rewrites (the quantization pass transforms the
        op sequence wholesale); per-edge metadata is re-propagated from
        the entry edge through each op's layout/domain contract.
        """
        self.nodes = []
        meta = self.entry_meta
        for op in ops:
            meta = propagate_meta(op, meta)
            node = Node(op, meta)
            # Preserve nested pipelines exposed by the op itself.
            for key in ("body", "shortcut"):
                sub = getattr(op, f"{key}_graph", None)
                if sub is not None:
                    node.subgraphs[key] = sub
            self.nodes.append(node)
        self._relink()

    # -- verification --------------------------------------------------
    def verify(self) -> "Graph":
        """Check structural invariants; raises :class:`GraphError`.

        Checked per graph (recursing into subgraphs):

        - chain links: ``node.inputs``/``node.consumers`` must mirror
          the chain order exactly;
        - layout compatibility: each op's declared ``layout_in`` must
          match its incoming edge (``"any"`` accepts everything, but a
          spatial layout never follows a flattened edge);
        - declared output layout must match the edge metadata;
        - arena tags must be unique across the whole graph (duplicate
          tags would silently alias scratch buffers between ops).
        """
        self._verify_chain()
        tags: Dict[str, str] = {}
        for node in self.walk():
            tag = node.tag
            if not tag:
                continue
            kind = type(node.op).__name__
            if tag in tags:
                raise GraphError(
                    f"duplicate arena tag {tag!r} on {kind} and {tags[tag]} "
                    "(ops would alias scratch buffers)"
                )
            tags[tag] = kind
        return self

    def _verify_chain(self) -> None:
        for i, node in enumerate(self.nodes):
            expected_inputs = [self.nodes[i - 1]] if i > 0 else []
            if node.inputs != expected_inputs:
                raise GraphError(
                    f"node {i} ({type(node.op).__name__}) has broken "
                    f"producer links"
                )
            expected_consumers = (
                [self.nodes[i + 1]] if i + 1 < len(self.nodes) else []
            )
            if node.consumers != expected_consumers:
                raise GraphError(
                    f"node {i} ({type(node.op).__name__}) has broken "
                    f"consumer links"
                )
            in_meta = node.in_meta(self)
            want = _layout_in(node.op)
            if want != "any" and want != in_meta.layout:
                raise GraphError(
                    f"node {i} ({type(node.op).__name__}) expects "
                    f"{want!r} input but its producer edge is "
                    f"{in_meta.layout!r}"
                )
            if want == "any" and in_meta.layout == "flat":
                spatial = getattr(node.op, "spatial_only", False)
                if spatial:
                    raise GraphError(
                        f"node {i} ({type(node.op).__name__}) is spatial "
                        "but follows a flattened edge"
                    )
            declared = _layout_out(node.op)
            expect_out = in_meta.layout if declared == "same" else declared
            if node.out_meta.layout != expect_out:
                raise GraphError(
                    f"node {i} ({type(node.op).__name__}) declares "
                    f"{expect_out!r} output but the edge says "
                    f"{node.out_meta.layout!r}"
                )
            for key, sub in node.subgraphs.items():
                try:
                    sub.verify()
                except GraphError as error:
                    raise GraphError(f"subgraph {key!r} of node {i}: {error}") from None

    def describe(self) -> str:
        """One line per node: op description plus the edge it produces."""
        lines = [f"graph({self.name or 'pipeline'}, entry={self.entry_meta.layout})"]
        for i, node in enumerate(self.nodes):
            meta = node.out_meta
            domain = "" if meta.domain == "float" else f" [{meta.domain}]"
            lines.append(f"  {i}: {node.op.describe()} -> {meta.layout}{domain}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Graph(nodes={len(self.nodes)}, entry={self.entry_meta.layout!r})"
