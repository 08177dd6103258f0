"""Deployment bundles: the PCNN on-device model format.

A *bundle* is what ships to the pattern-aware accelerator: per pruned
layer the SPM codes, the equal-length non-zero sequences (optionally
quantized to the hardware's 8-bit format), the layer's pattern codebook
(the SPM mapping table the Pattern Config block loads), and the original
weight shape. Bundles serialise to a single ``.npz`` file, can be restored
into a model (installing weights *and* masks), and report their exact
storage footprint — the artifact-level counterpart of the compression
columns in Tables I-III.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .. import nn
from .pruner import PCNNPruner
from .quantize import QuantizedTensor, quantize_per_kernel
from .spm import EncodedLayer, SPMCodebook, decode_layer

__all__ = ["LayerBundle", "DeploymentBundle", "bundle_from_pruner"]


@dataclass
class LayerBundle:
    """One pruned layer in deployment form."""

    codes: np.ndarray  # (kernels,) SPM codes
    values: np.ndarray  # (kernels, n) float, or int codes when quantized
    scales: Optional[np.ndarray]  # per-kernel scales when quantized
    patterns: np.ndarray  # codebook bitmasks
    shape: tuple
    weight_bits: int
    _encoded: Optional[EncodedLayer] = field(default=None, repr=False, compare=False)

    @property
    def quantized(self) -> bool:
        return self.scales is not None

    @property
    def n_nonzero(self) -> int:
        return self.values.shape[1]

    @property
    def index_bits(self) -> int:
        from .compression import spm_index_bits

        return spm_index_bits(len(self.patterns))

    def storage_bits(self) -> int:
        """values + SPM codes (+ the mapping table itself)."""
        table_bits = len(self.patterns) * self.shape[-1] * self.shape[-2]
        return (
            self.values.size * self.weight_bits
            + len(self.codes) * self.index_bits
            + table_bits
        )

    def encoded_layer(self) -> EncodedLayer:
        """SPM view of this layer (dequantized), cached for reuse.

        Caching matters: the runtime engine memoizes pattern gather
        indices on the :class:`EncodedLayer`, so repeated
        :meth:`conv_forward` calls plan once and then only execute.

        For a quantized bundle only the ``(kernels, n)`` non-zero
        sequences are scaled back to float here — never the dense
        ``k^2`` tensor. Downstream int8 serving
        (``compile_model(quantize=...)`` on a bundle-restored model)
        re-quantizes those same sequences per output filter, so the
        bundle-to-GEMM path stays free of dense float weights.
        """
        if self._encoded is None:
            codebook = SPMCodebook(self.patterns, kernel_size=self.shape[-1])
            if self.quantized:
                values = self.values.astype(np.float64) * self.scales
            else:
                values = self.values
            self._encoded = EncodedLayer(
                codes=self.codes, values=values, codebook=codebook, shape=self.shape
            )
        return self._encoded

    def conv_forward(
        self,
        x: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 1,
    ) -> np.ndarray:
        """Run this layer's convolution straight from bundle storage.

        Routes through :func:`repro.runtime.dispatch`, which computes
        from the SPM encoding without keeping a dense weight.
        """
        from ..runtime.engine import dispatch

        return dispatch(
            x,
            encoded=self.encoded_layer(),
            bias=bias,
            stride=stride,
            padding=padding,
        )

    def dense_weight(self) -> np.ndarray:
        """Reconstruct the dense pruned weight tensor."""
        return decode_layer(self.encoded_layer())


@dataclass
class DeploymentBundle:
    """Bundle of all pruned layers of a model."""

    layers: Dict[str, LayerBundle] = field(default_factory=dict)

    @property
    def quantized(self) -> bool:
        """Whether every layer carries reduced-precision integer values."""
        return bool(self.layers) and all(
            layer.quantized for layer in self.layers.values()
        )

    def storage_bits(self) -> int:
        """Total bundle payload in bits, summed over layers."""
        return sum(layer.storage_bits() for layer in self.layers.values())

    def storage_report(self) -> Dict[str, dict]:
        """Per-layer storage breakdown in bits."""
        report = {}
        for name, layer in self.layers.items():
            dense_bits = int(np.prod(layer.shape)) * 32
            report[name] = {
                "kernels": len(layer.codes),
                "n": layer.n_nonzero,
                "weight_bits": layer.weight_bits,
                "index_bits": layer.index_bits,
                "bundle_bits": layer.storage_bits(),
                "dense_fp32_bits": dense_bits,
                "compression": dense_bits / layer.storage_bits(),
            }
        return report

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialise to a single compressed ``.npz`` archive."""
        payload: Dict[str, np.ndarray] = {
            "__layer_names__": np.array(sorted(self.layers), dtype="U"),
        }
        for name, layer in self.layers.items():
            payload[f"{name}::codes"] = layer.codes
            payload[f"{name}::values"] = layer.values
            payload[f"{name}::patterns"] = layer.patterns
            payload[f"{name}::shape"] = np.array(layer.shape)
            payload[f"{name}::weight_bits"] = np.array(layer.weight_bits)
            if layer.scales is not None:
                payload[f"{name}::scales"] = layer.scales
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "DeploymentBundle":
        bundle = cls()
        with np.load(path) as archive:
            names = [str(n) for n in archive["__layer_names__"]]
            for name in names:
                scales_key = f"{name}::scales"
                bundle.layers[name] = LayerBundle(
                    codes=archive[f"{name}::codes"],
                    values=archive[f"{name}::values"],
                    scales=archive[scales_key] if scales_key in archive.files else None,
                    patterns=archive[f"{name}::patterns"],
                    shape=tuple(int(s) for s in archive[f"{name}::shape"]),
                    weight_bits=int(archive[f"{name}::weight_bits"]),
                )
        return bundle

    # ------------------------------------------------------------------
    def restore_into(self, model: nn.Module) -> None:
        """Install bundle weights, pattern masks and SPM encodings.

        Each restored conv also gets the bundle's cached
        :meth:`LayerBundle.encoded_layer` attached, so the runtime
        engine's no-grad fast path computes it straight from SPM
        storage — without the encoding, a restored PCNN model would
        silently run the dense conv and lose the pattern GEMM.
        """
        modules = dict(model.named_modules())
        for name, layer in self.layers.items():
            module = modules.get(name)
            if module is None or not isinstance(module, nn.Conv2d):
                raise KeyError(f"{name!r} is not a Conv2d in this model")
            weight = layer.dense_weight()
            if weight.shape != module.weight.data.shape:
                raise ValueError(
                    f"{name}: bundle shape {weight.shape} != model "
                    f"{module.weight.data.shape}"
                )
            module.weight.data[...] = weight
            # Order matters: installing a mask clears any attached
            # encoding, so the encoding goes on afterwards.
            module.set_weight_mask((weight != 0).astype(np.float64))
            module.attach_encoding(layer.encoded_layer())


def bundle_from_pruner(
    pruner: PCNNPruner, quantize_bits: Optional[int] = None
) -> DeploymentBundle:
    """Build a bundle from an applied :class:`PCNNPruner`.

    ``quantize_bits=8`` produces the hardware format (per-kernel symmetric
    scales); ``None`` keeps float32 values.
    """
    encoded = pruner.encode()
    bundle = DeploymentBundle()
    for name, layer in encoded.items():
        if quantize_bits is not None:
            quantized: QuantizedTensor = quantize_per_kernel(layer.values, bits=quantize_bits)
            values: np.ndarray = quantized.codes
            scales: Optional[np.ndarray] = np.asarray(quantized.scale)
            weight_bits = quantize_bits
        else:
            values = layer.values
            scales = None
            weight_bits = 32
        bundle.layers[name] = LayerBundle(
            codes=layer.codes,
            values=values,
            scales=scales,
            patterns=layer.codebook.patterns,
            shape=layer.shape,
            weight_bits=weight_bits,
        )
    return bundle
