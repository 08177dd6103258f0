"""PCNNPruner — the end-to-end PCNN pruning flow (Sec. II).

Pipeline (paper Sec. IV-A): start from a pre-trained model, run KP-based
pattern distillation per layer (Algorithm 1), project weights onto the
distilled patterns (hard prune), install masks so masked retraining / ADMM
keeps pruned positions at zero, and encode the result with SPM.

The pruner targets every 3x3 convolution the model exposes; 1x1 layers are
skipped (Sec. IV-B: "too accuracy-sensitive").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import nn
from ..models.flops import ModelProfile
from .compression import CompressionReport, pcnn_compression
from .config import PCNNConfig
from .distillation import DistillationResult, distill_patterns
from .masks import kernel_nonzeros, pattern_mask_for_weight
from .projection import project_to_patterns
from .spm import EncodedLayer, SPMCodebook, encode_layer

__all__ = ["PrunedLayerInfo", "PCNNPruner"]


@dataclass
class PrunedLayerInfo:
    """Everything the pruner decided for one layer."""

    name: str
    n: int
    patterns: np.ndarray
    distillation: DistillationResult
    mask: np.ndarray

    @property
    def sparsity(self) -> float:
        """Zero fraction of the layer (``1 - n / k^2``)."""
        return 1.0 - float(np.count_nonzero(self.mask)) / self.mask.size


class PCNNPruner:
    """Applies PCNN pruning to a model in place.

    Parameters
    ----------
    model:
        Any model exposing conv layers via ``named_modules`` (VGG16,
        ResNet18, PatternNet, or a plain Sequential).
    config:
        Per-layer :class:`PCNNConfig`; must cover the model's 3x3 convs in
        network order.
    method:
        Distillation selector passed to
        :func:`repro.core.distillation.distill_patterns`.
    """

    def __init__(
        self,
        model: nn.Module,
        config: PCNNConfig,
        method: str = "frequency",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.method = method
        self._rng = rng
        self.layers = self._find_prunable_layers()
        config.validate_for(len(self.layers))
        self.info: Dict[str, PrunedLayerInfo] = {}

    def _find_prunable_layers(self) -> List[Tuple[str, nn.Conv2d]]:
        return [
            (name, module)
            for name, module in self.model.named_modules()
            if isinstance(module, nn.Conv2d) and module.kernel_size == self.config.kernel_size
        ]

    # ------------------------------------------------------------------
    def distill(self) -> Dict[str, DistillationResult]:
        """Run Algorithm 1 on every prunable layer; returns per-layer results."""
        results = {}
        for (name, module), layer_cfg in zip(self.layers, self.config):
            results[name] = distill_patterns(
                module.weight.data,
                n=layer_cfg.n,
                num_patterns=layer_cfg.num_patterns,
                method=self.method,
                rng=self._rng,
            )
        return results

    def apply(self) -> Dict[str, PrunedLayerInfo]:
        """Distill, hard-prune and install masks. Returns per-layer info."""
        distilled = self.distill()
        self.info = {}
        for (name, module), layer_cfg in zip(self.layers, self.config):
            result = distilled[name]
            projected = project_to_patterns(module.weight.data, result.patterns)
            module.weight.data[...] = projected
            mask = pattern_mask_for_weight(projected, result.patterns)
            module.set_weight_mask(mask)
            self.info[name] = PrunedLayerInfo(
                name=name,
                n=layer_cfg.n,
                patterns=result.patterns,
                distillation=result,
                mask=mask,
            )
        return self.info

    # ------------------------------------------------------------------
    def verify_regularity(self) -> None:
        """Assert the PCNN invariant: equal non-zeros in every kernel of a layer.

        (Kernels whose top-n weights tie at zero may hold fewer literal
        non-zeros, but the *mask* — what the hardware stores — is exact.)
        """
        for (name, module), layer_cfg in zip(self.layers, self.config):
            if module.weight_mask is None:
                raise RuntimeError(f"layer {name} has no mask; call apply() first")
            counts = kernel_nonzeros(module.weight_mask)
            if not np.all(counts == layer_cfg.n):
                raise AssertionError(
                    f"layer {name}: kernel non-zeros {np.unique(counts)} != {layer_cfg.n}"
                )

    def encode(self) -> Dict[str, EncodedLayer]:
        """SPM-encode every pruned layer (requires :meth:`apply` first)."""
        if not self.info:
            raise RuntimeError("call apply() before encode()")
        encoded = {}
        for name, module in self.layers:
            info = self.info[name]
            codebook = SPMCodebook(info.patterns, kernel_size=self.config.kernel_size)
            encoded[name] = encode_layer(module.effective_weight(), codebook)
        return encoded

    def attach_encodings(self) -> Dict[str, EncodedLayer]:
        """SPM-encode every pruned layer and attach the encodings.

        After this, the runtime engine's no-grad fast path executes each
        pruned conv straight from SPM storage (see
        :meth:`repro.nn.Conv2d.attach_encoding`). Returns
        the encodings, keyed by layer name.
        """
        encoded = self.encode()
        for name, module in self.layers:
            module.attach_encoding(encoded[name])
        return encoded

    def compression_report(
        self, profile: ModelProfile, setting: Optional[str] = None
    ) -> CompressionReport:
        """Paper-style compression accounting for this pruner's config."""
        return pcnn_compression(profile, self.config, setting=setting)
