"""SRAM tiling scheduler (Sec. III-A's host-controller view).

The 128 KB weight SRAM cannot hold a whole VGG-16 layer, so the host
controller streams weights in tiles and re-reads input activations once
per weight tile (output-stationary over the tile). Because PCNN's kernels
are equal-sized (n weights + one SPM code), tile capacity is a simple
division — and because the per-kernel footprint is smaller than CSC's,
each tile holds more kernels, cutting both the refill count and the
activation re-read traffic. This module quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional

from ..core.compression import CSC_INDEX_BITS, spm_index_bits
from ..core.config import PCNNConfig
from ..models.flops import ConvProfile, ModelProfile
from .config import ArchConfig

__all__ = ["LayerSchedule", "NetworkSchedule", "schedule_layer", "schedule_network"]


@dataclass(frozen=True)
class LayerSchedule:
    """Tiling decision and DRAM traffic for one conv layer."""

    name: str
    kernels: int
    kernels_per_tile: int
    weight_tiles: int
    weight_bytes: float
    input_bytes: float
    output_bytes: float

    @property
    def activation_read_bytes(self) -> float:
        """Input re-read once per weight tile (output-stationary)."""
        return self.weight_tiles * self.input_bytes

    @property
    def dram_bytes(self) -> float:
        """Weights once + tiled input reads + output writeback."""
        return self.weight_bytes + self.activation_read_bytes + self.output_bytes


@dataclass
class NetworkSchedule:
    """Whole-network tiling summary."""

    layers: List[LayerSchedule]

    @property
    def total_dram_bytes(self) -> float:
        return sum(layer.dram_bytes for layer in self.layers)

    @property
    def total_weight_tiles(self) -> int:
        return sum(layer.weight_tiles for layer in self.layers)

    def by_name(self) -> Dict[str, LayerSchedule]:
        return {layer.name: layer for layer in self.layers}


def schedule_layer(
    conv: ConvProfile,
    bits_per_kernel: float,
    arch: Optional[ArchConfig] = None,
    activation_bits: int = 8,
) -> LayerSchedule:
    """Tile one conv layer under the weight-SRAM capacity.

    The per-layer unit :func:`schedule_network` aggregates — exposed so
    callers (benchmarks, :func:`~repro.arch.latency.conv_layer_cost`) can cost a single
    layer without building a whole-network profile.
    """
    arch = arch or ArchConfig()
    capacity = max(1, int((arch.weight_sram_bytes * 8) // bits_per_kernel))
    tiles = ceil(conv.kernels / capacity)
    ih, iw = conv.input_hw
    oh, ow = conv.output_hw
    return LayerSchedule(
        name=conv.name,
        kernels=conv.kernels,
        kernels_per_tile=min(capacity, conv.kernels),
        weight_tiles=tiles,
        weight_bytes=conv.kernels * bits_per_kernel / 8.0,
        input_bytes=conv.in_channels * ih * iw * activation_bits / 8.0,
        output_bytes=conv.out_channels * oh * ow * activation_bits / 8.0,
    )


def schedule_network(
    profile: ModelProfile,
    config: Optional[PCNNConfig],
    arch: Optional[ArchConfig] = None,
    index_format: str = "spm",
    activation_bits: int = 8,
) -> NetworkSchedule:
    """Tile every conv layer under the weight-SRAM capacity.

    Parameters
    ----------
    config:
        PCNN config for the prunable layers; ``None`` schedules the dense
        model (9 weights per kernel, no index).
    index_format:
        ``"spm"`` — one SPM code per kernel; ``"csc"`` — 4 index bits per
        non-zero weight (EIE-style), for the comparison benches.
    """
    arch = arch or ArchConfig()
    layers: List[LayerSchedule] = []
    if config is None:
        for conv in profile.convs:
            bits = conv.kernel_size**2 * arch.weight_bits
            layers.append(schedule_layer(conv, bits, arch, activation_bits))
        return NetworkSchedule(layers)

    prunable = {c.name for c in profile.prunable(kernel_size=config.kernel_size)}
    config.validate_for(len(prunable))
    config_iter = iter(config)
    for conv in profile.convs:
        if conv.name in prunable:
            layer_cfg = next(config_iter)
            if index_format == "spm":
                index_bits = spm_index_bits(layer_cfg.num_patterns)
            elif index_format == "csc":
                index_bits = layer_cfg.n * CSC_INDEX_BITS
            else:
                raise ValueError(f"unknown index format {index_format!r}")
            bits = layer_cfg.n * arch.weight_bits + index_bits
        else:
            bits = conv.kernel_size**2 * arch.weight_bits
        layers.append(schedule_layer(conv, bits, arch, activation_bits))
    return NetworkSchedule(layers)
