"""Per-inference latency and energy (Sec. IV-E, derived quantities).

Combines the analytic cycle model with the clock frequency and the
Table IX power to give what a deployment engineer actually asks for:
milliseconds and millijoules per image at each sparsity setting.

Two granularities:

- **Whole network** — :func:`inference_cost` /
  :func:`inference_cost_sweep` (the paper's Sec. IV-E numbers), now
  aggregated from the per-layer view below.
- **Single layer** — :class:`LayerCost` / :func:`conv_layer_cost`: a
  roofline of one convolution executed as a GEMM of a given contraction
  width (MAC-slot compute cycles vs DRAM-interface memory cycles).
  :func:`inference_cost_by_layer` exposes the paper model layer by
  layer; :func:`conv_layer_cost` prices one layer under a dense, pattern
  gather or Winograd contraction, the roofline a measured CPU layer can
  be set against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.config import PCNNConfig
from ..models.flops import ModelProfile
from .config import ArchConfig
from .energy import PAPER_TECH, TechnologyProfile
from .simulator import simulate_network_analytic

__all__ = [
    "InferenceCost",
    "LayerCost",
    "conv_layer_cost",
    "inference_cost",
    "inference_cost_by_layer",
    "inference_cost_sweep",
]


@dataclass(frozen=True)
class LayerCost:
    """Roofline cost of one convolution layer on the modelled machine.

    ``compute_cycles`` charges the GEMM's multiply-accumulates against
    the architecture's MAC slots; ``memory_cycles`` charges the bytes it
    moves (operands, output, any gathered intermediates) against the
    DRAM interface width. The layer runs at the slower of the two.
    """

    macs: float
    compute_cycles: float
    memory_cycles: float
    bytes_moved: float
    frequency_hz: float
    power_mw: float

    @property
    def cycles(self) -> float:
        """Roofline cycles: ``max(compute, memory)``."""
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def latency_ms(self) -> float:
        """Layer latency at the modelled clock, in milliseconds."""
        return self.cycles / self.frequency_hz * 1e3

    @property
    def energy_mj(self) -> float:
        """Layer energy at the Table IX power, in millijoules."""
        return self.latency_ms * 1e-3 * self.power_mw * 1e-3


def conv_layer_cost(
    *,
    out_hw: Tuple[int, int],
    c_in: int,
    c_out: int,
    kernel_size: int,
    batch: int = 1,
    contraction_width: Optional[int] = None,
    extra_bytes: float = 0.0,
    itemsize: int = 4,
    activation_density: float = 1.0,
    winograd_tile: int = 0,
    arch: Optional[ArchConfig] = None,
    tech: Optional[TechnologyProfile] = None,
) -> LayerCost:
    """Analytic cost of one conv executed as a GEMM.

    Parameters
    ----------
    contraction_width:
        Columns each output element contracts over. Defaults to the
        dense ``k² · C_in``; a pattern-gather execution passes its
        ``|P| · n · C_in`` width, the hardware's effectual view passes
        ``n · C_in``.
    extra_bytes:
        Additional memory traffic the execution strategy implies (e.g.
        the gathered A matrix a grouped contraction materialises).
    activation_density:
        Fraction of activations that are non-zero (the hardware skips
        zeros; software GEMMs pass 1.0).
    winograd_tile:
        Cost the layer as a Winograd F(m x m, 3x3) execution instead of
        an im2col GEMM (``m`` = 2 or 4). The element-wise products
        become ``(m+2)²`` GEMMs of width ``C_in`` over the tile grid,
        and the input/inverse transforms are charged as the dense
        matrix products the runtime actually performs — so the roofline
        reflects the real arithmetic trade, not the textbook
        multiplication count alone.
    """
    arch = arch or ArchConfig()
    tech = tech or PAPER_TECH
    oh, ow = out_hw
    windows = batch * oh * ow
    if winograd_tile:
        m = winograd_tile
        f = (m + 2) ** 2
        tiles = batch * -(-oh // m) * -(-ow // m)
        macs = (
            tiles * f * c_in * c_out  # the (f)-stacked batched GEMM
            + tiles * f * f * c_in  # input transform  V = (B⊗B)ᵀ d
            + tiles * m * m * f * c_out  # inverse transform Y = (A⊗A)ᵀ M
        ) * activation_density
        compute_cycles = macs / arch.total_macs
        bytes_moved = (
            2 * tiles * f * c_in * itemsize  # d and V tile buffers
            + f * c_in * c_out * itemsize  # transformed weights U
            + tiles * f * c_out * itemsize  # Winograd-domain products M
            + windows * c_out * itemsize  # output writeback
            + windows * c_in * itemsize  # input read
            + extra_bytes
        )
        memory_cycles = bytes_moved / arch.dram_bytes_per_cycle
        return LayerCost(
            macs=macs,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            bytes_moved=bytes_moved,
            frequency_hz=arch.frequency_hz,
            power_mw=tech.total_power_mw,
        )
    width = contraction_width if contraction_width is not None else kernel_size**2 * c_in
    macs = windows * c_out * width * activation_density
    compute_cycles = macs / arch.total_macs
    bytes_moved = (
        windows * kernel_size**2 * c_in * itemsize  # input columns
        + width * c_out * itemsize  # GEMM weight operand
        + windows * c_out * itemsize  # output writeback
        + extra_bytes
    )
    memory_cycles = bytes_moved / arch.dram_bytes_per_cycle
    return LayerCost(
        macs=macs,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        bytes_moved=bytes_moved,
        frequency_hz=arch.frequency_hz,
        power_mw=tech.total_power_mw,
    )


@dataclass(frozen=True)
class InferenceCost:
    """Latency/energy of one forward pass on the accelerator."""

    cycles: float
    latency_ms: float
    energy_mj: float
    speedup_vs_dense: float

    @property
    def images_per_second(self) -> float:
        return 1000.0 / self.latency_ms if self.latency_ms > 0 else float("inf")


def inference_cost(
    profile: ModelProfile,
    config: PCNNConfig,
    arch: Optional[ArchConfig] = None,
    tech: Optional[TechnologyProfile] = None,
    activation_density: Optional[float] = None,
) -> InferenceCost:
    """Latency and compute energy per image for one PCNN setting."""
    arch = arch or ArchConfig()
    tech = tech or PAPER_TECH
    sim = simulate_network_analytic(profile, config, arch, activation_density)
    seconds = sim.total_cycles / arch.frequency_hz
    energy_j = seconds * tech.total_power_mw * 1e-3
    return InferenceCost(
        cycles=sim.total_cycles,
        latency_ms=seconds * 1e3,
        energy_mj=energy_j * 1e3,
        speedup_vs_dense=sim.speedup,
    )


def inference_cost_by_layer(
    profile: ModelProfile,
    config: PCNNConfig,
    arch: Optional[ArchConfig] = None,
    tech: Optional[TechnologyProfile] = None,
    activation_density: Optional[float] = None,
) -> Dict[str, InferenceCost]:
    """Per-layer latency/energy breakdown of the Sec. IV-E model.

    The same analytic model as :func:`inference_cost`, exposed layer by
    layer: each entry's latency and energy sum to the whole-network
    figure, and ``speedup_vs_dense`` is that layer's own ratio against
    its dense counterpart on the same datapath.
    """
    arch = arch or ArchConfig()
    tech = tech or PAPER_TECH
    sim = simulate_network_analytic(profile, config, arch, activation_density)
    costs: Dict[str, InferenceCost] = {}
    for name, cycles in sim.layer_cycles.items():
        seconds = cycles / arch.frequency_hz
        dense_cycles = sim.dense_layer_cycles[name]
        costs[name] = InferenceCost(
            cycles=cycles,
            latency_ms=seconds * 1e3,
            energy_mj=seconds * tech.total_power_mw * 1e-3 * 1e3,
            speedup_vs_dense=dense_cycles / cycles if cycles > 0 else float("inf"),
        )
    return costs


def inference_cost_sweep(
    profile: ModelProfile,
    ns=(4, 3, 2, 1),
    arch: Optional[ArchConfig] = None,
    tech: Optional[TechnologyProfile] = None,
) -> Dict[int, InferenceCost]:
    """Latency/energy for a range of uniform kernel sparsities."""
    num_layers = len(profile.prunable())
    return {
        n: inference_cost(profile, PCNNConfig.uniform(n, num_layers), arch, tech) for n in ns
    }
