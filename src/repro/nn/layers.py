"""Layer/module system for :mod:`repro.nn`.

Provides a ``Module`` base class with parameter registration, train/eval
modes and state-dict (de)serialisation, plus the concrete layers needed by
VGG-16, ResNet-18 and the PatternNet proxy model.

Pruning support: :class:`Conv2d` (and :class:`Linear`) accept a *weight
mask* — a {0,1} array of the weight's shape applied multiplicatively inside
``forward``. Because the mask participates in the autograd graph, masked
weights receive zero gradient and stay zero during retraining, which is
exactly the "hard prune + masked fine-tune" stage of the PCNN flow.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "Sequential",
]


class Parameter(Tensor):
    """A trainable tensor; ``requires_grad`` defaults to True."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module` or buffer
    (``numpy.ndarray``) attributes; registration is automatic via
    ``__setattr__``, mirroring PyTorch's ergonomics.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, np.ndarray):
            self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    # ------------------------------------------------------------------
    # Modes / gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for name, value in state.items():
            if name in params:
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                params[name].data[...] = value
            elif name in buffers:
                buffers[name][...] = value
            else:
                raise KeyError(f"unexpected key in state dict: {name}")
        # Restored weights invalidate any attached SPM encodings.
        for module in self.modules():
            if isinstance(module, Conv2d) and module.encoded is not None:
                module.attach_encoding(None)

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Conv2d(Module):
    """2-D convolution layer with optional pruning mask.

    Weight shape is ``(out_channels, in_channels, kh, kw)``. When a weight
    mask is set via :meth:`set_weight_mask`, ``forward`` computes
    ``conv2d(x, weight * mask)`` so masked positions are pinned at zero for
    both the value and the gradient.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng), name="conv.weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="conv.bias") if bias else None
        self._weight_mask: Optional[np.ndarray] = None
        self._encoded = None

    @property
    def weight_mask(self) -> Optional[np.ndarray]:
        return self._weight_mask

    def set_weight_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install (or clear with ``None``) a {0,1} pruning mask.

        The mask is deliberately NOT a buffer: it is pruning state, not
        model state (deployment bundles carry it), so it must not leak
        into ``state_dict``.
        """
        if mask is not None:
            mask = np.asarray(mask, dtype=self.weight.data.dtype)
            if mask.shape != self.weight.data.shape:
                raise ValueError(
                    f"mask shape {mask.shape} != weight shape {self.weight.data.shape}"
                )
        object.__setattr__(self, "_weight_mask", mask)
        self._buffers.pop("_weight_mask", None)
        # A new mask invalidates any attached SPM encoding.
        object.__setattr__(self, "_encoded", None)

    @property
    def encoded(self):
        return self._encoded

    def attach_encoding(self, encoded) -> None:
        """Attach (or clear with ``None``) an SPM encoding of this layer.

        Inference-time state for the runtime engine: with an encoding
        attached, the no-grad fast path hands it to
        ``repro.runtime.dispatch``, which then computes straight from
        SPM storage. The encoding clears
        automatically on the events the framework can see: installing a
        new weight mask, a gradient-mode forward (training updates the
        dense weights the snapshot came from), and ``load_state_dict``.
        Direct in-place surgery on ``weight.data`` is invisible to the
        layer — clear or re-attach manually after it.
        """
        if encoded is not None and tuple(encoded.shape) != self.weight.data.shape:
            raise ValueError(
                f"encoding shape {tuple(encoded.shape)} != weight shape "
                f"{self.weight.data.shape}"
            )
        object.__setattr__(self, "_encoded", encoded)

    def effective_weight(self) -> np.ndarray:
        """Weight array as used in forward (mask applied)."""
        if self._weight_mask is None:
            return self.weight.data
        return self.weight.data * self._weight_mask

    def inference_params(self) -> dict:
        """Fold-ready snapshot of this conv for the compiled pipeline.

        Returns a dict with ``weight`` (mask applied; ``None`` when an
        SPM encoding is attached, which then is the only weight copy the
        compiled layer needs), ``bias``, ``encoded``, ``stride`` and
        ``padding`` — everything
        :func:`repro.runtime.compile_model` needs to lower the layer
        without reaching into private attributes.
        """
        return {
            "weight": self.effective_weight() if self._encoded is None else None,
            "bias": self.bias.data if self.bias is not None else None,
            "encoded": self._encoded,
            "stride": self.stride,
            "padding": self.padding,
        }

    def forward(self, x: Tensor) -> Tensor:
        from .tensor import is_grad_enabled

        if not is_grad_enabled():
            # Inference fast path: no autograd graph to build, so go
            # straight through the eager conv, which computes from the
            # SPM encoding when one is attached. The dense weight is then
            # never read, so skip materialising it.
            from ..runtime import engine as _engine

            out = _engine.dispatch(
                x.data,
                self.effective_weight() if self._encoded is None else None,
                encoded=self._encoded,
                bias=self.bias.data if self.bias is not None else None,
                stride=self.stride,
                padding=self.padding,
            )
            # dtype=None keeps a float32 engine result float32 instead of
            # re-promoting to the training default of float64.
            return Tensor(out, dtype=None)
        if self._encoded is not None:
            # A gradient-mode forward means the weights are about to be
            # (or may already have been) updated; drop the deployment
            # encoding rather than risk stale SPM inference later.
            object.__setattr__(self, "_encoded", None)
        weight = self.weight
        if self._weight_mask is not None:
            weight = weight * Tensor(self._weight_mask)
        return F.conv2d(x, weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b`` with optional pruning mask."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng), name="linear.weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="linear.bias") if bias else None
        self._weight_mask: Optional[np.ndarray] = None

    def set_weight_mask(self, mask: Optional[np.ndarray]) -> None:
        if mask is not None:
            mask = np.asarray(mask, dtype=self.weight.data.dtype)
            if mask.shape != self.weight.data.shape:
                raise ValueError("mask shape mismatch")
        object.__setattr__(self, "_weight_mask", mask)
        self._buffers.pop("_weight_mask", None)

    def forward(self, x: Tensor) -> Tensor:
        weight = self.weight
        if self._weight_mask is not None:
            weight = weight * Tensor(self._weight_mask)
        return F.linear(x, weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Per-channel batch normalisation with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)), name="bn.gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="bn.beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def fold_params(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel ``(scale, shift)`` of eval-mode BN as an affine map.

        ``BN(x) == x * scale + shift`` with the current running statistics,
        which is exactly what BN folding multiplies into the preceding
        conv's weights and bias (:func:`repro.runtime.compile_model`).
        """
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        shift = self.beta.data - self.running_mean * scale
        return scale, shift

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    """ReLU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MaxPool2d(Module):
    """Max pooling module."""

    def __init__(
        self, kernel_size: int = 2, stride: Optional[int] = None, padding: int = 0
    ) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    """Average pooling module."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Global average pooling, (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    """Flatten trailing dimensions, (N, ...) -> (N, -1)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class Dropout(Module):
    """Inverted dropout; inactive in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class Identity(Module):
    """No-op module (used for absent downsample paths in ResNet)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for i, module in enumerate(modules):
            setattr(self, str(i), module)
            self._ordered.append(module)

    def append(self, module: Module) -> "Sequential":
        index = len(self._ordered)
        setattr(self, str(index), module)
        self._ordered.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def __len__(self) -> int:
        return len(self._ordered)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x
