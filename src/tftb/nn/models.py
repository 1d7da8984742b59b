"""Two fixed model families with hand-derived gradients.

* ``MlpArch``      -- fully connected classifier: ReLU hidden layers, linear
                      logit head (softmax lives inside the cross-entropy loss).
* ``ConvDensityArch`` -- small density regressor: two same-padded square
                      convolutions with ReLU, then a 1x1 convolution down to a
                      single-channel map the size of the input image.

Parameters, activations, and gradients are C-contiguous float64 numpy
arrays throughout, which gives the finite-difference checks headroom; NaN
or Inf in any of them is an error state, never a value.
A model's parameters are one contiguous vector, ``ModelParams.flat``, with
per-layer views ``weights`` and ``biases``.  ``loss_and_grad`` returns the
gradient in the same layout, as a ``ModelParams`` whose views the backward
passes write into, so the optimizer takes it as one vector.
No autodiff: each architecture's backward pass is written out explicitly and
is checked against central finite differences in the test suite.

Convolutions are im2col + GEMM: activations are kept channel-major,
(C, N*H*W), the k x k patches of a chunk of whole samples are copied into one
per-thread scratch buffer (1 MiB, reused by every call), and one matrix
product per chunk (BLAS, via ``@``) does the work: ``W @ patches`` forward,
``d_z @ patches.T`` for the weight gradient, and the same patch product on
``d_z`` with the flipped, transposed kernel for the input gradient, which
the first layer skips.  Patch memory is thus bounded by the buffer, not the
batch; a step holds the cached layer inputs, a few activation-sized arrays
and that buffer.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import NonFiniteError, ShapeError

LOSS_KINDS = ("cross_entropy", "pixelwise_l2")

# Size of the per-thread im2col patch buffer the convolutions share: 1 MiB.
PATCH_BUFFER_FLOATS = 1 << 17
_scratch = threading.local()


def as_f64(values) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def require_finite(arr: np.ndarray, context: str) -> np.ndarray:
    """Raise NonFiniteError if ``arr`` contains NaN/Inf; return it otherwise."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")
    return arr


class _Arch:
    """What both architectures share: the size check and the descriptor."""

    def _check_sizes(self, *sizes) -> None:
        # bool is a subclass of int, but True is not a size
        if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in sizes):
            raise ShapeError(f"{self.kind} sizes must be positive ints: {self!r}")

    def descriptor(self) -> dict:
        """The checkpoint descriptor: ``kind`` plus exactly the fields."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class MlpArch(_Arch):
    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int

    kind = "mlp"

    def __post_init__(self):
        if not isinstance(self.hidden, tuple):
            raise ShapeError(f"mlp hidden widths must be a tuple, got {self.hidden!r}")
        self._check_sizes(self.input_dim, *self.hidden, self.num_classes)

    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        dims = [self.input_dim, *self.hidden, self.num_classes]
        return [((dims[i], dims[i + 1]), (dims[i + 1],)) for i in range(len(dims) - 1)]

    def input_shape(self) -> tuple[int, ...]:
        return (self.input_dim,)


@dataclass(frozen=True)
class ConvDensityArch(_Arch):
    image_height: int
    image_width: int
    channels: tuple[int, int] = (8, 8)
    kernel_size: int = 3

    kind = "conv_density"

    def __post_init__(self):
        if not isinstance(self.channels, tuple) or len(self.channels) != 2:
            raise ShapeError(f"conv_density takes a tuple of two channel counts: {self!r}")
        self._check_sizes(self.image_height, self.image_width, *self.channels, self.kernel_size)
        if self.kernel_size % 2 != 1:
            raise ShapeError("conv kernel size must be odd for same padding")

    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        c1, c2 = self.channels
        k = self.kernel_size
        return [
            ((c1, 1, k, k), (c1,)),
            ((c2, c1, k, k), (c2,)),
            ((1, c2, 1, 1), (1,)),
        ]

    def input_shape(self) -> tuple[int, ...]:
        return (self.image_height, self.image_width)


Architecture = Union[MlpArch, ConvDensityArch]
_BY_KIND = {arch.kind: arch for arch in (MlpArch, ConvDensityArch)}


def arch_from_descriptor(desc: dict) -> Architecture:
    """The architecture ``desc`` describes (lists read as tuples), checked by its constructor."""
    cls = _BY_KIND.get(desc.get("kind"))
    if cls is None:
        raise ShapeError(f"unknown architecture kind: {desc.get('kind')!r}")
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in desc.items() if k != "kind"}
    names = {f.name for f in fields(cls)}
    if values.keys() != names:
        raise ShapeError(f"{cls.kind} has the fields {sorted(names)}, got {sorted(values)}")
    return cls(**values)


@functools.cache
def _layout(arch: Architecture) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """``(shape, start, stop)`` of every parameter array in ``ModelParams.flat``
    order; computed once per architecture, since every gradient has it too."""
    spans, offset = [], 0
    for shape in (shape for pair in arch.layer_shapes() for shape in pair):
        spans.append((shape, offset, offset + math.prod(shape)))
        offset += math.prod(shape)
    return tuple(spans)


@dataclass(eq=False)
class ModelParams:
    """All learnable state of one model, in one contiguous float64 vector.

    ``flat`` holds each layer's weights and then its bias, layer by layer:
    the order of a checkpoint's parameter bytes.  ``weights[i]`` and
    ``biases[i]`` are views of ``flat`` in the shapes the architecture
    descriptor gives, so a write to either is a write to the other, and the
    optimizer updates every parameter in one pass over ``flat``.
    """

    arch: Architecture
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = as_f64(self.flat)
        spans = _layout(self.arch)
        size = spans[-1][2]
        if self.flat.shape != (size,):
            raise ShapeError(
                f"{self.arch.kind} parameters: expected a vector of {size} floats, "
                f"got shape {self.flat.shape}"
            )
        views = [self.flat[start:stop].reshape(shape) for shape, start, stop in spans]
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def zeros(cls, arch: Architecture) -> "ModelParams":
        return cls(arch, np.zeros(_layout(arch)[-1][2]))

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.flat.copy())

    def allclose(self, other: "ModelParams", atol: float = 0.0) -> bool:
        if self.arch != other.arch:
            return False
        if atol == 0.0:
            return np.array_equal(self.flat, other.flat)
        return np.allclose(self.flat, other.flat, atol=atol, rtol=0.0)


def init_params(arch: Architecture, rng: np.random.Generator) -> ModelParams:
    """He-initialised weights, zero biases."""
    params = ModelParams.zeros(arch)
    for w in params.weights:
        fan_in = int(np.prod(w.shape[1:])) if w.ndim == 4 else w.shape[0]
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / fan_in)
    return params


@dataclass
class LossBatchResult:
    """Per-sample losses plus the gradient of the batch-mean loss, laid out
    like the parameters it belongs to."""

    per_sample_losses: np.ndarray
    mean_loss: float
    grad: ModelParams


# ---------------------------------------------------------------------------
# forward passes


def _check_batch(arch: Architecture, batch: np.ndarray) -> np.ndarray:
    batch = as_f64(batch)
    want = arch.input_shape()
    if batch.ndim != len(want) + 1 or tuple(batch.shape[1:]) != want:
        raise ShapeError(
            f"{arch.kind} input: expected (batch, {', '.join(map(str, want))}), "
            f"got {tuple(batch.shape)}"
        )
    return batch


def _mlp_forward(params: ModelParams, x: np.ndarray):
    # Cache post-activation of every layer; activations[0] is the input.
    activations = [x]
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, activations


def _mlp_backward(params: ModelParams, activations, d_out: np.ndarray, grad: ModelParams):
    delta = d_out
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grad.weights[i])
        delta.sum(axis=0, out=grad.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i].T) * (activations[i] > 0.0)


def _patch_buffer(floats: int) -> np.ndarray:
    """A patch scratch buffer of at least ``floats`` floats.

    This thread's shared buffer of ``PATCH_BUFFER_FLOATS`` floats (1 MiB),
    reused by every convolution, so patch memory neither grows with the
    batch nor is allocated per call; only an image whose own patches do not
    fit gets a one-image buffer of its own for the call.
    """
    if floats > PATCH_BUFFER_FLOATS:
        return np.empty(floats)
    buf = getattr(_scratch, "patches", None)
    if buf is None:
        buf = _scratch.patches = np.empty(PATCH_BUFFER_FLOATS)
    return buf


def _patches(src: np.ndarray, k: int):
    """im2col of a zero-padded channel-major ``src`` (C, N, H+k-1, W+k-1).

    Yields ``(lo, hi, patches)`` per chunk of whole samples: ``patches`` is a
    (C*k*k, hi-lo) view of the patch buffer whose row ``(c, i, j)`` holds
    ``src[c, n, y+i, x+j]`` for output columns ``lo:hi`` of the (C', N*H*W)
    layout, column ``(n*H + y)*W + x``.  Each view is overwritten by the next.
    """
    c, n, hp, wp = src.shape
    h, w = hp - k + 1, wp - k + 1
    rows, pixels = c * k * k, h * w
    buf = _patch_buffer(rows * pixels)
    step = buf.size // (rows * pixels)
    # (C, k, k, N, H, W) view; no copy until a chunk lands in the buffer
    taps = sliding_window_view(src, (k, k), axis=(2, 3)).transpose(0, 4, 5, 1, 2, 3)
    for n0 in range(0, n, step):
        n1 = min(n0 + step, n)
        chunk = buf[: rows * (n1 - n0) * pixels]
        np.copyto(chunk.reshape(c, k, k, n1 - n0, h, w), taps[:, :, :, n0:n1])
        yield n0 * pixels, n1 * pixels, chunk.reshape(rows, -1)


def _conv(src: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 same-padded convolution as chunked GEMMs.

    ``src`` is the padded channel-major input (Cin, N, H+k-1, W+k-1) and
    ``w`` (Cout, Cin, k, k); returns the bias-free (Cout, N*H*W) output.
    """
    _, n, hp, wp = src.shape
    k = w.shape[2]
    out = np.empty((w.shape[0], n * (hp - k + 1) * (wp - k + 1)))
    w_mat = w.reshape(w.shape[0], -1)
    for lo, hi, patches in _patches(src, k):
        np.matmul(w_mat, patches, out=out[:, lo:hi])
    return out


def _conv_weight_grad(src: np.ndarray, d_z: np.ndarray, d_w: np.ndarray) -> None:
    """Add the gradient of ``w`` in ``_conv(src, w)`` for output gradient
    ``d_z`` into ``d_w``, an array shaped like ``w``."""
    d_w_mat = d_w.reshape(d_w.shape[0], -1)
    for lo, hi, patches in _patches(src, d_w.shape[2]):
        d_w_mat += d_z[:, lo:hi] @ patches.T


def _conv_input_grad(w: np.ndarray, d_z: np.ndarray, image_shape) -> np.ndarray:
    """Gradient of the unpadded input of ``_conv(src, w)``: the same
    convolution of the padded ``d_z`` with the flipped, transposed kernel."""
    k = w.shape[2]
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv(_pad(d_z.reshape(w.shape[0], *image_shape), k // 2), flipped)


def _pad(a: np.ndarray, p: int, relu: bool = False) -> np.ndarray:
    """Zero-pad the image axes of a channel-major (C, N, H, W) array by ``p``,
    applying ReLU on the way in if ``relu``."""
    c, n, h, w = a.shape
    out = np.zeros((c, n, h + 2 * p, w + 2 * p))
    inner = out[:, :, p : p + h, p : p + w]
    if relu:
        np.maximum(a, 0.0, out=inner)
    else:
        inner[...] = a
    return out


def _conv_forward(params: ModelParams, x: np.ndarray):
    # Activations are channel-major (C, N*H*W); x arrives (N, H, W), one channel.
    # Only layer inputs are cached: relu(z) > 0 exactly where z > 0, so the
    # post-activations double as the backward pass's ReLU masks.
    n, h, wid = x.shape
    w1, w2, w3 = params.weights
    b1, b2, b3 = params.biases
    p = w1.shape[2] // 2
    x_pad = _pad(x[None], p)
    z1 = _conv(x_pad, w1)
    z1 += b1[:, None]
    a1_pad = _pad(z1.reshape(-1, n, h, wid), p, relu=True)
    del z1  # free before the second convolution allocates its output
    a2 = _conv(a1_pad, w2)
    a2 += b2[:, None]
    np.maximum(a2, 0.0, out=a2)
    # the 1x1 head is a plain matrix product in this layout
    z3 = w3.reshape(1, -1) @ a2
    z3 += b3[:, None]
    return z3.reshape(n, h, wid), (x_pad, a1_pad, a2)


def _conv_backward(params: ModelParams, cache, d_out: np.ndarray, grad: ModelParams):
    # grad starts at zero: the weight gradients are sums over patch chunks
    x_pad, a1_pad, a2 = cache
    w1, w2, w3 = params.weights
    n, h, wid = d_out.shape
    p = w1.shape[2] // 2
    d_z3 = d_out.reshape(1, -1)
    np.matmul(d_z3, a2.T, out=grad.weights[2].reshape(1, -1))
    d_z2 = w3.reshape(-1, 1) @ d_z3
    d_z2 *= a2 > 0.0
    _conv_weight_grad(a1_pad, d_z2, grad.weights[1])
    d_z1 = _conv_input_grad(w2, d_z2, (n, h, wid))
    d_z1 *= (a1_pad[:, :, p : p + h, p : p + wid] > 0.0).reshape(d_z1.shape)
    # the input image needs no gradient
    _conv_weight_grad(x_pad, d_z1, grad.weights[0])
    for d_z, d_b in zip((d_z1, d_z2, d_z3), grad.biases):
        d_z.sum(axis=1, out=d_b)


def _forward_cached(params: ModelParams, batch: np.ndarray):
    batch = _check_batch(params.arch, batch)
    if params.arch.kind == "mlp":
        return _mlp_forward(params, batch)
    return _conv_forward(params, batch)


def forward(params: ModelParams, batch) -> np.ndarray:
    """Model output: (batch, num_classes) logits or (batch, H, W) density."""
    out, _ = _forward_cached(params, batch)
    return require_finite(out, f"{params.arch.kind} forward output")


# ---------------------------------------------------------------------------
# losses


def _cross_entropy(output: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    n = output.shape[0]
    logits = output.reshape(n, -1)
    y = np.asarray(targets)
    if y.shape != (n,):
        raise ShapeError(
            f"cross_entropy targets: expected shape ({n},) of class indices, "
            f"got {tuple(y.shape)}"
        )
    y = y.astype(np.int64)
    num_classes = logits.shape[1]
    if y.min(initial=0) < 0 or y.max(initial=0) >= num_classes:
        raise ShapeError(
            f"cross_entropy targets out of range [0, {num_classes}): "
            f"min {y.min()}, max {y.max()}"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    per_sample = -log_probs[np.arange(n), y]
    probs = exp / sum_exp
    d_logits = probs.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n  # gradient of the batch-mean loss
    return per_sample, d_logits.reshape(output.shape)


def _pixelwise_l2(output: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    t = as_f64(targets)
    if t.shape != output.shape:
        raise ShapeError(
            f"pixelwise_l2 targets: expected shape {tuple(output.shape)}, "
            f"got {tuple(t.shape)}"
        )
    n = output.shape[0]
    per_element = output.size // n
    diff = output - t
    per_sample = (diff * diff).reshape(n, -1).mean(axis=1)
    d_out = (2.0 / (n * per_element)) * diff
    return per_sample, d_out


def _loss(output: np.ndarray, targets, loss_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and the batch-mean loss gradient of a model output."""
    if loss_kind == "cross_entropy":
        return _cross_entropy(output, targets)
    if loss_kind == "pixelwise_l2":
        return _pixelwise_l2(output, targets)
    raise ShapeError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")


def loss_and_grad(
    params: ModelParams,
    batch,
    targets,
    loss_kind: str,
    sample_ids: Sequence[int] | None = None,
) -> LossBatchResult:
    """Per-sample losses plus gradients of the batch-mean loss.

    ``cross_entropy`` treats the model output flattened per sample as class
    logits; ``pixelwise_l2`` is the per-sample mean squared element
    difference.  Both apply to either architecture, so gradient checks can
    cover the full model/loss cross product.
    """
    # overflow here surfaces as a NonFiniteError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out, cache = _forward_cached(params, batch)
        per_sample, d_out = _loss(out, targets, loss_kind)

    bad = np.flatnonzero(~np.isfinite(per_sample))
    if bad.size:
        idx = int(bad[0])
        sid = int(sample_ids[idx]) if sample_ids is not None else idx
        raise NonFiniteError(
            f"non-finite {loss_kind} loss for sample id {sid}", sample_id=sid
        )

    grad = ModelParams.zeros(params.arch)
    backward = _mlp_backward if params.arch.kind == "mlp" else _conv_backward
    backward(params, cache, d_out, grad)
    return LossBatchResult(
        per_sample_losses=per_sample, mean_loss=float(per_sample.mean()), grad=grad
    )


def output_losses(output: np.ndarray, targets, loss_kind: str) -> np.ndarray:
    """Per-sample losses of a ``forward`` output, so a caller that needs both
    the output and the losses runs the model once."""
    with np.errstate(over="ignore", invalid="ignore"):
        per_sample, _ = _loss(output, targets, loss_kind)
    return require_finite(per_sample, f"{loss_kind} per-sample losses")


def per_sample_losses(params: ModelParams, batch, targets, loss_kind: str) -> np.ndarray:
    """Forward-only per-sample losses (used to refresh excluded samples)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = _forward_cached(params, batch)
    return output_losses(out, targets, loss_kind)
