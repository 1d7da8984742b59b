"""Two fixed model families with hand-derived gradients.

* ``MlpArch``      -- fully connected classifier: ReLU hidden layers, linear
                      logit head (softmax lives inside the cross-entropy loss).
* ``ConvDensityArch`` -- small density regressor: two same-padded square
                      convolutions with ReLU, then a 1x1 convolution down to a
                      single-channel map the size of the input image.

Parameters, activations, and gradients are float64 numpy arrays
throughout, which gives the finite-difference checks headroom; NaN or Inf
in any of them is an error state, never a value.
A model's parameters are one contiguous vector, ``ModelParams.flat``, with
per-layer views ``weights`` and ``biases``.  ``loss_and_grad`` returns the
gradient in the same layout, as a ``ModelParams`` whose views the backward
passes write into, so the optimizer takes it as one vector.
No autodiff: each architecture's backward pass is written out explicitly and
is checked against central finite differences in the test suite.

A model runs one way: every operation takes a ``BatchStep``, the buffers
of up to ``batch_size`` samples for one architecture and loss kind, and
fills them through ``out=``.  Values are checked once, where they enter:
the data by ``check_inputs``, the batch size and loss kind by the step's
constructor (an architecture checks itself).  An operation checks only
that the batch fits its step and that its result is finite, and allocates
nothing that grows with the batch.

Convolutions are im2col + GEMM: activations are kept channel-major,
(C, N*H*W), the k x k patches of a chunk of whole samples are copied into one
per-thread scratch buffer (1 MiB, reused by every call), and one matrix
product per chunk (BLAS, via ``@``) does the work.  The patches of the
padded image feed the first layer's output, ``W1 @ patches``, and its
weight gradient, ``d_z1 @ patches.T``.  Those of the padded first
activation feed only the second layer's output.  Those of the second
layer's padded output gradient ``d_z2`` feed both of its gradients: the
input gradient, the flipped, transposed kernel times them, and the weight
gradient, the unpadded first activation times their transpose (the taps
flipped back), so a training step copies the patches of each padded
activation once and of the image twice.  Patch memory is thus bounded by
the buffer, not the batch; a step holds the layer inputs, a few
activation-sized arrays and their gradients.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import NonFiniteError, ShapeError

LOSS_KINDS = ("cross_entropy", "pixelwise_l2")

# Size of the per-thread im2col patch buffer the convolutions share: 1 MiB.
PATCH_BUFFER_FLOATS = 1 << 17
_scratch = threading.local()
PAGE_BYTES = 4096


def as_f64(values) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def _empty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised array that starts on a page boundary.

    A step's buffers and the patch buffer are allocated so.  Left where the
    heap puts them, the same conv step ran 10-20% faster or slower with the
    directory the program was started from; page-aligned, it does not vary.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + PAGE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % PAGE_BYTES
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def require_finite(arr: np.ndarray, context: str) -> np.ndarray:
    """Raise NonFiniteError if ``arr`` contains NaN/Inf; return it otherwise."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")
    return arr


class _Arch:
    """What both architectures share: the size check and the descriptor."""

    def _check_sizes(self) -> None:
        """Refuse any size that is not a positive integer and keep each as a
        Python int; every field is a size or a tuple of sizes.  A numpy
        integer counts; a bool does not (``True`` is not a size)."""
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            sizes = value if isinstance(value, tuple) else (value,)
            if not all(
                isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0
                for v in sizes
            ):
                raise ShapeError(f"{self.kind} sizes must be positive ints: {self!r}")
            sizes = tuple(map(int, sizes))
            object.__setattr__(self, name, sizes if isinstance(value, tuple) else sizes[0])

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
        self._check_sizes()

    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        dims = [self.input_dim, *self.hidden, self.num_classes]
        return [((dims[i], dims[i + 1]), (dims[i + 1],)) for i in range(len(dims) - 1)]

    def input_shape(self) -> tuple[int, ...]:
        return (self.input_dim,)

    def output_shape(self) -> tuple[int, ...]:
        return (self.num_classes,)


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
        self._check_sizes()
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

    def output_shape(self) -> tuple[int, ...]:
        return self.input_shape()


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


def _layout(arch: Architecture) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """``(shape, start, stop)`` of every parameter array in ``ModelParams.flat``
    order."""
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
# input checks


def _check_targets(targets, loss_kind: str, output_shape: tuple[int, ...]) -> np.ndarray:
    """``targets`` as the array the loss reads, checked against the shape of
    the model output they belong to."""
    n = output_shape[0]
    if loss_kind == "cross_entropy":
        y = np.asarray(targets)
        if y.shape != (n,):
            raise ShapeError(
                f"cross_entropy targets: expected shape ({n},) of class indices, "
                f"got {tuple(y.shape)}"
            )
        if y.dtype.kind not in "iu":
            raise ShapeError(f"cross_entropy targets must be integer class indices, got {y.dtype}")
        y = y.astype(np.int64, copy=False)
        num_classes = math.prod(output_shape[1:])
        if y.min(initial=0) < 0 or y.max(initial=0) >= num_classes:
            raise ShapeError(
                f"cross_entropy targets out of range [0, {num_classes}): "
                f"min {y.min()}, max {y.max()}"
            )
        return y
    if loss_kind == "pixelwise_l2":
        t = as_f64(targets)
        if t.shape != output_shape:
            raise ShapeError(
                f"pixelwise_l2 targets: expected shape {output_shape}, got {tuple(t.shape)}"
            )
        return t
    raise ShapeError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")


def check_inputs(arch: Architecture, features, targets, loss_kind: str):
    """``(features, targets)`` as float64 / int64 arrays, checked against the
    architecture's input and output shapes and the loss kind: what a step
    then reads without checking again."""
    features = as_f64(features)
    want = arch.input_shape()
    if features.ndim != len(want) + 1 or tuple(features.shape[1:]) != want:
        raise ShapeError(
            f"{arch.kind} input: expected (batch, {', '.join(map(str, want))}), "
            f"got {tuple(features.shape)}"
        )
    return features, _check_targets(targets, loss_kind, (len(features), *arch.output_shape()))


def _rows(buffers, m: int, full: int):
    """The first ``m`` rows of each of ``buffers``, all of them if ``m == full``."""
    return buffers if m == full else [buf[:m] for buf in buffers]


# ---------------------------------------------------------------------------
# convolution kernels


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
        buf = _scratch.patches = _empty((PATCH_BUFFER_FLOATS,))
    return buf


def _chunk_samples(rows: int, pixels: int) -> int:
    """Samples per ``_patches`` chunk of ``rows`` patch rows over images of
    ``pixels`` pixels: as many as the shared buffer holds, and at least one."""
    return max(1, PATCH_BUFFER_FLOATS // (rows * pixels))


def _patches(src: np.ndarray, k: int):
    """im2col of a zero-padded channel-major ``src`` (C, N, H+k-1, W+k-1).

    Yields ``(lo, hi, patches)`` per chunk of ``_chunk_samples`` whole
    samples: ``patches`` is a (C*k*k, hi-lo) view of the patch buffer whose
    row ``(c, i, j)`` holds ``src[c, n, y+i, x+j]`` for output columns
    ``lo:hi`` of the (C', N*H*W) layout, column ``(n*H + y)*W + x``.  Each
    view is overwritten by the next.
    """
    c, n, hp, wp = src.shape
    h, w = hp - k + 1, wp - k + 1
    rows, pixels = c * k * k, h * w
    buf = _patch_buffer(rows * pixels)
    step = _chunk_samples(rows, pixels)
    # (C, k, k, N, H, W) view; no copy until a chunk lands in the buffer
    taps = sliding_window_view(src, (k, k), axis=(2, 3)).transpose(0, 4, 5, 1, 2, 3)
    for n0 in range(0, n, step):
        n1 = min(n0 + step, n)
        chunk = buf[: rows * (n1 - n0) * pixels]
        np.copyto(chunk.reshape(c, k, k, n1 - n0, h, w), taps[:, :, :, n0:n1])
        yield n0 * pixels, n1 * pixels, chunk.reshape(rows, -1)


def _conv(src: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Stride-1 same-padded convolution as chunked GEMMs.

    ``src`` is the padded channel-major input (Cin, N, H+k-1, W+k-1) and
    ``w`` (Cout, Cin, k, k); writes the bias-free output into ``out``,
    (Cout, N*H*W).
    """
    w_mat = w.reshape(w.shape[0], -1)
    for lo, hi, patches in _patches(src, w.shape[2]):
        np.matmul(w_mat, patches, out=out[:, lo:hi])


def _conv_weight_grad(src: np.ndarray, d_z: np.ndarray, d_w: np.ndarray) -> None:
    """Write the gradient of ``w`` in ``_conv(src, w, ...)`` for output
    gradient ``d_z`` into ``d_w``, an array shaped like ``w``: the sum of
    one patch product per chunk."""
    d_w[...] = 0.0
    d_w_mat = d_w.reshape(d_w.shape[0], -1)
    for lo, hi, patches in _patches(src, d_w.shape[2]):
        d_w_mat += d_z[:, lo:hi] @ patches.T


def _conv_grads(
    src: np.ndarray, d_z_pad: np.ndarray, w: np.ndarray,
    d_src: np.ndarray, d_w: np.ndarray, staging: np.ndarray,
) -> None:
    """Both gradients of ``_conv(src, w, ...)`` from one im2col pass over
    ``d_z_pad``, its output gradient zero-padded like ``src``.

    ``d_src`` (Cin, N*H*W) gets the gradient of the unpadded input: the same
    convolution of ``d_z_pad`` with the flipped, transposed kernel.  ``d_w``,
    shaped like ``w``, gets the weight gradient from the same patches, as
    ``d_w[o, c, i, j] = sum over pixels of src[c, .] * patches[(o, k-1-i,
    k-1-j), .]`` with ``src`` unpadded: each chunk's samples of it are
    copied into the flat ``staging`` buffer, 1 / (Cout*k*k) of the patches'
    size, so ``src``'s own patches are never copied.
    """
    c_out, c_in, k, _ = w.shape
    p = k // 2
    h, wid = src.shape[2] - 2 * p, src.shape[3] - 2 * p
    inner = src[:, :, p : p + h, p : p + wid]
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c_in, -1)
    d_w_t = np.zeros((c_in, c_out * k * k))  # d_w with its taps flipped, transposed
    for lo, hi, patches in _patches(d_z_pad, k):
        np.matmul(flipped, patches, out=d_src[:, lo:hi])
        chunk = staging[: c_in * (hi - lo)].reshape(c_in, hi - lo)
        np.copyto(chunk.reshape(c_in, -1, h, wid), inner[:, lo // (h * wid) : hi // (h * wid)])
        d_w_t += chunk @ patches.T
    d_w[...] = d_w_t.reshape(c_in, c_out, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _pad_into(dst: np.ndarray, src: np.ndarray, p: int, relu: bool = False) -> None:
    """Write a channel-major (C, N, H, W) ``src`` into ``dst``, (C, N, H+2p,
    W+2p), zero-padded by ``p`` on the image axes, applying ReLU on the way
    in if ``relu``."""
    h, w = src.shape[2:]
    dst[:, :, :p] = 0.0
    dst[:, :, p + h :] = 0.0
    dst[:, :, p : p + h, :p] = 0.0
    dst[:, :, p : p + h, p + w :] = 0.0
    inner = dst[:, :, p : p + h, p : p + w]
    if relu:
        np.maximum(src, 0.0, out=inner)
    else:
        inner[...] = src


# ---------------------------------------------------------------------------
# losses


class _Loss:
    """The buffers and arithmetic of one loss kind over up to ``batch_size``
    model outputs of shape ``output_shape``: per-sample losses and the
    gradient of the batch-mean loss with respect to the output, ``d_out``."""

    def __init__(self, kind: str, batch_size: int, output_shape: tuple[int, ...]):
        b, k = batch_size, math.prod(output_shape)
        self.losses = _empty((b,))
        if kind == "cross_entropy":
            self._shifted = _empty((b, k))
            # exp(shifted), then, with the gradient, the softmax less the target
            self._exp = _empty((b, k))
            self.d_out = self._exp.reshape(b, *output_shape)
            self._exp_flat = self._exp.reshape(-1)
            self._top, self._total, self._log_total = (_empty((b, 1)) for _ in range(3))
            self._row_starts = np.arange(b) * k  # flat index of each row's first logit
            self._row_starts.flags.writeable = False  # a constant, not a buffer
            self._flat_index = _empty((b,), np.intp)
            # what the arithmetic reads and writes, a full batch's rows
            self._views = (self._top, self._total, self._log_total, self._log_total[:, 0],
                           self._shifted, self._exp, self._row_starts, self._flat_index, self.losses)
        else:
            self.d_out = _empty((b, *output_shape))  # the difference, then its gradient
            self._square = _empty((b, *output_shape))
        self._kind, self._k = kind, k

    def run(self, output: np.ndarray, targets: np.ndarray, grad: bool) -> np.ndarray:
        """Per-sample losses of ``output``; with ``grad``, also ``d_out[:m]``."""
        if self._kind == "cross_entropy":
            return self._cross_entropy(output, targets, grad)
        return self._pixelwise_l2(output, targets, grad)

    def _cross_entropy(self, output: np.ndarray, y: np.ndarray, grad: bool) -> np.ndarray:
        m = len(output)
        logits = output.reshape(m, self._k)
        top, total, log_total, log_total_col, shifted, exp, row_starts, index, losses = _rows(
            self._views, m, len(self.losses)
        )
        np.maximum.reduce(logits, axis=1, keepdims=True, out=top)
        np.subtract(logits, top, out=shifted)
        np.exp(shifted, out=exp)
        np.add.reduce(exp, axis=1, keepdims=True, out=total)
        np.log(total, out=log_total)
        # the target's negative log-probability, log_total - shifted; the
        # index is in range, as the targets were checked by check_inputs
        np.add(row_starts, y, out=index)
        self._shifted.take(index, out=losses, mode="clip")
        np.subtract(log_total_col, losses, out=losses)
        if grad:
            d_logits = np.divide(exp, total, out=exp)
            # in place: exp_flat[index] -= 1.0 would gather a batch-sized copy
            np.subtract.at(self._exp_flat, index, 1.0)
            d_logits /= m  # gradient of the batch-mean loss
        return losses

    def _pixelwise_l2(self, output: np.ndarray, t: np.ndarray, grad: bool) -> np.ndarray:
        m = len(output)
        diff, square = self.d_out[:m], self._square[:m]
        np.subtract(output, t, out=diff)
        np.multiply(diff, diff, out=square)
        losses = np.mean(square.reshape(m, self._k), axis=1, out=self.losses[:m])
        if grad:
            diff *= 2.0 / output.size  # gradient of the batch-mean loss
        return losses


# ---------------------------------------------------------------------------
# the bound step


class BatchStep:
    """Every buffer one batch step writes, bound to an architecture, a batch
    size and a loss kind; the constructor checks the batch size and loss kind.

    A step is built with the buffers of the forward pass: the activations
    and padded conv inputs, and the loss's.  Each other group is made on the
    first call that writes it: the backward pass's ``d_z`` buffers and the
    gradient ``ModelParams`` by ``loss_and_grad`` and the gathered batch by
    ``gather``, so a step that only runs forward passes holds only what they
    write.  A batch of ``m <= batch_size`` samples works in the first ``m``
    samples of each buffer: a full batch uses the buffers and views built
    with the step, and only a short tail batch slices views.  Every call
    writes a buffer before it reads it, so no result depends on what the
    buffers held before; what a call returns are views of them, valid until
    the step's next call.
    """

    def __init__(self, arch: Architecture, batch_size: int, loss_kind: str):
        # bool is a subclass of int, but True is not a batch size
        is_int = isinstance(batch_size, (int, np.integer)) and not isinstance(batch_size, bool)
        if not is_int or batch_size < 1:
            raise ShapeError(f"a batch step needs an int batch size >= 1, got {batch_size!r}")
        if loss_kind not in LOSS_KINDS:
            raise ShapeError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
        self.arch, self.batch_size, self.loss_kind = arch, int(batch_size), loss_kind
        b = self.batch_size
        if arch.kind == "mlp":
            self._acts = [_empty((b, d)) for d in (*arch.hidden, arch.num_classes)]
        else:
            (c1, c2), k = arch.channels, arch.kernel_size
            h, w = arch.input_shape()
            padded, pixels = (b, h + k - 1, w + k - 1), b * h * w
            self._x_pad = _empty((1, *padded))
            self._a1_pad = _empty((c1, *padded))
            # z1; a2 once z1 has passed into a1_pad; d_z1 once a2 is spent
            self._z = _empty((max(c1, c2) * pixels,))
            self._z3 = _empty((1, pixels))
        self._loss = _Loss(loss_kind, b, arch.output_shape())

    @functools.cached_property
    def grad(self) -> ModelParams:
        """The gradient ``loss_and_grad`` writes."""
        return ModelParams.zeros(self.arch)

    @functools.cached_property
    def _gathered(self) -> tuple[np.ndarray, np.ndarray]:
        b, arch = self.batch_size, self.arch
        if self.loss_kind == "cross_entropy":
            targets = _empty((b,), np.int64)
        else:
            targets = _empty((b, *arch.output_shape()))
        return _empty((b, *arch.input_shape())), targets

    @functools.cached_property
    def _backward_buffers(self) -> tuple:
        b, arch = self.batch_size, self.arch
        if arch.kind == "mlp":
            return [_empty((b, d)) for d in arch.hidden], [_empty((b, d), bool) for d in arch.hidden]
        (c1, c2), k = arch.channels, arch.kernel_size
        h, w = arch.input_shape()
        pixels = b * h * w
        return (
            _empty((c2, pixels)),  # d_z2
            _empty((c2, b, h + k - 1, w + k - 1)),  # d_z2, padded
            _empty((c1, b, h, w), bool),
            _empty((c2, pixels), bool),
            # a1 of one chunk of d_z2_pad's patches
            _empty((c1 * min(b, _chunk_samples(c2 * k * k, h * w)) * h * w,)),
        )

    @staticmethod
    def forward_row_bytes(arch: Architecture, loss_kind: str) -> int:
        """Bytes per sample of what a step that only gathers and runs forward
        passes holds: the gathered batch, the forward buffers and the loss's.
        Page padding, a few kilobytes a step, is not counted."""
        inputs, k = math.prod(arch.input_shape()), math.prod(arch.output_shape())
        if arch.kind == "mlp":
            forward = sum(arch.hidden) + arch.num_classes
        else:  # padded image and a1, then z and z3
            (c1, c2), p = arch.channels, arch.kernel_size - 1
            h, w = arch.input_shape()
            forward = (1 + c1) * (h + p) * (w + p) + (max(c1, c2) + 1) * h * w
        if loss_kind == "cross_entropy":  # losses, exp and shifted, 3 columns, 2 indices
            loss, target = 2 * k + 6, 1
        else:  # losses, d_out and square
            loss, target = 2 * k + 1, k
        return 8 * (inputs + target + forward + loss)

    def gather(self, features: np.ndarray, targets: np.ndarray, rows: np.ndarray):
        """Copy ``features[rows]`` and ``targets[rows]`` into the step's input
        buffers and return them: ``(batch, targets)``.  A row out of range
        raises ``IndexError``, as indexing would."""
        x, y = _rows(self._gathered, _fit(self, rows), self.batch_size)
        return features.take(rows, axis=0, out=x), targets.take(rows, axis=0, out=y)

    def _forward(self, params: ModelParams, batch: np.ndarray) -> np.ndarray:
        if self.arch.kind == "mlp":
            return self._mlp_forward(params, batch)
        return self._conv_forward(params, batch)

    def _mlp_forward(self, params: ModelParams, x: np.ndarray) -> np.ndarray:
        # a ReLU after every layer but the logit head; np.dot is the GEMM of
        # np.matmul, with its bits, at less dispatch cost (the conv products
        # write into strided out= views, which np.dot refuses)
        last, outs = len(params.weights) - 1, _rows(self._acts, len(x), self.batch_size)
        a = x
        for i, (w, b, z) in enumerate(zip(params.weights, params.biases, outs)):
            a = np.dot(a, w, out=z)
            a += b
            if i != last:
                np.maximum(a, 0.0, out=a)
        return a

    def _mlp_backward(self, params: ModelParams, x: np.ndarray, d_out: np.ndarray) -> None:
        m, grad = len(x), self.grad
        b = self.batch_size
        acts, d_zs, masks = (_rows(bufs, m, b) for bufs in (self._acts, *self._backward_buffers))
        delta = d_out
        for i in range(len(params.weights) - 1, -1, -1):
            layer_input = acts[i - 1] if i else x
            np.dot(layer_input.T, delta, out=grad.weights[i])
            np.add.reduce(delta, axis=0, out=grad.biases[i])
            if i > 0:
                below = np.dot(delta, params.weights[i].T, out=d_zs[i - 1])
                below *= np.greater(layer_input, 0.0, out=masks[i - 1])
                delta = below

    def _conv_forward(self, params: ModelParams, x: np.ndarray) -> np.ndarray:
        # Activations are channel-major (C, N*H*W); x arrives (N, H, W), one channel.
        # Only layer inputs are kept: relu(z) > 0 exactly where z > 0, so the
        # post-activations double as the backward pass's ReLU masks.
        m, h, wid = x.shape
        pixels = m * h * wid
        w1, w2, w3 = params.weights
        b1, b2, b3 = params.biases
        c1, c2 = len(w1), len(w2)
        p = w1.shape[2] // 2
        x_pad, a1_pad = self._x_pad[:, :m], self._a1_pad[:, :m]
        _pad_into(x_pad, x[None], p)
        z1 = self._z[: c1 * pixels].reshape(c1, pixels)
        _conv(x_pad, w1, z1)
        z1 += b1[:, None]
        _pad_into(a1_pad, z1.reshape(c1, m, h, wid), p, relu=True)
        a2 = self._z[: c2 * pixels].reshape(c2, pixels)
        _conv(a1_pad, w2, a2)
        a2 += b2[:, None]
        np.maximum(a2, 0.0, out=a2)
        # the 1x1 head is a plain matrix product in this layout
        z3 = np.matmul(w3.reshape(1, -1), a2, out=self._z3[:, :pixels])
        z3 += b3[:, None]
        return z3.reshape(m, h, wid)

    def _conv_backward(self, params: ModelParams, x: np.ndarray, d_out: np.ndarray) -> None:
        m, h, wid = x.shape
        pixels = m * h * wid
        w1, w2, w3 = params.weights
        c1, c2 = len(w1), len(w2)
        grad = self.grad
        d_z2_buf, d_z2_pad_buf, mask1_buf, mask2_buf, staging = self._backward_buffers
        p = w1.shape[2] // 2
        x_pad, a1_pad = self._x_pad[:, :m], self._a1_pad[:, :m]
        a2 = self._z[: c2 * pixels].reshape(c2, pixels)
        d_z3 = d_out.reshape(1, -1)
        np.matmul(d_z3, a2.T, out=grad.weights[2].reshape(1, -1))
        # an outer product: one multiply per element, the bits of a K=1 GEMM
        d_z2 = np.multiply(w3.reshape(-1, 1), d_z3, out=d_z2_buf[:, :pixels])
        d_z2 *= np.greater(a2, 0.0, out=mask2_buf[:, :pixels])
        # both second-layer gradients from the patches of the padded d_z2;
        # the input gradient is written over a2, which is spent, and the
        # first layer's input, the image, needs none
        d_z2_pad = d_z2_pad_buf[:, :m]
        _pad_into(d_z2_pad, d_z2.reshape(c2, m, h, wid), p)
        d_z1 = self._z[: c1 * pixels].reshape(c1, pixels)
        _conv_grads(a1_pad, d_z2_pad, w2, d_z1, grad.weights[1], staging)
        mask1 = np.greater(a1_pad[:, :, p : p + h, p : p + wid], 0.0, out=mask1_buf[:, :m])
        d_z1 *= mask1.reshape(d_z1.shape)
        _conv_weight_grad(x_pad, d_z1, grad.weights[0])
        for d_z, d_b in zip((d_z1, d_z2, d_z3), grad.biases):
            d_z.sum(axis=1, out=d_b)


# ---------------------------------------------------------------------------
# the operations: each runs on the step it is given, on arguments as
# check_inputs returns them


def _fit(step: BatchStep, batch, least: int = 0) -> int:
    """``len(batch)``, refused unless it lies in ``[least, step.batch_size]``."""
    m = len(batch)
    if not least <= m <= step.batch_size:
        raise ShapeError(f"a batch of {m} samples: this call takes {least} to {step.batch_size}")
    return m


def forward(params: ModelParams, batch, step: BatchStep) -> np.ndarray:
    """Model output: (batch, num_classes) logits or (batch, H, W) density."""
    _fit(step, batch)
    return require_finite(step._forward(params, batch), f"{params.arch.kind} forward output")


def output_losses(output: np.ndarray, targets, step: BatchStep) -> np.ndarray:
    """Per-sample losses of a ``forward`` output of the same step, so a caller
    that needs both the output and the losses runs the model once."""
    _fit(step, output)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = step._loss.run(output, targets, False)
    return require_finite(losses, f"{step.loss_kind} per-sample losses")


def per_sample_losses(params: ModelParams, batch, targets, step: BatchStep) -> np.ndarray:
    """Forward-only per-sample losses (used to refresh excluded samples and
    to validate)."""
    _fit(step, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = step._loss.run(step._forward(params, batch), targets, False)
    return require_finite(losses, f"{step.loss_kind} per-sample losses")


def mean_of_losses(losses: np.ndarray, part: int | None = None, counts=None) -> float:
    """The mean of ``losses``, finite if they all are, summed in the caller's
    order: ``part``-loss partial sums added in order, the remainder last, or
    one ``np.add.reduce``, under the caller's error state, when ``part`` is
    None.  With ``counts``, ``losses[i]`` is the mean of ``counts[i]``
    samples.  A total that overflows is summed again the same way from the
    losses scaled by the largest, unless one of them is not finite."""
    n = len(losses) if counts is None else int(np.sum(counts))
    total = float(np.add.reduce(losses)) if part is None else _in_order_total(losses, part, counts)
    if math.isfinite(total) or not np.isfinite(losses).all():
        return total / n
    scale = float(losses.max())  # one partial sum of n losses is the one sum's order
    return _in_order_total(losses / scale, part or n, counts) / n * scale


def _in_order_total(x: np.ndarray, part: int, counts) -> float:
    with np.errstate(over="ignore"):
        x = x if counts is None else x * counts
        whole = len(x) - len(x) % part
        total = 0.0
        for s in np.add.reduce(x[:whole].reshape(-1, part), axis=1).tolist():
            total += s
        return total + float(np.add.reduce(x[whole:]))


def loss_and_grad(params: ModelParams, batch, targets, step: BatchStep) -> LossBatchResult:
    """Per-sample losses plus gradients of the batch-mean loss, for a batch
    of at least one sample.

    ``cross_entropy`` treats the model output flattened per sample as class
    logits; ``pixelwise_l2`` is the per-sample mean squared element
    difference.  Both apply to either architecture, so gradient checks can
    cover the full model/loss cross product.  A non-finite loss raises
    ``NonFiniteError`` whose ``row`` is the first batch row with one; the
    caller, which knows the batch's samples, names the sample.  The result's
    arrays are the step's buffers.
    """
    m = _fit(step, batch, least=1)
    # overflow here surfaces as a NonFiniteError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        losses = step._loss.run(step._forward(params, batch), targets, True)
        mean_loss = mean_of_losses(losses)
    if not math.isfinite(mean_loss):
        row = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NonFiniteError(f"non-finite {step.loss_kind} loss in batch row {row}", row=row)
    backward = step._mlp_backward if step.arch.kind == "mlp" else step._conv_backward
    d_out = step._loss.d_out
    backward(params, batch, d_out if m == step.batch_size else d_out[:m])
    return LossBatchResult(per_sample_losses=losses, mean_loss=mean_loss, grad=step.grad)
