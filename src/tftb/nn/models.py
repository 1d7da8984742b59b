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

Convolutions are im2col + GEMM: activations are kept channel-major, the
k x k patches of a chunk of whole images are copied into one per-thread
scratch buffer (1 MiB, reused by every call), and one matrix product per
chunk (BLAS, via ``@``) does the work.  Every activation and gradient of
the conv model lives on the padded grid (``_Grid``): each image's
zero-padded plane, one after another, between two margins as long as a tap
reaches past a plane.  A patch row is then one contiguous run of the
buffer, and a layer computes an output at every grid position, the border
positions' outputs being thrown away.  Every grid's borders and margins
are zero, as each call zeroes those it writes, up to the last float a
patch reads, before it reads them.  A short tail batch's last image reads
into the next plane's top border, never into a pixel an earlier batch left.

Both k x k layers run one way: ``W @ patches`` of the input's grid lands
on the activation's grid, whose borders are zeroed again after bias and
ReLU.  The 1x1 head multiplies over grid positions, and the density map
leaves the grid once, with the head's bias, into a contiguous buffer the
loss reads as it is.  Backward, the map's gradient enters a one-channel
grid, and ``d_z2``, its outer product with the head's weights, lands on
its own grid, masked there by ``a2 > 0``.  The image's patches give the
first layer's weight gradient, ``d_z1 @ patches.T``, and those of
``d_z2``'s grid both of the second layer's: the input gradient ``d_z1``,
the flipped, transposed kernel times them, masked by ``a1 > 0``, and the
weight gradient, the first activation's grid times their transpose (the
taps flipped back).  So a training step copies the patches of each grid
once and of the image twice, and patch memory is bounded by the buffer,
not the batch.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


# set while float_errors_raised() holds numpy's error state; read, not
# switched, by every training step (a ContextVar, as numpy's error state is)
_RAISED = contextvars.ContextVar("float_errors_raised", default=False)


@contextlib.contextmanager
def float_errors_raised():
    """Raise ``FloatingPointError`` on overflow and invalid operations for
    the block's duration, and ignore underflow, whatever the caller's state:
    a result rounded to zero or a subnormal, such as ``exp`` of a very
    negative logit, is a value, not an error.

    ``loss_and_grad`` and ``adam_step`` run under this state.  Called
    outside the block, each enters it for the call; inside, they set no
    error state of their own, so a caller that takes many steps, as the
    trainer does for a run, enters it once and pays nothing per step.  The
    forward-only operations keep their own ``ignore`` blocks."""
    token = _RAISED.set(True)
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            yield
    finally:
        _RAISED.reset(token)


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


class _Grid:
    """Where a step keeps the conv model's activations and gradients: the padded grid.

    A grid buffer of ``C`` channels and ``N`` images is (C, M + N*span + M):
    image ``n`` is its padded (H+2p) x (W+2p) plane, ``span`` floats, at
    ``M + n*span``, and the margins of ``M = p*Wp + p`` floats on either
    side are as far as a tap reaches past an image.  So the output of grid
    position ``g`` (the image pixel at ``M + g``) reads its tap ``(i, j)``
    at ``g + i*Wp + j``, and the tap rows of a run of positions are
    contiguous runs of the buffer.  Outputs at border positions read their
    neighbours and are thrown away; those of the image pixels read only
    their own padded image.  A call that writes the first ``n`` images of a
    grid zeroes everything but their pixels up to ``2*M + n*span``, the
    last float its patches read, so it never reads what an earlier call
    left there.
    """

    def __init__(self, h: int, w: int, k: int):
        self.h, self.w, self.k, self.p = h, w, k, k // 2
        self.wp = w + 2 * self.p
        self.span = (h + 2 * self.p) * self.wp
        self.margin = self.p * self.wp + self.p

    def buffer(self, channels: int, images: int) -> np.ndarray:
        """A grid buffer of ``images`` images."""
        return _empty((channels, images * self.span + 2 * self.margin))

    def positions(self, buf: np.ndarray, n: int) -> np.ndarray:
        """The (C, n*span) grid positions of the first ``n`` images of ``buf``."""
        return buf[:, self.margin : self.margin + n * self.span]

    def interior(self, positions: np.ndarray) -> np.ndarray:
        """The (C, n, H, W) image pixels of (C, n*span) grid positions."""
        p, c = self.p, len(positions)
        planes = positions.reshape(c, -1, self.h + 2 * p, self.wp)
        return planes[:, :, p : p + self.h, p : p + self.w]

    def zero_borders(self, buf: np.ndarray, n: int) -> None:
        """Zero what the first ``n`` images' patches read of the grid buffer
        ``buf`` but their pixels: the runs of ``2*M`` floats between images,
        the margins among them, and the ``2*p`` between the rows of each."""
        s_c, s_x = buf.strides
        between = as_strided(buf, (len(buf), n + 1, 2 * self.margin),
                             (s_c, self.span * s_x, s_x))
        between[...] = 0.0
        rows = buf[:, self.margin + self.p * self.wp + self.p + self.w :]
        within = as_strided(rows, (len(buf), n, self.h - 1, 2 * self.p),
                            (s_c, self.span * s_x, self.wp * s_x, s_x))
        within[...] = 0.0


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


def _patches(src: np.ndarray, grid: _Grid, n: int):
    """im2col of the first ``n`` images of the grid buffer ``src``.

    Yields ``(g0, g1, patches)`` per chunk of as many whole images as the
    shared buffer holds, and at least one: ``patches`` is a (C*k*k, g1-g0)
    view of the patch buffer whose row ``(c, i, j)`` is the run
    ``src[c, g0 + i*Wp + j : g1 + i*Wp + j]``, the taps of grid positions
    ``g0:g1``.  Each view is overwritten by the next.
    """
    c, k, span = len(src), grid.k, grid.span
    rows = c * k * k
    # the last tap of the last position, g = n*span - 1, is the last float
    # the view reaches: (n*span - 1) + (k-1)*Wp + (k-1) = n*span + 2*M - 1;
    # checked even under -O, as a view past the buffer would read past it
    if src.strides[1] != src.itemsize or n * span + 2 * grid.margin > src.shape[1]:
        raise AssertionError(f"{n} images' taps do not lie in a grid of shape {src.shape}")
    s_c, s_x = src.strides
    # (C, k, k, n*span) view of every tap of every position; no copy until
    # a chunk of it lands in the buffer
    taps = as_strided(src, (c, k, k, n * span), (s_c, grid.wp * s_x, s_x, s_x), writeable=False)
    buf = _patch_buffer(rows * span)
    step = max(1, PATCH_BUFFER_FLOATS // (rows * span))
    for n0 in range(0, n, step):
        g0, g1 = n0 * span, min(n0 + step, n) * span
        chunk = buf[: rows * (g1 - g0)]
        np.copyto(chunk.reshape(c, k, k, -1), taps[..., g0:g1])
        yield g0, g1, chunk.reshape(rows, -1)


def _conv(src: np.ndarray, w: np.ndarray, out: np.ndarray, grid: _Grid, n: int) -> None:
    """Stride-1 same-padded convolution of the first ``n`` images of the
    grid buffer ``src`` by ``w`` (Cout, Cin, k, k), as chunked GEMMs: writes
    the bias-free output of every grid position into ``out``, (Cout,
    n*span); only the image pixels' outputs are the convolution's."""
    w_mat = w.reshape(len(w), -1)
    for g0, g1, patches in _patches(src, grid, n):
        np.matmul(w_mat, patches, out=out[:, g0:g1])


def _conv_weight_grad(src: np.ndarray, d_z: np.ndarray, d_w: np.ndarray,
                      grid: _Grid, n: int) -> None:
    """Write the gradient of ``w`` in ``_conv(src, w, ...)`` for output
    gradient ``d_z``, zero at every border position, into ``d_w``, an array
    shaped like ``w``: the sum of one patch product per chunk."""
    d_w[...] = 0.0
    d_w_mat = d_w.reshape(len(d_w), -1)
    for g0, g1, patches in _patches(src, grid, n):
        d_w_mat += d_z[:, g0:g1] @ patches.T


def _conv_grads(src: np.ndarray, d_z: np.ndarray, w: np.ndarray, grid: _Grid, n: int,
                d_src: np.ndarray, d_w: np.ndarray) -> None:
    """Both gradients of ``_conv(src, w, ...)`` from one im2col pass over
    ``d_z``, the grid buffer of its output gradient.

    ``d_src`` (Cin, n*span) gets the input gradient at every grid position,
    right at the image pixels: the same convolution of ``d_z`` with the
    flipped, transposed kernel.  ``d_w``, shaped like ``w``, gets the weight
    gradient from the same patches, ``d_w[o, c, i, j] = sum over positions
    of src[c, .] * patches[(o, k-1-i, k-1-j), .]``, which counts only the
    image pixels as ``src``'s borders are zero; so ``src``'s own patches
    are never copied.
    """
    c_out, c_in, k, _ = w.shape
    inputs = grid.positions(src, n)
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c_in, -1)
    d_w_t = np.zeros((c_in, c_out * k * k))  # d_w with its taps flipped, transposed
    for g0, g1, patches in _patches(d_z, grid, n):
        np.matmul(flipped, patches, out=d_src[:, g0:g1])
        d_w_t += inputs[:, g0:g1] @ patches.T
    d_w[...] = d_w_t.reshape(c_in, c_out, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


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
    (the conv model's on their grids, and its density map), and the loss's.
    Each other group is made on the first call that writes it: the backward
    pass's ``d_z`` buffers and the gradient ``ModelParams`` by
    ``loss_and_grad`` and the gathered batch by ``gather``, so a step that
    only runs forward passes holds only what they write.  A batch of ``m <=
    batch_size`` samples works in the first ``m`` samples of each buffer: a
    full batch uses the buffers and views built with the step, and only a
    short tail batch slices views.  Every call writes a buffer before it
    reads it, so no result depends on what the buffers held before; what a
    call returns are views of them, valid until the step's next call.
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
            grid = self._grid = _Grid(h, w, k)
            self._x, self._a1 = grid.buffer(1, b), grid.buffer(c1, b)
            # a2; d_z1 once the backward pass has read a2
            self._z = grid.buffer(max(c1, c2), b)
            # the head's output; its gradient d_z3 in the backward pass
            self._z3 = grid.buffer(1, b)
            self._out = _empty((b, h, w))
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
        (c1, c2), grid = arch.channels, self._grid
        # d_z2 on the grid, and the ReLU mask of a2, then of a1
        return grid.buffer(c2, b), _empty((max(c1, c2), b * grid.span), bool)

    @staticmethod
    def forward_row_bytes(arch: Architecture, loss_kind: str) -> int:
        """Bytes per sample of what a step that only gathers and runs forward
        passes holds: the gathered batch, the forward buffers and the loss's.
        Page padding and the grids' margins, a few kilobytes a step, are not
        counted."""
        inputs, k = math.prod(arch.input_shape()), math.prod(arch.output_shape())
        if arch.kind == "mlp":
            forward = sum(arch.hidden) + arch.num_classes
        else:  # the image, a1, a2 (in z) and the head's output on the grid; the map
            (c1, c2), p = arch.channels, arch.kernel_size - 1
            h, w = arch.input_shape()
            forward = (2 + c1 + max(c1, c2)) * (h + p) * (w + p) + h * w
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
        # Activations are channel-major, (C, N*span) positions of their
        # grids; x arrives (N, H, W), one channel.  Only layer inputs are
        # kept: relu(z) > 0 exactly where z > 0, so the post-activations
        # double as the backward pass's ReLU masks.
        m, grid = len(x), self._grid
        (w1, w2, w3), (b1, b2, b3) = params.weights, params.biases
        grid.zero_borders(self._x, m)
        np.copyto(grid.interior(grid.positions(self._x, m)), x[None])
        # each k x k layer's output lands on its activation's grid, whose
        # border positions are zeroed again after bias and ReLU
        layers = ((self._x, w1, b1, self._a1), (self._a1, w2, b2, self._z[: len(w2)]))
        for src, w, b, dst in layers:
            a = grid.positions(dst, m)
            _conv(src, w, a, grid, m)
            a += b[:, None]
            np.maximum(a, 0.0, out=a)
            grid.zero_borders(dst, m)
        # the 1x1 head is a product over a2's grid positions; the map leaves
        # the grid with its bias, contiguous, so the loss reads it uncopied
        z3 = np.matmul(w3.reshape(1, -1), a, out=grid.positions(self._z3, m))
        return np.add(grid.interior(z3)[0], b3, out=self._out[:m])

    def _conv_backward(self, params: ModelParams, x: np.ndarray, d_out: np.ndarray) -> None:
        m, grid = len(x), self._grid
        w1, w2, w3 = params.weights
        grad = self.grad
        d_z2_grid, masks = self._backward_buffers
        a2 = grid.positions(self._z[: len(w2)], m)
        # d_out enters the head's grid as d_z3, in z3's place
        grid.zero_borders(self._z3, m)
        np.copyto(grid.interior(grid.positions(self._z3, m))[0], d_out)
        d_z3 = grid.positions(self._z3, m)
        np.matmul(d_z3, a2.T, out=grad.weights[2].reshape(1, -1))
        # d_z2, an outer product over the whole of d_z3's grid, so zero at
        # every border and margin of its own: one multiply per element, the
        # bits of a K=1 GEMM; then masked by a2 > 0
        whole = slice(0, m * grid.span + 2 * grid.margin)
        np.multiply(w3.reshape(-1, 1), self._z3[:, whole], out=d_z2_grid[:, whole])
        d_z2 = grid.positions(d_z2_grid, m)
        d_z2 *= np.greater(a2, 0.0, out=masks[: len(w2), : m * grid.span])
        # both second-layer gradients from the patches of d_z2's grid; d_z1
        # takes a2's place; the first layer's input, the image, needs no
        # gradient
        d_z1 = grid.positions(self._z[: len(w1)], m)
        _conv_grads(self._a1, d_z2_grid, w2, grid, m, d_z1, grad.weights[1])
        # a1 > 0 is false at every border position, so d_z1 is zero there
        d_z1 *= np.greater(grid.positions(self._a1, m), 0.0, out=masks[: len(w1), : m * grid.span])
        _conv_weight_grad(self._x, d_z1, grad.weights[0], grid, m)
        # the head's bias gradient sums d_out itself, the map's pixels in order
        for d_z, d_b in zip((d_z1, d_z2, d_out.reshape(1, -1)), grad.biases):
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
    caller, which knows the batch's samples, names the sample.  A backward
    pass that overflows raises ``NonFiniteError`` with no row.  The result's
    arrays are the step's buffers.

    Runs under ``float_errors_raised``.  A forward pass, loss or mean that
    raises is run again under ``ignore``, writing every buffer again, so the
    losses and the mean are those of a step that never raised: inf or NaN
    where one arose, or a mean rescued from an overflowed sum.
    """
    if not _RAISED.get():
        with float_errors_raised():
            return loss_and_grad(params, batch, targets, step)
    m = _fit(step, batch, least=1)
    try:
        losses = step._loss.run(step._forward(params, batch), targets, True)
        mean_loss = mean_of_losses(losses)
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            losses = step._loss.run(step._forward(params, batch), targets, True)
            mean_loss = mean_of_losses(losses)
    if not math.isfinite(mean_loss):
        row = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NonFiniteError(f"non-finite {step.loss_kind} loss in batch row {row}", row=row)
    backward = step._mlp_backward if step.arch.kind == "mlp" else step._conv_backward
    d_out = step._loss.d_out
    try:
        backward(params, batch, d_out if m == step.batch_size else d_out[:m])
    except FloatingPointError as exc:
        raise NonFiniteError(
            f"non-finite {step.loss_kind} gradient: the backward pass overflows"
        ) from exc
    return LossBatchResult(per_sample_losses=losses, mean_loss=mean_loss, grad=step.grad)
