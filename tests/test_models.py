"""Numeric core: forward passes, losses, gradients, Adam, checkpoints."""

import contextlib
import hashlib
import json
import math

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it, and is skipped without it
    hypothesis = None

from tftb.errors import ConfigError, CorruptDataError, NonFiniteError, ShapeError
from tftb.nn import (
    AdamState,
    BatchStep,
    ConvDensityArch,
    MlpArch,
    ModelParams,
    adam_step,
    check_inputs,
    float_errors_raised,
    forward,
    init_adam_state,
    init_params,
    load_params,
    loss_and_grad,
    output_losses,
    per_sample_losses,
    save_params,
)
from tftb.nn.models import _RAISED, LOSS_KINDS, arch_from_descriptor, mean_of_losses


def mlp(input_dim=4, hidden=(6,), num_classes=3, seed=0):
    return init_params(MlpArch(input_dim, hidden, num_classes), np.random.default_rng(seed))


def step_for(params, batch, loss_kind="cross_entropy"):
    """A step just large enough for ``batch``."""
    return BatchStep(params.arch, max(1, len(batch)), loss_kind)


# ---------------------------------------------------------------------------
# forward


def test_zero_weight_mlp_gives_zero_logits_and_uniform_loss():
    arch = MlpArch(5, (8,), 10)
    params = init_params(arch, np.random.default_rng(0))
    for w in params.weights:
        w[:] = 0.0
    x = np.random.default_rng(1).standard_normal((6, 5))
    logits = forward(params, x, step_for(params, x))
    assert np.array_equal(logits, np.zeros((6, 10)))
    result = loss_and_grad(params, x, np.zeros(6, dtype=int), step_for(params, x))
    assert np.allclose(result.per_sample_losses, math.log(10), atol=1e-12)


def test_identity_linear_model_passes_input_through():
    arch = MlpArch(3, (), 3)
    params = init_params(arch, np.random.default_rng(0))
    params.weights[0][:] = np.eye(3)
    params.biases[0][:] = 0.0
    x = np.array([[1.0, 2.0, 3.0]])
    out = forward(params, x, step_for(params, x))
    assert np.array_equal(out, np.array([[1.0, 2.0, 3.0]]))


def test_mlp_forward_matches_straight_line_matmul_oracle():
    rng = np.random.default_rng(42)
    arch = MlpArch(4, (6,), 3)
    params = init_params(arch, rng)
    x = rng.standard_normal((5, 4))

    # independent straight-line oracle: plain python loops, no shared code
    def oracle(xrow):
        h = [0.0] * 6
        for j in range(6):
            acc = params.biases[0][j]
            for i in range(4):
                acc += xrow[i] * params.weights[0][i, j]
            h[j] = max(acc, 0.0)
        out = [0.0] * 3
        for k in range(3):
            acc = params.biases[1][k]
            for j in range(6):
                acc += h[j] * params.weights[1][j, k]
            out[k] = acc
        return out

    got = forward(params, x, step_for(params, x))
    want = np.array([oracle(row) for row in x])
    assert np.allclose(got, want, atol=1e-12)


def matmul_reference(params, x, y):
    """The MLP step's forward output, per-sample cross-entropy losses and
    gradient, written with ``np.matmul`` and new arrays, each value by the
    operations the step runs, in the same order."""
    m, last = len(x), len(params.weights) - 1
    acts = [x]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(acts[-1], w) + b
        acts.append(np.maximum(z, 0.0) if i != last else z)
    logits = acts.pop()
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True)
    losses = np.log(total)[:, 0] - shifted[np.arange(m), y]
    delta = exp / total
    delta[np.arange(m), y] -= 1.0
    delta /= m
    grads_w, grads_b = [None] * len(acts), [None] * len(acts)
    for i in range(last, -1, -1):
        grads_w[i] = np.matmul(acts[i].T, delta)
        grads_b[i] = np.add.reduce(delta, axis=0)
        if i > 0:
            delta = np.matmul(delta, params.weights[i].T) * (acts[i] > 0.0)
    return logits, losses, np.concatenate([g.ravel() for pair in zip(grads_w, grads_b) for g in pair])


MLP_DEPTHS = [MlpArch(4, (), 3), MlpArch(4, (24,), 4), MlpArch(8, (24,), 8), MlpArch(4, (6, 5), 3)]
MLP_DEPTH_IDS = ["4-3", "4-24-4", "8-24-8", "4-6-5-3"]


@pytest.mark.parametrize("arch", MLP_DEPTHS, ids=MLP_DEPTH_IDS)
def test_mlp_step_is_bit_equal_to_a_matmul_reference(arch):
    """``np.dot`` and ``np.matmul`` call the same GEMM; the step's output,
    losses and gradient keep the reference's bits at every row count of a
    32-row step, full and tail, and at the wide step's chunk of the
    benchmark's 45k rows."""
    import tftb.trainer

    rng = np.random.default_rng(7)
    params = init_params(arch, rng)
    step = BatchStep(arch, 32, "cross_entropy")
    wide = tftb.trainer._wide_step(step, 45_000)
    assert wide.batch_size > 32
    feats, targets = check_inputs(
        arch, rng.standard_normal((wide.batch_size, arch.input_dim)),
        rng.integers(0, arch.num_classes, wide.batch_size), "cross_entropy",
    )
    for rows, on in [*((m, step) for m in range(1, 33)), (wide.batch_size, wide)]:
        x, y = feats[:rows], targets[:rows]
        logits, losses, grad = matmul_reference(params, x, y)
        assert forward(params, x, on).tobytes() == logits.tobytes(), rows
        assert per_sample_losses(params, x, y, on).tobytes() == losses.tobytes(), rows
        result = loss_and_grad(params, x, y, on)
        assert result.per_sample_losses.tobytes() == losses.tobytes(), rows
        assert result.grad.flat.tobytes() == grad.tobytes(), rows


def test_check_inputs_shape_mismatch_names_expected_and_actual():
    with pytest.raises(ShapeError, match=r"expected \(batch, 4\).*\(3, 5\)"):
        check_inputs(MlpArch(4, (6,), 3), np.zeros((3, 5)), np.zeros(3, int), "cross_entropy")


def test_conv_forward_output_matches_input_image_shape():
    arch = ConvDensityArch(9, 7, (3, 2))
    params = init_params(arch, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 9, 7))
    assert forward(params, x, step_for(params, x)).shape == (4, 9, 7)


def test_conv_arch_rejects_even_kernel():
    with pytest.raises(ShapeError, match="odd"):
        ConvDensityArch(8, 8, (2, 2), kernel_size=4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MlpArch(3, (0,), 2),
        lambda: MlpArch(True, (4,), 2),
        lambda: ConvDensityArch(0, 8),
        lambda: ConvDensityArch(8, 8, (2, 2, 2)),
        lambda: MlpArch(3, [4], 2),
        lambda: MlpArch(3, (2.5,), 2),
        lambda: MlpArch(3, (np.int64(0),), 2),
        lambda: ConvDensityArch(8, 8, (2, True)),
        lambda: ConvDensityArch(8, 8, (2, np.bool_(True))),
    ],
    ids=["mlp-zero-width", "mlp-bool-input", "conv-zero-height", "conv-three-channels",
         "mlp-list-hidden", "mlp-float-width", "mlp-numpy-zero-width", "conv-bool-channels",
         "conv-numpy-bool-channels"],
)
def test_arch_rejects_sizes_that_are_not_positive_ints(build):
    with pytest.raises(ShapeError, match="positive ints|two channel counts|tuple"):
        build()


# ---------------------------------------------------------------------------
# losses


def test_perfect_fit_pixelwise_l2_gives_zero_loss_and_zero_gradient():
    arch = ConvDensityArch(6, 6, (2, 2))
    params = init_params(arch, np.random.default_rng(3))
    x = np.random.default_rng(4).standard_normal((2, 6, 6))
    step = step_for(params, x, "pixelwise_l2")
    target = forward(params, x, step).copy()
    result = loss_and_grad(params, x, target, step)
    assert np.array_equal(result.per_sample_losses, np.zeros(2))
    assert result.mean_loss == 0.0
    assert np.array_equal(result.grad.flat, np.zeros_like(params.flat))


def test_per_sample_loss_additivity():
    rng = np.random.default_rng(7)
    params = mlp(num_classes=5)
    for _ in range(10):
        x = rng.standard_normal((17, 4))
        y = rng.integers(0, 5, 17)
        result = loss_and_grad(params, x, y, step_for(params, x))
        assert result.per_sample_losses.shape == (17,)
        assert (result.per_sample_losses >= 0).all()
        rel = abs(result.mean_loss - result.per_sample_losses.mean()) / max(result.mean_loss, 1e-300)
        assert rel < 1e-12


def test_loss_gradients_have_parameter_shapes():
    params = mlp()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    result = loss_and_grad(params, x, np.array([0, 1, 2]), step_for(params, x))
    assert result.grad.arch == params.arch
    for g, w in zip(result.grad.weights, params.weights):
        assert g.shape == w.shape
    for g, b in zip(result.grad.biases, params.biases):
        assert g.shape == b.shape


def test_non_finite_loss_carries_offending_batch_row():
    params = mlp(num_classes=3)
    params.weights[0][0, 0] = np.inf
    x = np.ones((3, 4))
    with pytest.raises(NonFiniteError, match="non-finite cross_entropy loss in batch row 0$") as err:
        loss_and_grad(params, x, np.array([0, 1, 2]), step_for(params, x))
    assert err.value.row == 0
    assert err.value.sample_id is None  # only the trainer names samples


def test_finite_losses_whose_sum_overflows_give_a_finite_mean():
    """Four losses of 1e308 each sum to inf; the mean is summed again scaled
    by the largest loss, so it is 1e308, and nothing is refused."""
    arch = MlpArch(1, (), 2)
    params = ModelParams.zeros(arch)
    params.weights[0][:] = [[5.0, -5.0]]
    x, y = check_inputs(arch, np.full((4, 1), 1e307), np.ones(4, int), "cross_entropy")
    result = loss_and_grad(params, x, y, step_for(params, x))
    assert result.per_sample_losses.tolist() == [1e308] * 4
    assert result.mean_loss == 1e308
    assert np.isfinite(result.grad.flat).all()


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_the_mean_of_losses_is_finite_and_keeps_the_bits_of_its_order():
    """The mean is finite and near the mean of the losses scaled by the
    largest; when the in-order total of ``part``-loss partial sums is finite,
    the mean is that total over the count, bit for bit."""
    top = np.finfo(np.float64).max

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        losses=st.lists(st.floats(0.0, top), min_size=1, max_size=64),
        part=st.integers(1, 9),
    )
    @hypothesis.example(losses=[1e308] * 4, part=4)
    @hypothesis.example(losses=[top] * 64, part=9)
    @hypothesis.example(losses=[0.0, 0.0], part=1)
    def check(losses, part):
        losses = np.array(losses)
        with np.errstate(over="raise"):  # the helper ignores overflow itself
            mean = mean_of_losses(losses, part)
        assert math.isfinite(mean)
        s = losses.max()
        want = (losses / s).mean() * s if s > 0 else 0.0
        assert abs(mean - want) <= 1e-12 * want
        total = 0.0
        with np.errstate(over="ignore"):
            for lo in range(0, len(losses), part):
                total += float(losses[lo : lo + part].sum())
        if math.isfinite(total):
            assert mean == total / len(losses)

    check()


def test_the_mean_of_losses_weighs_batch_means_by_their_rows():
    """The epoch's mean adds each batch mean times its rows in order; a sum
    that overflows is summed again scaled by the largest batch mean."""
    means, rows = np.array([0.1, 0.7, 0.3]), np.array([4, 4, 3])
    assert mean_of_losses(means, 1, rows) == (0.0 + 0.1 * 4 + 0.7 * 4 + 0.3 * 3) / 11
    assert mean_of_losses(np.array([1e308, 1e308]), 1, np.array([4, 2])) == 1e308
    # a loss that is not finite is not rescued
    assert math.isnan(mean_of_losses(np.array([1.0, math.nan]), 1))
    with np.errstate(over="ignore"):  # the one-sum path leaves overflow to the caller
        assert mean_of_losses(np.array([math.inf, 1e308])) == math.inf


def test_cross_entropy_rejects_out_of_range_targets():
    with pytest.raises(ShapeError, match="out of range"):
        check_inputs(MlpArch(4, (6,), 3), np.zeros((2, 4)), np.array([0, 3]), "cross_entropy")


@pytest.mark.parametrize("labels", [[0.5, 2.9], np.array([0.0, 2.0]), [True, False]],
                         ids=["fractional", "whole-floats", "bools"])
def test_cross_entropy_refuses_labels_that_are_not_integers(labels):
    # a cast would train [0.5, 2.9] as [0, 2]
    with pytest.raises(ShapeError, match="integer class indices, got (float64|bool)"):
        check_inputs(MlpArch(4, (6,), 3), np.zeros((2, 4)), labels, "cross_entropy")
    _, y = check_inputs(MlpArch(4, (6,), 3), np.zeros((2, 4)), np.uint8([0, 2]), "cross_entropy")
    assert y.dtype == np.int64 and y.tolist() == [0, 2]


def test_per_sample_losses_match_loss_and_grad():
    rng = np.random.default_rng(5)
    params = mlp(num_classes=4)
    x = rng.standard_normal((9, 4))
    y = rng.integers(0, 4, 9)
    full = loss_and_grad(params, x, y, step_for(params, x)).per_sample_losses.copy()
    light = per_sample_losses(params, x, y, step_for(params, x))
    assert np.array_equal(full, light)
    step = step_for(params, x)
    assert np.array_equal(output_losses(forward(params, x, step), y, step), light)


def test_a_certain_cross_entropy_loss_is_positive_zero():
    """The loss is ``log_total - shifted`` in one subtraction, so a target
    logit whose rivals' exponentials vanish gives +0.0, not -0.0."""
    arch = MlpArch(2, (), 3)
    params = ModelParams.zeros(arch)
    params.weights[0][:] = [[2000.0, 0.0, 0.0], [0.0, 0.0, 2000.0]]
    x, y = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 2])
    step = step_for(params, x)
    for losses in (per_sample_losses(params, x, y, step),
                   loss_and_grad(params, x, y, step).per_sample_losses):
        assert losses.tolist() == [0.0, 0.0]
        assert not np.signbit(losses).any()


@pytest.mark.parametrize("loss_kind", ["cross_entropy", "pixelwise_l2"])
@pytest.mark.parametrize(
    "arch", [MlpArch(4, (24, 7), 4), ConvDensityArch(6, 5, (2, 3), 3)], ids=["mlp", "conv"]
)
def test_forward_row_bytes_is_what_a_forward_step_allocates_per_row(arch, loss_kind):
    """A step that gathers and runs forward passes grows by
    ``forward_row_bytes`` per row of its batch size.  The Python objects a
    call makes, and numpy's cache of small blocks, move the total by about a
    kilobyte; one float a row too many or too few would move it by 8 kB."""
    import tracemalloc

    rng = np.random.default_rng(0)
    out_shape = (arch.num_classes,) if arch.kind == "mlp" else arch.input_shape()
    feats = rng.standard_normal((2048, *arch.input_shape()))
    targets = (rng.integers(0, math.prod(out_shape), 2048) if loss_kind == "cross_entropy"
               else rng.standard_normal((2048, *out_shape)))
    feats, targets = check_inputs(arch, feats, targets, loss_kind)
    params = init_params(arch, rng)

    def held(rows):
        step = BatchStep(arch, rows, loss_kind)
        per_sample_losses(params, *step.gather(feats, targets, np.arange(rows)), step)
        return tracemalloc.get_traced_memory()[0]

    held(8)  # the conv patch buffer, shared by every step, is made here
    tracemalloc.start()
    try:
        grown = held(2048) - held(1024)
    finally:
        tracemalloc.stop()
    assert abs(grown - 1024 * BatchStep.forward_row_bytes(arch, loss_kind)) < 4096


# ---------------------------------------------------------------------------
# nested-loop convolution oracle


def reference_conv(x, w, b):
    """Same-padded stride-1 convolution of sample-major x (N, Cin, H, W) by
    explicit loops over output pixels and kernel taps, skipping taps that
    fall outside the image instead of padding."""
    n, _, h, wid = x.shape
    k = w.shape[2]
    p = k // 2
    out = np.zeros((n, w.shape[0], h, wid)) + b[None, :, None, None]
    for y in range(h):
        for col in range(wid):
            for i in range(k):
                for j in range(k):
                    yy, xx = y + i - p, col + j - p
                    if 0 <= yy < h and 0 <= xx < wid:
                        out[:, :, y, col] += x[:, :, yy, xx] @ w[:, :, i, j].T
    return out


def reference_conv_backward(x, w, d_out):
    """(d_x, d_w, d_b) of ``reference_conv`` by the same loops."""
    n, _, h, wid = x.shape
    k = w.shape[2]
    p = k // 2
    d_x, d_w = np.zeros_like(x), np.zeros_like(w)
    for y in range(h):
        for col in range(wid):
            for i in range(k):
                for j in range(k):
                    yy, xx = y + i - p, col + j - p
                    if 0 <= yy < h and 0 <= xx < wid:
                        d_w[:, :, i, j] += d_out[:, :, y, col].T @ x[:, :, yy, xx]
                        d_x[:, :, yy, xx] += d_out[:, :, y, col] @ w[:, :, i, j]
    return d_x, d_w, d_out.sum(axis=(0, 2, 3))


def reference_conv_model(params, x):
    """Density map (N, H, W) and the two ReLU pre-activations."""
    (w1, w2, w3), (b1, b2, b3) = params.weights, params.biases
    z1 = reference_conv(x[:, None], w1, b1)
    z2 = reference_conv(np.maximum(z1, 0.0), w2, b2)
    out = reference_conv(np.maximum(z2, 0.0), w3, b3)
    return out[:, 0], (z1, z2)


def reference_conv_grads(params, x, d_out):
    (w1, w2, w3) = params.weights
    _, (z1, z2) = reference_conv_model(params, x)
    a1, a2 = np.maximum(z1, 0.0), np.maximum(z2, 0.0)
    d_a2, d_w3, d_b3 = reference_conv_backward(a2, w3, d_out[:, None])
    d_a1, d_w2, d_b2 = reference_conv_backward(a1, w2, d_a2 * (z2 > 0.0))
    _, d_w1, d_b1 = reference_conv_backward(x[:, None], w1, d_a1 * (z1 > 0.0))
    return [d_w1, d_w2, d_w3], [d_b1, d_b2, d_b3]


def rel_error(got, want):
    """Largest element error relative to the largest element of ``want``."""
    return np.abs(got - want).max() / np.abs(want).max()


def grid_chunks(arch, batch):
    """Images per patch chunk of the image, the first activation and the
    second layer's output gradient, on the padded grid of 1-, c1- and
    c2-channel planes of (H+k-1) x (W+k-1) floats, and the last chunk's
    images of ``batch``."""
    from tftb.nn.models import PATCH_BUFFER_FLOATS

    k, span = arch.kernel_size, (arch.image_height + arch.kernel_size - 1) * (
        arch.image_width + arch.kernel_size - 1)
    chunks = [max(1, PATCH_BUFFER_FLOATS // (c * k * k * span)) for c in (1, *arch.channels)]
    return chunks, [batch - (batch - 1) // chunk * chunk for chunk in chunks]


# Patch chunks hold whole padded images: on the 9x7 kernel-5 model (13x11
# planes) 36 of them for the image (25 patch rows), 12 for the first
# activation (75 rows) and 18 for the second layer's output gradient (50
# rows).  Batch 100 spans three, nine and six chunks, so chunk seams are
# covered; batch 1 is a single partial chunk.  Batch 37 ends every pass on
# a last chunk of one padded image.  Batch 60 in a step of 100 and batch 50
# in a step of 64 run on the first images of the step's buffers; 50 is a
# multiple of no chunk.  Batch 40 in a step of 40 ends on partial chunks
# whose taps read the grids up to their last float, past the last image
# into the margin.  One 48x48 image's patches of the first activation (72
# rows, channels (8, 2)) or of the second layer's output gradient (72 rows,
# channels (2, 8)) exceed the shared buffer.
@pytest.mark.parametrize(
    "arch, batch, step_rows",
    [
        (ConvDensityArch(9, 7, (3, 2), 5), 1, 1),
        (ConvDensityArch(9, 7, (3, 2), 5), 100, 100),
        (ConvDensityArch(9, 7, (3, 2), 5), 37, 37),
        (ConvDensityArch(9, 7, (3, 2), 5), 60, 100),
        (ConvDensityArch(9, 7, (3, 2), 5), 50, 64),
        (ConvDensityArch(9, 7, (3, 2), 5), 40, 40),
        (ConvDensityArch(7, 9, (3, 2), 3), 6, 6),
        (ConvDensityArch(6, 6, (2, 2), 3), 4, 4),
        (ConvDensityArch(5, 8, (4, 1), 3), 5, 5),
        (ConvDensityArch(8, 6, (2, 4), 5), 5, 5),
        (ConvDensityArch(48, 48, (8, 2), 3), 2, 2),
        (ConvDensityArch(48, 48, (2, 8), 3), 2, 2),
    ],
    ids=["9x7-k5-batch1", "9x7-k5-multichunk", "9x7-k5-last-chunk-of-one-padded-image",
         "9x7-k5-tail-of-a-larger-step", "9x7-k5-batch-not-a-multiple-of-the-chunk",
         "9x7-k5-tail-reading-into-the-end-margin", "7x9-k3", "6x6-k3", "c1-above-c2",
         "c1-below-c2-k5", "48x48-oversized-patches", "48x48-oversized-gradient-patches"],
)
def test_conv_matches_nested_loop_reference(arch, batch, step_rows):
    from tftb.nn.models import PATCH_BUFFER_FLOATS

    k, (c1, c2) = arch.kernel_size, arch.channels
    chunks, last = grid_chunks(arch, batch)
    if batch == 100:
        assert chunks == [36, 12, 18] and last == [28, 4, 10]
    if batch == 37:
        assert last == [1, 1, 1]
    if step_rows > batch:
        assert batch > chunks[2]
    if batch == 50:
        assert all(batch % chunk for chunk in chunks)
    if batch == 40:
        assert all(0 < n < chunk for n, chunk in zip(last, chunks))
    if arch.image_height == 48:
        assert max(c1, c2) * k * k * 50 * 50 > PATCH_BUFFER_FLOATS
    rng = np.random.default_rng(batch)
    params = init_params(arch, rng)
    for b in params.biases:
        b[:] = rng.standard_normal(b.shape) * 0.3
    x = rng.standard_normal((batch, arch.image_height, arch.image_width))
    targets = rng.standard_normal(x.shape)

    want_out, _ = reference_conv_model(params, x)
    step = BatchStep(arch, step_rows, "pixelwise_l2")
    assert rel_error(forward(params, x, step), want_out) < 1e-12

    result = loss_and_grad(params, x, targets, step)
    if batch == 40:  # the last chunks' taps read each grid to its last float
        for grid in grid_buffers(step):
            assert grid.shape[1] == len(grid_borders(arch, batch))
    d_out = 2.0 * (want_out - targets) / want_out.size  # batch-mean pixelwise L2
    want_w, want_b = reference_conv_grads(params, x, d_out)
    for got, want in zip(result.grad.weights + result.grad.biases, want_w + want_b):
        assert got.shape == want.shape
        assert rel_error(got, want) < 1e-12


@pytest.mark.parametrize("batch", [64, 256])
def test_conv_step_memory_is_bounded_by_the_design(batch):
    """Peak traced memory of conv steps at 24x24, channels (6, 6), kernel 3.

    Counted in padded single-channel planes of the batch, ``batch * 26 * 26``
    floats (an unpadded plane is smaller, and a grid's margins add 54 floats
    a channel), a step holds at most:

    * on the grid, the image (1 plane), the first activation (6), ``z``, the
      second activation and then the first layer's output gradient (6), and
      the head's output and then its gradient (1): 14;
    * the density map, and the loss's gradient and square of it: 3;
    * in the backward pass, the second layer's output gradient on its grid,
      whose patches give both of that layer's gradients: 6;
    * the one ReLU mask buffer, bool, 6 / 8 of a plane: 1;

    24 planes (23.7 and 23.4 measured at these batches), so the bound is 27
    planes (12.5% headroom for temporaries of the small weight gradients and
    Python objects) plus one patch buffer, which the first traced call may
    allocate.  The step is built inside the traced window, so its buffers
    count.  A whole-batch patch matrix does not fit: the second layer's
    alone is 54 planes (6 channels x 3 x 3 taps).
    """
    import tracemalloc

    from tftb.nn.models import PATCH_BUFFER_FLOATS

    arch = ConvDensityArch(24, 24, (6, 6))
    params = init_params(arch, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch, 24, 24))
    targets = rng.standard_normal((batch, 24, 24))
    plane_bytes = batch * 26 * 26 * 8
    bound = 27 * plane_bytes + 8 * PATCH_BUFFER_FLOATS
    tracemalloc.start()
    try:
        step = BatchStep(arch, batch, "pixelwise_l2")
        for _ in range(2):  # the second call reuses the first one's patch buffer
            result = loss_and_grad(params, x, targets, step)
            del result
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def test_a_conv_step_copies_the_patches_of_each_padded_activation_once(monkeypatch):
    """One conv ``loss_and_grad`` copies the patches of the image's grid
    twice (the first layer's output and weight gradient), of the first
    activation's grid once (the second layer's output) and of the second
    layer's output gradient's grid once (both of that layer's gradients);
    a forward pass copies those of the image and of the first activation."""
    from tftb.nn import models

    arch = ConvDensityArch(9, 7, (3, 2), 5)
    params = init_params(arch, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x, targets = rng.standard_normal((2, 8, 9, 7))
    step = BatchStep(arch, 8, "pixelwise_l2")
    loss_and_grad(params, x, targets, step)  # makes the backward buffers
    named = {"image": step._x, "a1": step._a1, "d_z2": step._backward_buffers[0]}
    sources = []
    patches = models._patches

    def recorded(src, grid, n):
        sources.append(src)
        return patches(src, grid, n)

    def copies(call):
        sources.clear()
        call()
        return sorted(name for src in sources for name, buf in named.items()
                      if np.shares_memory(src, buf))

    monkeypatch.setattr(models, "_patches", recorded)
    assert copies(lambda: loss_and_grad(params, x, targets, step)) == ["a1", "d_z2", "image", "image"]
    assert len(sources) == 4
    assert copies(lambda: per_sample_losses(params, x, targets, step)) == ["a1", "image"]
    assert len(sources) == 2


def grid_buffers(step):
    """Every grid buffer of a conv step that has run ``loss_and_grad``: the
    image's, the first and second activations' (a2 in the first c2 channels
    of ``z``), the head's output's (then d_z3's), and the second layer's
    output gradient's."""
    a2 = step._z[: step.arch.channels[1]]
    return step._x, step._a1, a2, step._z3, step._backward_buffers[0]


def grid_borders(arch, images):
    """True at every float of a grid buffer of ``images`` images that is not
    an image pixel: the margins of ``p*Wp + p`` floats at either end and
    each padded plane's borders."""
    h, w, p = arch.image_height, arch.image_width, arch.kernel_size // 2
    hp, wp = h + 2 * p, w + 2 * p
    margin = p * wp + p
    borders = np.ones(2 * margin + images * hp * wp, bool)
    planes = borders[margin : margin + images * hp * wp].reshape(images, hp, wp)
    planes[:, p : p + h, p : p + w] = False
    return borders


@pytest.mark.parametrize("k", [3, 5])
def test_a_tail_batch_after_a_full_one_gives_a_fresh_steps_bits(k):
    """A step that ran a full batch of other data gives a tail batch the
    forward output, per-sample losses and gradient of a fresh step, bit for
    bit, and leaves every grid buffer's borders and margins zero.  A tail's
    last image reads ``p*Wp + p`` floats past its plane, 2*Wp + 2 at k = 5:
    the next plane's top border, never the pixels the full batch left."""
    arch = ConvDensityArch(9, 7, (3, 2), k)
    b, m = 8, 5
    rng = np.random.default_rng(k)
    params = init_params(arch, rng)
    for bias in params.biases:
        bias[:] = rng.standard_normal(bias.shape) * 0.3
    full_x, full_t = rng.standard_normal((2, b, 9, 7)) * 100.0
    x, t = rng.standard_normal((2, m, 9, 7))
    step = BatchStep(arch, b, "pixelwise_l2")
    loss_and_grad(params, full_x, full_t, step)

    def results(s):
        out = forward(params, x, s).tobytes()
        losses = per_sample_losses(params, x, t, s).tobytes()
        result = loss_and_grad(params, x, t, s)
        return out, losses, result.per_sample_losses.tobytes(), result.grad.flat.tobytes()

    assert results(step) == results(BatchStep(arch, m, "pixelwise_l2"))
    borders = grid_borders(arch, b)
    for grid in grid_buffers(step):
        assert grid.shape[1] == len(borders)
        assert not grid[:, borders].any()


# ---------------------------------------------------------------------------
# finite-difference gradient oracle


def gradcheck_instance(arch, loss_kind, seed, margin=1e-3):
    """Random params/batch at a point clear of every ReLU kink.

    Weights and biases are drawn at random (not He-init) and instances whose
    smallest ReLU pre-activation magnitude is below ``margin`` are re-drawn,
    so central differences at h=1e-5 never step across a kink.
    """
    def relu_preactivations(params, x):
        if arch.kind == "mlp":
            pre = []
            a = x
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                z = a @ w + b
                if i < len(params.weights) - 1:  # the logit head has no ReLU
                    pre.append(z)
                    a = np.maximum(z, 0.0)
                else:
                    a = z
            return pre
        _, (z1, z2) = reference_conv_model(params, x)
        return [z1, z2]

    while True:
        rng = np.random.default_rng(seed)
        params = init_params(arch, rng)
        for b in params.biases:
            b[:] = rng.standard_normal(b.shape) * 0.3
        if arch.kind == "mlp":
            x = rng.standard_normal((5, arch.input_dim))
            n_out = arch.num_classes
            targets = (
                rng.integers(0, n_out, 5)
                if loss_kind == "cross_entropy"
                else rng.standard_normal((5, n_out))
            )
        else:
            x = rng.standard_normal((3, arch.image_height, arch.image_width))
            n_out = arch.image_height * arch.image_width
            targets = (
                rng.integers(0, n_out, 3)
                if loss_kind == "cross_entropy"
                else rng.standard_normal((3, arch.image_height, arch.image_width))
            )
        kink_margin = min(
            (np.abs(z).min() for z in relu_preactivations(params, x)), default=1.0
        )
        if kink_margin > margin:
            return params, x, targets
        seed += 10_000


def max_fd_relative_error(params, x, targets, loss_kind, h=1e-5):
    x, targets = check_inputs(params.arch, x, targets, loss_kind)
    step = step_for(params, x, loss_kind)
    result = loss_and_grad(params, x, targets, step)

    def mean_loss():  # a forward pass leaves the step's gradient as it is
        return float(per_sample_losses(params, x, targets, step).mean())

    worst = 0.0
    for arrays, grads in ((params.weights, result.grad.weights), (params.biases, result.grad.biases)):
        for arr, grad in zip(arrays, grads):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                plus = mean_loss()
                flat[k] = orig - h
                minus = mean_loss()
                flat[k] = orig
                fd = (plus - minus) / (2.0 * h)
                # floor absorbs fp cancellation noise on near-zero gradients
                rel = abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-5)
                worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("loss_kind", ["cross_entropy", "pixelwise_l2"])
@pytest.mark.parametrize(
    "arch",
    [MlpArch(4, (6,), 3), ConvDensityArch(6, 6, (2, 2)), ConvDensityArch(7, 5, (2, 2), 5)],
    ids=["mlp", "conv", "conv-k5"],
)
def test_gradients_match_central_finite_differences(arch, loss_kind):
    for seed in range(5):
        params, x, targets = gradcheck_instance(arch, loss_kind, seed)
        assert max_fd_relative_error(params, x, targets, loss_kind) < 1e-4


# ---------------------------------------------------------------------------
# Adam


def scalar_param():
    arch = MlpArch(1, (), 1)
    params = init_params(arch, np.random.default_rng(0))
    params.weights[0][:] = 1.0
    params.biases[0][:] = 0.0
    return params


def test_adam_zero_gradient_is_a_fixed_point():
    params = mlp()
    before = params.copy()
    state = init_adam_state(params)
    zeros = ModelParams.zeros(params.arch)
    for _ in range(5):
        adam_step(params, zeros, state, lr=0.1)
    assert params.allclose(before)
    assert state.step == 5


def test_adam_first_step_magnitude_is_just_under_lr():
    params = scalar_param()
    state = init_adam_state(params)
    lr = 0.05
    grad = ModelParams.zeros(params.arch)
    grad.weights[0][:] = 1.0
    adam_step(params, grad, state, lr)
    delta = abs(params.weights[0][0, 0] - 1.0)
    assert 0.99 * lr < delta <= lr


def test_adam_quadratic_descent_matches_scalar_simulation_oracle():
    params = scalar_param()
    state = init_adam_state(params)
    lr = 0.1
    trajectory = []
    grad = ModelParams.zeros(params.arch)
    for _ in range(10):
        w = params.weights[0][0, 0]
        grad.weights[0][0, 0] = 2.0 * w
        adam_step(params, grad, state, lr)
        trajectory.append(params.weights[0][0, 0])

    # independent plain-python Adam on f(w) = w^2 from w = 1
    w, m, v = 1.0, 0.0, 0.0
    oracle = []
    for t in range(1, 11):
        g = 2.0 * w
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        oracle.append(w)

    assert np.allclose(trajectory, oracle, atol=1e-12)
    assert all(abs(b) < abs(a) for a, b in zip([1.0] + trajectory, trajectory))
    assert abs(trajectory[-1]) < 1.0


def test_adam_shape_mismatch_raises():
    params = mlp()
    state = init_adam_state(params)
    with pytest.raises(ShapeError):
        adam_step(params, ModelParams.zeros(MlpArch(2, (2,), 2)), state, 0.1)
    # as many floats as the model (51), for another architecture: rejected
    # before any update
    before = params.copy()
    other = ModelParams(MlpArch(16, (), 3), np.ones(params.flat.size))
    with pytest.raises(ShapeError, match="gradient of"):
        adam_step(params, other, state, 0.1)
    # moments of another model: also rejected before the step is counted
    foreign = init_adam_state(mlp(hidden=(5,)))
    with pytest.raises(ShapeError, match="moment shape"):
        adam_step(params, ModelParams.zeros(params.arch), foreign, 0.1)
    assert params.allclose(before)
    assert state.step == 0 and foreign.step == 0


def test_adam_rejects_nonpositive_lr():
    params = mlp()
    before = params.copy()
    state = init_adam_state(params)
    grad = ModelParams.zeros(params.arch)
    grad.flat[:] = 1.0
    for lr in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="learning rate must be finite and > 0"):
            adam_step(params, grad, state, lr)
    assert params.allclose(before) and state.step == 0


def test_adam_refuses_a_second_moment_that_overflows_and_leaves_params_unchanged():
    """Finite gradients of 1e307 square past the largest float: the step is
    refused, not taken with ``v = inf`` and those weights frozen for good."""
    arch = MlpArch(1, (), 2)
    params = ModelParams.zeros(arch)
    params.weights[0][:] = [[5.0, -5.0]]
    x, y = np.full((4, 1), 1e307), np.ones(4, np.int64)
    grad = loss_and_grad(params, x, y, BatchStep(arch, 4, "cross_entropy")).grad
    assert grad.flat.tolist() == [1e307, -1e307, 1.0, -1.0]
    before = params.flat.copy()
    with pytest.raises(NonFiniteError, match="second moment overflows at step 1"):
        adam_step(params, grad, init_adam_state(params), lr=1e-3)
    assert params.flat.tobytes() == before.tobytes()


def test_adam_takes_a_step_whose_second_moment_is_large_but_finite():
    params = scalar_param()
    state = init_adam_state(params)
    grad = ModelParams.zeros(params.arch)
    grad.weights[0][:] = 1e154  # (1 - beta2) * g * g is 1e305
    adam_step(params, grad, state, lr=0.05)
    assert state.v[0] == (1.0 - 0.999) * 1e154 * 1e154
    assert params.weights[0][0, 0] == pytest.approx(1.0 - 0.05, rel=1e-12)


def test_adam_refuses_an_update_that_overflows_and_leaves_params_unchanged():
    """At a learning rate of 1e308, ``m_hat * lr`` of a gradient of 10 is
    past the largest float: the step is refused, not written as ``-inf``
    parameters."""
    params = ModelParams.zeros(MlpArch(1, (), 2))
    grad = ModelParams.zeros(params.arch)
    grad.flat[:] = 10.0
    with pytest.raises(NonFiniteError, match="update overflows at step 1 at learning rate 1e"):
        adam_step(params, grad, init_adam_state(params), lr=1e308)
    assert params.flat.tobytes() == bytes(8 * params.flat.size)


def test_a_backward_pass_that_overflows_is_refused_with_no_row():
    """A 1-1-1-2 MLP whose loss is finite for an input of 0 and target 1, but
    whose gradient overflows on its way back to the first layer: ``a1`` is
    1e-300, ``z2`` is 1, the logits are (1e10, 0), so ``d_z2`` is 1e10 and
    ``d_z2 @ w2.T`` 1e310."""
    params = ModelParams.zeros(MlpArch(1, (1, 1), 2))
    params.biases[0][:] = 1e-300
    params.weights[1][:] = 1e300
    params.weights[2][:] = [[1e10, 0.0]]
    x, y = np.zeros((1, 1)), np.array([1])
    with pytest.raises(NonFiniteError, match="non-finite cross_entropy gradient") as err:
        loss_and_grad(params, x, y, step_for(params, x))
    assert err.value.row is None


@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
@pytest.mark.parametrize(
    "arch", [MlpArch(4, (6, 5), 3), ConvDensityArch(7, 6, (3, 2))], ids=["mlp", "conv"]
)
def test_a_step_inside_the_runs_error_state_has_the_bits_of_a_public_call(arch, loss_kind):
    """The trainer enters ``float_errors_raised`` once per run, and its steps
    set no error state; the same finite batch through the public calls,
    each of which enters the state itself, gives the same bytes: losses,
    mean, gradient and updated parameters.  Both leave the caller's error
    state as they found it."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, *arch.input_shape()))
    k = math.prod(arch.output_shape())
    if loss_kind == "cross_entropy":
        y = rng.integers(0, k, 9)
    else:
        y = rng.random((9, *arch.output_shape()))
    x, y = check_inputs(arch, x, y, loss_kind)

    def one_batch(inside: bool):
        params = init_params(arch, np.random.default_rng(6))
        before = np.geterr()
        with float_errors_raised() if inside else contextlib.nullcontext():
            result = loss_and_grad(params, x, y, BatchStep(arch, 12, loss_kind))
            got = [result.per_sample_losses.tobytes(), result.mean_loss.hex(),
                   result.grad.flat.tobytes()]
            adam_step(params, result.grad, init_adam_state(params), 0.01)
        assert np.geterr() == before
        return got + [params.flat.tobytes()]

    assert one_batch(inside=True) == one_batch(inside=False)


def test_float_errors_raised_nested_in_itself_restores_each_blocks_state():
    """Entered inside itself, as a new block or as the same instance again,
    the run's state holds until the outermost block ends, and each block's
    end restores what its start found: numpy's error state and the flag the
    steps read, also when the block ends in an exception."""
    raised = {"over": "raise", "invalid": "raise", "under": "ignore"}

    def held():
        return _RAISED.get() and all(np.geterr()[k] == v for k, v in raised.items())

    outer = float_errors_raised()
    with np.errstate(all="warn"):
        caller = np.geterr()
        assert not _RAISED.get()
        with outer:
            assert held()
            inside = np.geterr()
            with float_errors_raised():
                np.seterr(divide="raise")
                assert held()
            assert held() and np.geterr() == inside
            with outer:
                with outer:
                    assert held()
                assert held()
            assert held() and np.geterr() == inside
            with pytest.raises(FloatingPointError):
                with float_errors_raised():
                    np.array(1e308) * 10.0
            assert held() and np.geterr() == inside
        assert np.geterr() == caller and not _RAISED.get()


def test_training_steps_are_deterministic():
    def run():
        rng = np.random.default_rng(11)
        params = init_params(MlpArch(4, (6,), 3), np.random.default_rng(9))
        state = init_adam_state(params)
        for _ in range(12):
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, 8)
            res = loss_and_grad(params, x, y, step_for(params, x))
            adam_step(params, res.grad, state, 0.01)
        return params

    assert run().allclose(run())


def reference_adam_step(weights, biases, grads_w, grads_b, moments, lr, t):
    """Adam layer by layer on separate arrays, as the optimizer ran before its
    parameters shared one vector; ``moments`` is a list of (m, v) per array."""
    for param, grad, (m, v) in zip(weights + biases, grads_w + grads_b, moments):
        m *= 0.9
        m += (1.0 - 0.9) * grad
        v *= 0.999
        v += (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


@pytest.mark.parametrize(
    "arch",
    [MlpArch(4, (6, 5), 3), ConvDensityArch(7, 6, (3, 2))],
    ids=["mlp", "conv"],
)
def test_flat_adam_is_bit_equal_to_per_layer_reference(arch):
    rng = np.random.default_rng(31)
    params = init_params(arch, np.random.default_rng(30))
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in weights + biases]
    state = init_adam_state(params)
    grad = ModelParams.zeros(arch)
    for t in range(1, 51):
        grads_w = [rng.standard_normal(w.shape) * 10.0 ** rng.integers(-6, 2) for w in weights]
        grads_b = [rng.standard_normal(b.shape) for b in biases]
        for view, g in zip(grad.weights + grad.biases, grads_w + grads_b):
            view[...] = g
        lr = float(rng.uniform(1e-4, 1e-1))
        adam_step(params, grad, state, lr)
        reference_adam_step(weights, biases, grads_w, grads_b, moments, lr, t)
        for got, want in zip(params.weights + params.biases, weights + biases):
            assert (got == want).all()
    assert state.step == 50


@pytest.mark.parametrize("arch", MLP_DEPTHS, ids=MLP_DEPTH_IDS)
def test_fifty_mlp_steps_keep_the_bits_of_the_references(arch):
    """Fifty ``loss_and_grad`` + ``adam_step`` calls in a row on one step,
    inside the run's error state, full batches and tails of 1 to 31 rows
    mixed, keep the bits of the matmul reference and the per-layer Adam
    reference at every step: losses, mean, gradient and parameters, each
    reference carrying its own parameters and moments from step to step."""
    rng = np.random.default_rng(17)
    params = init_params(arch, np.random.default_rng(16))
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in weights + biases]
    state = init_adam_state(params)
    step = BatchStep(arch, 32, "cross_entropy")
    tails = 0
    with float_errors_raised():
        for t in range(1, 51):
            rows = int(rng.integers(1, 32)) if t % 4 == 0 else 32
            tails += rows < 32
            x, y = check_inputs(arch, rng.standard_normal((rows, arch.input_dim)),
                                rng.integers(0, arch.num_classes, rows), "cross_entropy")
            flat = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
            _, losses, grad = matmul_reference(ModelParams(arch, flat), x, y)
            result = loss_and_grad(params, x, y, step)
            assert result.per_sample_losses.tobytes() == losses.tobytes(), t
            assert result.mean_loss.hex() == (float(np.add.reduce(losses)) / rows).hex(), t
            assert result.grad.flat.tobytes() == grad.tobytes(), t
            lr = float(rng.uniform(1e-3, 1e-1))
            adam_step(params, result.grad, state, lr)
            want = ModelParams(arch, grad)
            reference_adam_step(weights, biases, want.weights, want.biases, moments, lr, t)
            for got, ref in zip(params.weights + params.biases, weights + biases):
                assert got.tobytes() == ref.tobytes(), t
    assert tails == 12 and state.step == 50


def test_layer_arrays_are_views_of_the_flat_vector():
    params = init_params(ConvDensityArch(6, 5, (2, 3)), np.random.default_rng(0))
    arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
    assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
    # weights then bias, layer by layer: the checkpoint's order
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in arrays]))
    offset = 0
    for a in arrays:
        assert np.shares_memory(a, params.flat)
        a[...] = np.arange(a.size).reshape(a.shape) + offset
        offset += a.size
    assert np.array_equal(params.flat, np.arange(params.flat.size))
    params.flat[:] = -1.0
    assert all((a == -1.0).all() for a in arrays)


def test_model_params_copy_shares_no_memory():
    params = mlp(hidden=(6, 5))
    clone = params.copy()
    assert clone.allclose(params)
    for a in [clone.flat, *clone.weights, *clone.biases]:
        for b in [params.flat, *params.weights, *params.biases]:
            assert not np.shares_memory(a, b)
    clone.weights[1][0, 0] += 1.0
    assert not clone.allclose(params)
    assert params.allclose(mlp(hidden=(6, 5)))


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize(
    "arch",
    [MlpArch(4, (6, 5), 3), ConvDensityArch(8, 6, (3, 2))],
    ids=["mlp", "conv"],
)
def test_checkpoint_round_trip_is_bit_exact(tmp_path, arch):
    params = init_params(arch, np.random.default_rng(21))
    path = tmp_path / "model.bin"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.arch == params.arch
    assert loaded.allclose(params)
    # second save of the loaded params is byte-identical
    path2 = tmp_path / "model2.bin"
    save_params(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# sha256 of the checkpoint files written by the per-layer code these replaced
CHECKPOINT_DIGESTS = {
    "mlp": "160ad2d32cc652ede6e99145141a6f5907bdaa61d795c6f696c66f4ed45d88af",
    "conv": "93babfabfb8ee9b30de32f914818078ae7f2f56e9e6455b69e0651693e7cb500",
}


@pytest.mark.parametrize(
    "name, arch",
    [("mlp", MlpArch(4, (6, 5), 3)), ("conv", ConvDensityArch(8, 6, (3, 2)))],
    ids=["mlp", "conv"],
)
def test_checkpoint_bytes_match_golden_digest(tmp_path, name, arch):
    params = init_params(arch, np.random.default_rng(21))
    rng = np.random.default_rng(5)
    for b in params.biases:
        b[:] = rng.standard_normal(b.shape)
    path = tmp_path / "model.bin"
    save_params(params, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_DIGESTS[name]
    assert load_params(path).allclose(params)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAPARM" + b"\x00" * 32)
    with pytest.raises(CorruptDataError, match="magic"):
        load_params(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = mlp()
    path = tmp_path / "model.bin"
    save_params(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CorruptDataError, match="truncated"):
        load_params(path)
    for size in range(len(blob)):  # every proper prefix
        path.write_bytes(blob[:size])
        with pytest.raises(CorruptDataError):
            load_params(path)


@pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8])
def test_checkpoint_rejects_trailing_bytes(tmp_path, extra):
    path = tmp_path / "model.bin"
    save_params(mlp(), path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(CorruptDataError, match=f"{len(extra)} trailing bytes"):
        load_params(path)


def _checkpoint(path, descriptor: bytes, n_floats: int = 0):
    path.write_bytes(b"TFTBPAR1" + len(descriptor).to_bytes(4, "little") + descriptor
                     + bytes(8 * n_floats))
    return path


@pytest.mark.parametrize(
    "descriptor, n_floats",
    [
        (b'{"kind": "mlp"}', 0),
        (b"[]", 0),
        (b"{}", 0),
        (b'{"kind": "mlp", "input_dim": 0, "hidden": [], "num_classes": 0}', 0),
        (b'{"kind": "mlp", "input_dim": 2, "hidden": "1", "num_classes": 2}', 7),
        (b'{"kind": "mlp", "input_dim": 2.9, "hidden": [true], "num_classes": 1}', 5),
        (b'{"kind": "conv_density", "image_height": -3, "image_width": 4, '
         b'"channels": [1, 1], "kernel_size": 3}', 22),
        (b'{"kind": "mlp", "input_dim": 2, "hidden": [], "num_classes": 2, "dropout": 0.5}', 6),
    ],
    ids=["missing-fields", "not-an-object", "no-kind", "zero-sizes", "hidden-string",
         "float-and-bool-sizes", "negative-height", "extra-key"],
)
def test_checkpoint_rejects_malformed_descriptor(tmp_path, descriptor, n_floats):
    with pytest.raises(CorruptDataError, match="descriptor"):
        load_params(_checkpoint(tmp_path / "model.bin", descriptor, n_floats))


def test_checkpoint_checks_the_payload_size_before_allocating(tmp_path):
    # 10^12 parameters claimed, none present: refused from the header alone
    descriptor = b'{"kind": "mlp", "input_dim": 1000000, "hidden": [], "num_classes": 1000000}'
    with pytest.raises(CorruptDataError, match="truncated"):
        load_params(_checkpoint(tmp_path / "model.bin", descriptor))


@pytest.mark.parametrize("arch", [MlpArch(4, (6, 5), 3), ConvDensityArch(8, 6, (3, 2), 5)],
                         ids=["mlp", "conv"])
def test_arch_from_descriptor_inverts_descriptor(arch):
    assert arch_from_descriptor(arch.descriptor()) == arch
    assert arch_from_descriptor(json.loads(json.dumps(arch.descriptor()))) == arch


@pytest.mark.parametrize(
    "build",
    [lambda: MlpArch(np.int64(4), (np.int32(6), np.uint8(5)), np.int64(3)),
     lambda: ConvDensityArch(np.int64(8), np.int16(6), (np.int64(3), np.int8(2)), np.uint64(5))],
    ids=["mlp", "conv"],
)
def test_arch_keeps_numpy_integer_sizes_as_python_ints(tmp_path, build):
    arch = build()
    sizes = [v for value in arch.descriptor().values() if value != arch.kind
             for v in (value if isinstance(value, tuple) else (value,))]
    assert sizes and all(type(v) is int for v in sizes)
    assert arch_from_descriptor(json.loads(json.dumps(arch.descriptor()))) == arch
    save_params(init_params(arch, np.random.default_rng(0)), tmp_path / "model.bin")
    assert load_params(tmp_path / "model.bin").arch == arch


def test_model_params_validates_shapes_against_architecture():
    arch = MlpArch(4, (6,), 3)
    good = init_params(arch, np.random.default_rng(0))
    first_layer = good.weights[0].size + good.biases[0].size
    with pytest.raises(ShapeError):
        ModelParams(arch, good.flat[:first_layer].copy())
    with pytest.raises(ShapeError):
        ModelParams(arch, np.zeros(good.flat.size + 1))
    with pytest.raises(ShapeError):
        ModelParams(arch, good.flat.reshape(1, -1))


def test_adam_state_shapes_follow_params():
    params = init_params(ConvDensityArch(6, 6, (2, 3)), np.random.default_rng(0))
    state = init_adam_state(params)
    assert isinstance(state, AdamState)
    for moment in (state.m, state.v):
        assert moment.shape == params.flat.shape
        assert not moment.any()
        assert not np.shares_memory(moment, params.flat)


def test_adam_temporaries_share_no_memory_with_the_moments_or_the_parameters():
    params = mlp(hidden=(6, 5))
    state = init_adam_state(params)
    arrays = [state.tmp, state.denom, state.m, state.v, params.flat]
    for i, temporary in enumerate(arrays[:2]):
        assert temporary.shape == params.flat.shape
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(temporary, other)


# ---------------------------------------------------------------------------
# the bound batch step


def step_buffers(step):
    """Every writable array a step holds, its patch buffer included."""
    from tftb.nn import models

    found, todo = [], [step, getattr(models._scratch, "patches", None)]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            if obj.flags.writeable:
                found.append(obj)
        elif isinstance(obj, ModelParams):
            found.append(obj.flat)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, (MlpArch, ConvDensityArch)):
            todo.extend(vars(obj).values())
    return found


def spoil(step, keep=None):
    """Fill every buffer of ``step`` but ``keep`` with garbage."""
    for buf in step_buffers(step):
        if keep is None or not np.shares_memory(buf, keep):
            buf[...] = np.nan if buf.dtype.kind == "f" else True if buf.dtype == bool else -7


@pytest.mark.parametrize("spoiled", [False, True], ids=["as-left", "nan-between-calls"])
@pytest.mark.parametrize("loss_kind", ["cross_entropy", "pixelwise_l2"])
@pytest.mark.parametrize(
    "arch", [MlpArch(4, (24, 5), 4), ConvDensityArch(9, 7, (3, 2), 5)], ids=["mlp", "conv"]
)
def test_a_reused_step_is_bit_identical_to_a_fresh_step_per_call(arch, loss_kind, spoiled):
    """A run of batches with a short tail through one step gives the losses
    and parameters of a fresh step per call, bit for bit, whatever the
    reused step's buffers (and the optimizer's temporaries) held before
    each call."""
    rng = np.random.default_rng(3)
    n, batch = 45, 8  # five full batches and a tail of 5
    out_shape = (arch.num_classes,) if arch.kind == "mlp" else arch.input_shape()
    feats = rng.standard_normal((n, *arch.input_shape()))
    targets = (rng.integers(0, math.prod(out_shape), n) if loss_kind == "cross_entropy"
               else rng.standard_normal((n, *out_shape)))
    feats, targets = check_inputs(arch, feats, targets, loss_kind)
    reused = init_params(arch, rng)
    fresh = reused.copy()
    reused_state, fresh_state = init_adam_state(reused), init_adam_state(fresh)
    step = BatchStep(arch, batch, loss_kind)

    def spoil_all(keep=None):
        spoil(step, keep)
        reused_state.tmp[...] = reused_state.denom[...] = np.nan

    for epoch in range(3):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            rows = order[lo : lo + batch]
            if spoiled:
                spoil_all()
            x, y = step.gather(feats, targets, rows)
            got = loss_and_grad(reused, x, y, step)
            want = loss_and_grad(fresh, feats[rows], targets[rows],
                                 BatchStep(arch, len(rows), loss_kind))
            assert got.per_sample_losses.tobytes() == want.per_sample_losses.tobytes()
            assert got.mean_loss == want.mean_loss
            assert got.grad.flat.tobytes() == want.grad.flat.tobytes()
            if spoiled:  # all but the gradient the optimizer takes
                spoil_all(keep=got.grad.flat)
            adam_step(reused, got.grad, reused_state, 0.01)
            adam_step(fresh, want.grad, fresh_state, 0.01)
            assert reused.flat.tobytes() == fresh.flat.tobytes()
        if spoiled:
            spoil_all()
        short = slice(0, batch - 3)
        got = per_sample_losses(reused, feats[short], targets[short], step)
        want = per_sample_losses(fresh, feats[short], targets[short],
                                 BatchStep(arch, batch - 3, loss_kind))
        assert got.tobytes() == want.tobytes()


def test_bound_step_names_the_batch_row_of_a_non_finite_loss():
    params = mlp(num_classes=3)
    params.weights[0][0, 0] = np.inf
    step = BatchStep(params.arch, 4, "cross_entropy")
    x, y = step.gather(np.ones((3, 4)), np.array([0, 1, 2]), np.array([2, 1]))
    with pytest.raises(NonFiniteError, match="non-finite cross_entropy loss in batch row 0$") as err:
        loss_and_grad(params, x, y, step)
    assert err.value.row == 0


def test_warm_conv_step_takes_no_page_faults():
    """A warm step on the conv model allocates nothing that grows with the
    batch, so the heap neither grows nor is trimmed back between steps and
    touches no fresh page.  (Allocating its arrays per call, the same step
    took about 1.3k minor faults.)"""
    import resource

    arch = ConvDensityArch(24, 24, (6, 6))
    params = init_params(arch, np.random.default_rng(0))
    state = init_adam_state(params)
    rng = np.random.default_rng(1)
    feats, maps = rng.standard_normal((96, 24, 24)), rng.standard_normal((96, 24, 24))
    step = BatchStep(arch, 32, "pixelwise_l2")

    def steps(count):
        for i in range(count):
            x, y = step.gather(feats, maps, np.arange(32 * (i % 3), 32 * (i % 3 + 1)))
            result = loss_and_grad(params, x, y, step)
            adam_step(params, result.grad, state, 1e-3)

    steps(3)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps(20)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 20 * 10, f"{faults / 20:.0f} minor faults per warm step"


def warm_peak(call):
    """The traced peak of a warm ``call`` above what was held before it."""
    import tracemalloc

    call()
    call()
    tracemalloc.start()
    try:
        call()  # the traced window's own first-call allocations
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tail", [False, True], ids=["full-batch", "tail-batch"])
def test_warm_mlp_step_allocates_nothing_that_grows_with_the_batch(tail):
    """A warm MLP ``loss_and_grad`` + ``adam_step`` takes no array the size
    of its batch: the traced peak of one step is the same at 2**14 and 2**15
    rows, full or three quarters full.  The Python objects of a call, and
    numpy's iterator buffers of at most 8192 elements (64 kB) each, are the
    same at both sizes; a temporary of one float per row, 96 kB or more at
    these sizes, would raise the peak of the larger step.  (A step that ran
    ``exp_flat[index] -= 1.0`` took such a copy.)"""
    arch = MlpArch(4, (24,), 4)
    params = init_params(arch, np.random.default_rng(0))
    state = init_adam_state(params)
    rng = np.random.default_rng(1)

    def peak(batch):
        rows = batch * 3 // 4 if tail else batch
        feats, targets = check_inputs(
            arch, rng.standard_normal((rows, 4)), rng.integers(0, 4, rows), "cross_entropy"
        )
        step = BatchStep(arch, batch, "cross_entropy")
        return warm_peak(lambda: adam_step(
            params, loss_and_grad(params, feats, targets, step).grad, state, 1e-3))

    small, large = peak(2**14), peak(2**15)
    assert abs(large - small) < 4096, f"peak {small} B at 2**14 rows, {large} B at 2**15"


@pytest.mark.parametrize("call", ["step", "forward"])
@pytest.mark.parametrize("loss_kind", ["cross_entropy", "pixelwise_l2"])
def test_warm_conv_step_allocates_nothing_that_grows_with_the_batch(loss_kind, call):
    """The conv model's warm ``loss_and_grad`` + ``adam_step``, and its
    forward-only ``per_sample_losses``, take no array the size of the batch:
    the traced peak of a call is the same for 64 and 128 16x16 images.  A
    temporary of one float a pixel, 128 kB or more at these sizes, would
    raise the peak of the larger batch; so would a density map handed to the
    loss as a strided view of its grid, which cross-entropy's reshape
    copies."""
    arch = ConvDensityArch(16, 16, (3, 3))
    params = init_params(arch, np.random.default_rng(0))
    state = init_adam_state(params)
    rng = np.random.default_rng(1)

    def peak(batch):
        targets = (rng.integers(0, 256, batch) if loss_kind == "cross_entropy"
                   else rng.standard_normal((batch, 16, 16)))
        feats, targets = check_inputs(arch, rng.standard_normal((batch, 16, 16)), targets,
                                      loss_kind)
        step = BatchStep(arch, batch, loss_kind)
        if call == "forward":
            return warm_peak(lambda: per_sample_losses(params, feats, targets, step))
        return warm_peak(lambda: adam_step(
            params, loss_and_grad(params, feats, targets, step).grad, state, 1e-3))

    small, large = peak(64), peak(128)
    assert abs(large - small) < 4096, f"peak {small} B at 64 images, {large} B at 128"


def test_refused_checkpoints_leave_no_state_behind(tmp_path):
    """A descriptor that names an architecture, in a checkpoint refused for
    its payload, leaves nothing of that architecture alive in the process."""
    import gc

    descriptor = b'{"kind": "mlp", "input_dim": 987653, "hidden": [], "num_classes": 3}'
    for n_floats in (0, 3):
        with pytest.raises(CorruptDataError, match="truncated"):
            load_params(_checkpoint(tmp_path / "model.bin", descriptor, n_floats))
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, MlpArch) and o.input_dim == 987653]


def test_gather_refuses_a_row_out_of_range():
    step = BatchStep(MlpArch(4, (3,), 2), 4, "cross_entropy")
    with pytest.raises(IndexError):
        step.gather(np.ones((3, 4)), np.array([0, 1, 1]), np.array([0, 3]))


@pytest.mark.parametrize(
    "arch", [MlpArch(4, (5,), 3), ConvDensityArch(5, 5, (2, 2))], ids=["mlp", "conv"]
)
def test_an_empty_batch_has_empty_outputs_and_no_gradient(arch):
    params = init_params(arch, np.random.default_rng(0))
    step = BatchStep(arch, 4, "cross_entropy")
    x, y = check_inputs(arch, np.zeros((0, *arch.input_shape())), np.zeros(0, int), "cross_entropy")
    assert forward(params, x, step).shape == (0, *arch.output_shape())
    assert per_sample_losses(params, x, y, step).shape == (0,)
    with pytest.raises(ShapeError, match="batch of 0 samples: this call takes 1 to 4"):
        loss_and_grad(params, x, y, step)


@pytest.mark.parametrize(
    "arch", [MlpArch(4, (5,), 3), ConvDensityArch(5, 5, (2, 2))], ids=["mlp", "conv"]
)
def test_a_batch_larger_than_its_step_is_refused(arch):
    params = init_params(arch, np.random.default_rng(0))
    step = BatchStep(arch, 4, "cross_entropy")
    x, y = check_inputs(arch, np.zeros((5, *arch.input_shape())), np.zeros(5, int), "cross_entropy")
    calls = [
        lambda: forward(params, x, step),
        lambda: per_sample_losses(params, x, y, step),
        lambda: loss_and_grad(params, x, y, step),
        lambda: output_losses(np.zeros((5, *arch.output_shape())), y, step),
        lambda: step.gather(x, y, np.arange(5)),
    ]
    for call in calls:
        with pytest.raises(ShapeError, match="batch of 5 samples: this call takes [01] to 4"):
            call()


@pytest.mark.parametrize("size", [2.5, True, 0, -1, "4", None])
def test_a_step_refuses_a_batch_size_that_is_not_a_positive_int(size):
    with pytest.raises(ShapeError, match="int batch size >= 1"):
        BatchStep(MlpArch(4, (3,), 2), size, "cross_entropy")


def test_a_step_takes_a_numpy_int_batch_size_and_a_known_loss_kind():
    step = BatchStep(MlpArch(4, (3,), 2), np.int64(3), "pixelwise_l2")
    assert step.batch_size == 3 and type(step.batch_size) is int
    with pytest.raises(ShapeError, match="unknown loss kind"):
        BatchStep(MlpArch(4, (3,), 2), 3, "hinge")
