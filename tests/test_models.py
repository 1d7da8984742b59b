"""Numeric core: forward passes, losses, gradients, Adam, checkpoints."""

import hashlib
import json
import math

import numpy as np
import pytest

from tftb.errors import ConfigError, CorruptDataError, NonFiniteError, ShapeError
from tftb.nn import (
    AdamState,
    ConvDensityArch,
    MlpArch,
    ModelParams,
    adam_step,
    forward,
    init_adam_state,
    init_params,
    load_params,
    loss_and_grad,
    per_sample_losses,
    save_params,
)
from tftb.nn.models import arch_from_descriptor


def mlp(input_dim=4, hidden=(6,), num_classes=3, seed=0):
    return init_params(MlpArch(input_dim, hidden, num_classes), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# forward


def test_zero_weight_mlp_gives_zero_logits_and_uniform_loss():
    arch = MlpArch(5, (8,), 10)
    params = init_params(arch, np.random.default_rng(0))
    for w in params.weights:
        w[:] = 0.0
    x = np.random.default_rng(1).standard_normal((6, 5))
    logits = forward(params, x)
    assert np.array_equal(logits, np.zeros((6, 10)))
    result = loss_and_grad(params, x, np.zeros(6, dtype=int), "cross_entropy")
    assert np.allclose(result.per_sample_losses, math.log(10), atol=1e-12)


def test_identity_linear_model_passes_input_through():
    arch = MlpArch(3, (), 3)
    params = init_params(arch, np.random.default_rng(0))
    params.weights[0][:] = np.eye(3)
    params.biases[0][:] = 0.0
    out = forward(params, np.array([[1.0, 2.0, 3.0]]))
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

    got = forward(params, x)
    want = np.array([oracle(row) for row in x])
    assert np.allclose(got, want, atol=1e-12)


def test_forward_shape_mismatch_names_expected_and_actual():
    params = mlp(input_dim=4)
    with pytest.raises(ShapeError, match=r"expected \(batch, 4\).*\(3, 5\)"):
        forward(params, np.zeros((3, 5)))


def test_conv_forward_output_matches_input_image_shape():
    arch = ConvDensityArch(9, 7, (3, 2))
    params = init_params(arch, np.random.default_rng(0))
    out = forward(params, np.random.default_rng(1).standard_normal((4, 9, 7)))
    assert out.shape == (4, 9, 7)


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
    ],
    ids=["mlp-zero-width", "mlp-bool-input", "conv-zero-height", "conv-three-channels",
         "mlp-list-hidden"],
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
    target = forward(params, x)
    result = loss_and_grad(params, x, target, "pixelwise_l2")
    assert np.array_equal(result.per_sample_losses, np.zeros(2))
    assert result.mean_loss == 0.0
    assert np.array_equal(result.grad.flat, np.zeros_like(params.flat))


def test_per_sample_loss_additivity():
    rng = np.random.default_rng(7)
    params = mlp(num_classes=5)
    for _ in range(10):
        x = rng.standard_normal((17, 4))
        y = rng.integers(0, 5, 17)
        result = loss_and_grad(params, x, y, "cross_entropy")
        assert result.per_sample_losses.shape == (17,)
        assert (result.per_sample_losses >= 0).all()
        rel = abs(result.mean_loss - result.per_sample_losses.mean()) / max(result.mean_loss, 1e-300)
        assert rel < 1e-12


def test_loss_gradients_have_parameter_shapes():
    params = mlp()
    rng = np.random.default_rng(0)
    result = loss_and_grad(params, rng.standard_normal((3, 4)), np.array([0, 1, 2]), "cross_entropy")
    assert result.grad.arch == params.arch
    for g, w in zip(result.grad.weights, params.weights):
        assert g.shape == w.shape
    for g, b in zip(result.grad.biases, params.biases):
        assert g.shape == b.shape


def test_non_finite_loss_carries_offending_sample_id():
    params = mlp(num_classes=3)
    params.weights[0][0, 0] = np.inf
    x = np.ones((3, 4))
    with pytest.raises(NonFiniteError) as err:
        loss_and_grad(params, x, np.array([0, 1, 2]), "cross_entropy", sample_ids=[11, 22, 33])
    assert err.value.sample_id == 11


def test_cross_entropy_rejects_out_of_range_targets():
    params = mlp(num_classes=3)
    with pytest.raises(ShapeError, match="out of range"):
        loss_and_grad(params, np.zeros((2, 4)), np.array([0, 3]), "cross_entropy")


def test_per_sample_losses_match_loss_and_grad():
    rng = np.random.default_rng(5)
    params = mlp(num_classes=4)
    x = rng.standard_normal((9, 4))
    y = rng.integers(0, 4, 9)
    full = loss_and_grad(params, x, y, "cross_entropy")
    light = per_sample_losses(params, x, y, "cross_entropy")
    assert np.array_equal(full.per_sample_losses, light)


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


# Batch 100 on the 9x7 kernel-5 model spans two patch chunks of the first
# layer (25 patch rows: 83 images a chunk) and four of the second (75 rows:
# 27 images), so chunk seams are covered; batch 1 is a single partial chunk.
# One 48x48 image's second-layer patches (72 rows) exceed the shared buffer.
@pytest.mark.parametrize(
    "arch, batch",
    [
        (ConvDensityArch(9, 7, (3, 2), 5), 1),
        (ConvDensityArch(9, 7, (3, 2), 5), 100),
        (ConvDensityArch(7, 9, (3, 2), 3), 6),
        (ConvDensityArch(6, 6, (2, 2), 3), 4),
        (ConvDensityArch(48, 48, (8, 2), 3), 2),
    ],
    ids=["9x7-k5-batch1", "9x7-k5-multichunk", "7x9-k3", "6x6-k3", "48x48-oversized-patches"],
)
def test_conv_matches_nested_loop_reference(arch, batch):
    from tftb.nn.models import PATCH_BUFFER_FLOATS

    k, (c1, _) = arch.kernel_size, arch.channels
    per_image = arch.image_height * arch.image_width
    if batch == 100:
        assert batch > PATCH_BUFFER_FLOATS // (k * k * per_image)  # first layer
        assert batch > 2 * (PATCH_BUFFER_FLOATS // (c1 * k * k * per_image))  # second
    if per_image == 48 * 48:
        assert c1 * k * k * per_image > PATCH_BUFFER_FLOATS
    rng = np.random.default_rng(batch)
    params = init_params(arch, rng)
    for b in params.biases:
        b[:] = rng.standard_normal(b.shape) * 0.3
    x = rng.standard_normal((batch, arch.image_height, arch.image_width))
    targets = rng.standard_normal(x.shape)

    want_out, _ = reference_conv_model(params, x)
    assert rel_error(forward(params, x), want_out) < 1e-12

    result = loss_and_grad(params, x, targets, "pixelwise_l2")
    d_out = 2.0 * (want_out - targets) / want_out.size  # batch-mean pixelwise L2
    want_w, want_b = reference_conv_grads(params, x, d_out)
    for got, want in zip(result.grad.weights + result.grad.biases, want_w + want_b):
        assert got.shape == want.shape
        assert rel_error(got, want) < 1e-12


@pytest.mark.parametrize("batch", [64, 256])
def test_conv_step_memory_is_bounded_by_the_design(batch):
    """Peak traced memory of conv steps at 24x24, channels (6, 6), kernel 3.

    Counted in padded single-channel planes of the batch, ``batch * 26 * 26``
    floats (an unpadded plane is smaller), a step holds at most:

    * the cached layer inputs: the padded image (1 plane), the padded first
      activation (6) and the second activation (6): 13;
    * the density output and its loss gradient, plus the loss's own
      temporaries: 3;
    * in the backward pass, the second layer's output gradient, its padded
      copy for the input gradient and that input gradient: 18;
    * the two ReLU masks, bool, 6 / 8 of a plane each: 2;

    36 planes, so the bound is 40 planes (10% headroom for temporaries of
    the small weight gradients and Python objects) plus one patch buffer,
    which the first traced call may allocate.  A whole-batch patch matrix
    does not fit: the second layer's alone is 54 planes (6 channels x 3 x 3
    taps).
    """
    import tracemalloc

    from tftb.nn.models import PATCH_BUFFER_FLOATS

    arch = ConvDensityArch(24, 24, (6, 6))
    params = init_params(arch, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch, 24, 24))
    targets = rng.standard_normal((batch, 24, 24))
    plane_bytes = batch * 26 * 26 * 8
    bound = 40 * plane_bytes + 8 * PATCH_BUFFER_FLOATS
    tracemalloc.start()
    try:
        for _ in range(2):  # the second call reuses the first one's patch buffer
            result = loss_and_grad(params, x, targets, "pixelwise_l2")
            del result
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


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
    result = loss_and_grad(params, x, targets, loss_kind)

    def mean_loss():
        return float(per_sample_losses(params, x, targets, loss_kind).mean())

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
    state = init_adam_state(params)
    with pytest.raises(ConfigError):
        adam_step(params, ModelParams.zeros(params.arch), state, 0.0)


def test_training_steps_are_deterministic():
    def run():
        rng = np.random.default_rng(11)
        params = init_params(MlpArch(4, (6,), 3), np.random.default_rng(9))
        state = init_adam_state(params)
        for _ in range(12):
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, 8)
            res = loss_and_grad(params, x, y, "cross_entropy")
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
