"""Datasets: CIFAR-10 binary loader, synthetic generators, density maps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it, and is skipped without it
    hypothesis = None

from tftb.data import (
    UNSTRATIFIED,
    Dataset,
    DotMap,
    density_map,
    load_cifar10,
    synth_classification,
    synth_counting,
    train_val_split,
)
from tftb.data.cifar10 import RECORD_BYTES, STATS_CHUNK_RECORDS, _read_records, channel_stats
from tftb.errors import ConfigError, CorruptDataError, ShapeError
from tftb.experiments import ExperimentSpec, build_task
from tftb.trainer import TrainConfig

# ---------------------------------------------------------------------------
# CIFAR-10 binary format


def write_records(path, labels, pixel_byte=0):
    out = bytearray()
    for label in labels:
        out.append(label)
        out.extend([pixel_byte] * (RECORD_BYTES - 1))
    path.write_bytes(bytes(out))


def test_single_record_file_parses_label_and_pixel_bytes(tmp_path):
    path = tmp_path / "one.bin"
    write_records(path, [3], pixel_byte=255)
    records = _read_records(path)
    assert records.dtype == np.uint8
    assert records[:, 0].tolist() == [3]
    assert records.shape == (1, RECORD_BYTES)
    assert np.array_equal(records[:, 1:], np.full((1, 3072), 255))


def test_truncated_file_is_a_framing_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * (RECORD_BYTES * 4 - 1))
    with pytest.raises(CorruptDataError, match="not a whole number"):
        _read_records(path)


def test_label_byte_above_nine_reports_record_offset(tmp_path):
    path = tmp_path / "bad_label.bin"
    write_records(path, [1, 14, 2])
    with pytest.raises(CorruptDataError, match=rf"record 1 at byte offset {RECORD_BYTES}"):
        _read_records(path)


def test_read_records_is_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    blob = rng.integers(0, 256, RECORD_BYTES * 3, dtype=np.uint8)
    blob[::RECORD_BYTES] = rng.integers(0, 10, 3, dtype=np.uint8)
    path = tmp_path / "rand.bin"
    path.write_bytes(blob.tobytes())
    assert np.array_equal(_read_records(path), _read_records(path))


def test_load_cifar10_standard_layout_counts_and_normalization(cifar_dir):
    train, test = load_cifar10(cifar_dir)
    assert len(train) == 50000
    assert len(test) == 10000
    assert train.num_classes == 10
    assert train.feature_shape == (3072,)
    assert len(train.meta["channel_mean"]) == 3
    assert train.meta == test.meta
    assert sorted(train.ids) == list(range(50000))


def test_load_cifar10_peak_memory_is_bounded_by_three_train_splits(cifar_dir):
    """Peak traced allocation of a load is under 3x the float64 train pixels.

    By design the train pixels are converted to float64 once (1x) and
    normalised in place, and ``channel_stats``' std needs one temporary of
    the same size: a peak of about 2x.  The uint8 records (0.13x) are freed
    before that, and the test split (0.2x) is read after it.
    """
    tracemalloc.start()
    try:
        train, _ = load_cifar10(cifar_dir)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert train.features.nbytes == 50000 * 3072 * 8
    assert peak <= 3 * train.features.nbytes


def test_load_cifar10_peak_memory_stays_near_one_train_split(patterned_cifar_dir):
    """Peak traced allocation of a load is under 1.25x the float64 train
    pixels, and the channel stats match ``np.std`` within 1e-12 relative.

    The train pixels (1x) are the only train-sized array: ``channel_stats``
    sums squared deviations in chunks of a few MiB.  Besides them the peak
    holds the uint8 train records (0.13x) while they convert, or the test
    split (0.2x float64 plus its 0.03x records) while it loads.  Every train
    record is one of eight, each the same number of times, so the stats of
    the eight are the stats of the split.
    """
    directory, pattern = patterned_cifar_dir
    tracemalloc.start()
    try:
        train, _ = load_cifar10(directory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert train.features.nbytes == 50000 * 3072 * 8
    assert peak <= 1.25 * train.features.nbytes
    per_channel = pattern.reshape(-1, 3, 1024).astype(np.float64) / 255.0
    for key, want in (("channel_mean", per_channel.mean(axis=(0, 2))),
                      ("channel_std", per_channel.std(axis=(0, 2)))):
        assert np.allclose(train.meta[key], want, rtol=1e-12, atol=0.0), key


def test_load_cifar10_wrong_size_reports_expected_vs_actual(tmp_path):
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        np.zeros(10000 * RECORD_BYTES, dtype=np.uint8).tofile(str(tmp_path / name))
    (tmp_path / "data_batch_2.bin").write_bytes(b"\x00" * 1000)
    with pytest.raises(CorruptDataError, match=f"expected {10000 * RECORD_BYTES} bytes, got 1000"):
        load_cifar10(tmp_path)


def test_channel_stats_are_per_channel():
    pixels = np.zeros((4, 3072))
    pixels[:, :1024] = 0.25      # red
    pixels[:, 1024:2048] = 0.5   # green
    pixels[:, 2048:] = 0.75      # blue
    mean, std = channel_stats(pixels)
    assert np.allclose(mean, [0.25, 0.5, 0.75])
    assert np.array_equal(std, [1.0, 1.0, 1.0])  # zero spread guards to 1


def test_channel_stats_match_numpy_across_chunks():
    # three whole chunks and a partial one
    n = 3 * STATS_CHUNK_RECORDS + 5
    pixels = np.random.default_rng(4).uniform(0.0, 1.0, (n, 3072))
    pixels[:, 1024:2048] *= 0.5
    mean, std = channel_stats(pixels)
    per_channel = pixels.reshape(n, 3, 1024)
    assert np.array_equal(mean, per_channel.mean(axis=(0, 2)))
    assert np.allclose(std, per_channel.std(axis=(0, 2)), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# synthetic classification


def test_synth_classification_counts_per_class():
    ds = synth_classification(seed=0, n_per_class=100, num_classes=2, easy_fraction=0.5)
    assert len(ds) == 200
    classes, sizes = np.unique(ds.targets, return_counts=True)
    assert dict(zip(classes.tolist(), sizes.tolist())) == {0: 100, 1: 100}
    assert sorted(ds.ids) == list(range(200))


def test_synth_classification_all_easy_lies_within_one_cluster_scale():
    ds = synth_classification(seed=3, n_per_class=80, num_classes=3, easy_fraction=1.0)
    angles = 2 * np.pi * np.arange(3) / 3
    centroids = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for features, label in zip(ds.features, ds.targets):
        center = np.concatenate([centroids[label], np.zeros(2)])
        assert np.linalg.norm(features - center) <= 1.0


def test_synth_classification_same_seed_is_byte_identical():
    a = synth_classification(seed=9, n_per_class=50, num_classes=4, easy_fraction=0.6)
    b = synth_classification(seed=9, n_per_class=50, num_classes=4, easy_fraction=0.6)
    assert len(a) == len(b)
    assert np.array_equal(a.ids, b.ids) and np.array_equal(a.targets, b.targets)
    assert a.features.tobytes() == b.features.tobytes()


def test_synth_classification_validates_parameters():
    with pytest.raises(ConfigError):
        synth_classification(seed=0, n_per_class=10, num_classes=1, easy_fraction=0.5)
    with pytest.raises(ConfigError):
        synth_classification(seed=0, n_per_class=10, num_classes=2, easy_fraction=1.5)


# ---------------------------------------------------------------------------
# density maps


def test_empty_dot_map_gives_all_zero_density():
    out = density_map(DotMap(20, 16, ()), sigma=3.0)
    assert out.shape == (16, 20)
    assert np.array_equal(out, np.zeros((16, 20)))


def test_single_centered_point_has_unit_mass_and_argmax_at_point():
    for sigma in (0.5, 2.0, 7.0):
        out = density_map(DotMap(17, 17, ((8.0, 8.0),)), sigma=sigma)
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.unravel_index(np.argmax(out), out.shape) == (8, 8)


def test_density_matches_brute_force_pixel_loop_oracle():
    rng = np.random.default_rng(5)
    w, h, sigma = 21, 18, 10.0
    points = tuple((float(rng.uniform(0, w)), float(rng.uniform(0, h))) for _ in range(7))
    got = density_map(DotMap(w, h, points), sigma)
    assert abs(got.sum() - 7.0) <= 1e-6

    # independent dense double-loop evaluation
    want = np.zeros((h, w))
    for px, py in points:
        kernel = np.zeros((h, w))
        for y in range(h):
            for x in range(w):
                kernel[y, x] = math.exp(-((x - px) ** 2 + (y - py) ** 2) / (2 * sigma * sigma))
        want += kernel / kernel.sum()
    assert np.max(np.abs(got - want)) < 1e-9


def test_out_of_bounds_point_names_the_point():
    with pytest.raises(ConfigError, match=r"\(25.0, 3.0\)"):
        DotMap(20, 16, ((25.0, 3.0),))


def test_density_map_rejects_nonpositive_sigma():
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="sigma must be positive and finite"):
            density_map(DotMap(16, 16, ()), sigma=sigma)


# ---------------------------------------------------------------------------
# synthetic counting


def test_synth_counting_bookkeeping_and_mass():
    ds = synth_counting(seed=1, n_images=50, image_size=16, max_objects=5, sigma=2.0)
    assert len(ds) == 50
    assert list(ds.class_rows) == [UNSTRATIFIED]
    for target in ds.targets:
        count = round(float(target.sum()))
        assert abs(target.sum() - count) <= 1e-6
        assert 0 <= count <= 5


def test_synth_counting_same_seed_identical():
    a = synth_counting(seed=4, n_images=10, image_size=16, max_objects=4, sigma=2.0)
    b = synth_counting(seed=4, n_images=10, image_size=16, max_objects=4, sigma=2.0)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()


def test_synth_counting_validates_parameters():
    with pytest.raises(ConfigError):
        synth_counting(seed=0, n_images=5, image_size=8, max_objects=3, sigma=2.0)
    with pytest.raises(ConfigError):
        synth_counting(seed=0, n_images=5, image_size=16, max_objects=0, sigma=2.0)


_CLASSIFY = dict(seed=0, n_per_class=3, num_classes=2, easy_fraction=0.5, feature_dim=4)
_COUNT = dict(seed=0, n_images=2, image_size=16, max_objects=3, sigma=2.0)


@pytest.mark.parametrize(
    "generator, defaults, name, value",
    [
        (synth_classification, _CLASSIFY, "n_per_class", 2.5),
        (synth_classification, _CLASSIFY, "n_per_class", True),
        (synth_classification, _CLASSIFY, "num_classes", 2.0),
        (synth_classification, _CLASSIFY, "feature_dim", 4.5),
        (synth_classification, _CLASSIFY, "feature_dim", "4"),
        (synth_counting, _COUNT, "image_size", 16.5),
        (synth_counting, _COUNT, "n_images", 2.5),
        (synth_counting, _COUNT, "max_objects", 2.5),
        (synth_counting, _COUNT, "max_objects", np.bool_(True)),
    ],
    ids=["n_per_class-2.5", "n_per_class-True", "num_classes-2.0", "feature_dim-4.5",
         "feature_dim-str", "image_size-16.5", "n_images-2.5", "max_objects-2.5",
         "max_objects-np.True_"],
)
def test_generators_refuse_sizes_that_are_not_ints(generator, defaults, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an int, got {value!r}"):
        generator(**{**defaults, name: value})


def test_generators_accept_numpy_integer_sizes():
    want = synth_classification(**_CLASSIFY)
    got = synth_classification(seed=0, n_per_class=np.int64(3), num_classes=np.int32(2),
                               easy_fraction=0.5, feature_dim=np.uint8(4))
    assert got.features.tobytes() == want.features.tobytes()
    want = synth_counting(**_COUNT)
    got = synth_counting(seed=0, n_images=np.int64(2), image_size=np.int16(16),
                         max_objects=np.int64(3), sigma=2.0)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.targets.tobytes() == want.targets.tobytes()


# ---------------------------------------------------------------------------
# per-sample reference generators: the generators as they were written before
# they drew in bulk, one sample, point and blob at a time.  The array
# generators must give the same bytes.


def reference_synth_classification(seed, n_per_class, num_classes, easy_fraction, feature_dim):
    """Features of ``synth_classification``, one sample at a time."""

    def unit_disk(rng, radius):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        r = radius * np.sqrt(rng.uniform(0.0, 1.0))
        return np.array([r * np.cos(angle), r * np.sin(angle)])

    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centroids = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    n_easy = int(round(easy_fraction * n_per_class))
    n_extra = feature_dim - 2
    features = np.empty((num_classes * n_per_class, feature_dim))
    for c in range(num_classes):
        easy, hard = np.split(features[c * n_per_class : (c + 1) * n_per_class], [n_easy])
        center = centroids[c]
        n_proto = max(1, n_easy // 8) if n_easy else 0
        protos = [center + unit_disk(rng, 0.45) for _ in range(n_proto)]
        for i in range(n_easy):
            easy[i, :2] = protos[i % n_proto] + unit_disk(rng, 0.15)
            easy[i, 2:] = rng.uniform(-0.15, 0.15, size=n_extra)
        for i in range(n_per_class - n_easy):
            neighbour_class = (c + (1 if i % 2 == 0 else -1)) % num_classes
            lo, hi = min(c, neighbour_class), max(c, neighbour_class)
            midpoint = 0.5 * (centroids[lo] + centroids[hi])
            axis = centroids[hi] - centroids[lo]
            axis = axis / np.linalg.norm(axis)
            perp = np.array([-axis[1], axis[0]])
            t = rng.uniform(0.0, np.pi)
            if c == lo:
                local = np.array([np.cos(t), np.sin(t)])
            else:
                local = np.array([1.0 - np.cos(t), 0.5 - np.sin(t)])
            local -= np.array([0.5, 0.125])
            hard[i, :2] = (
                midpoint
                + 0.9 * (local[0] * axis + local[1] * perp)
                + rng.normal(0.0, 0.13, size=2)
            )
            hard[i, 2:] = rng.normal(0.0, 0.30, size=n_extra)
    return features


def reference_density_map(width, height, points, sigma):
    """``density_map`` one kernel at a time."""
    out = np.zeros((height, width))
    ys = np.arange(height, dtype=np.float64)
    xs = np.arange(width, dtype=np.float64)
    inv = 1.0 / (2.0 * sigma * sigma)
    for px, py in points:
        gy = np.exp(-((ys - py) ** 2) * inv)
        gx = np.exp(-((xs - px) ** 2) * inv)
        kernel = np.outer(gy, gx)
        out += kernel / kernel.sum()
    return out


def reference_synth_counting(seed, n_images, image_size, max_objects, sigma):
    """(images, maps) of ``synth_counting``, one point and one blob at a time."""
    rng = np.random.default_rng(seed)
    images = np.empty((n_images, image_size, image_size))
    maps = np.empty((n_images, image_size, image_size))
    inv = 1.0 / (2.0 * 1.2 * 1.2)
    for i in range(n_images):
        count = int(rng.integers(0, max_objects + 1))
        points = tuple(
            (float(rng.uniform(0.0, image_size)), float(rng.uniform(0.0, image_size)))
            for _ in range(count)
        )
        maps[i] = reference_density_map(image_size, image_size, points, sigma)
        images[i] = rng.uniform(0.0, 0.05, size=(image_size, image_size))
        for x, y in points:
            gy = np.exp(-((np.arange(image_size) - y) ** 2) * inv)
            gx = np.exp(-((np.arange(image_size) - x) ** 2) * inv)
            images[i] += np.outer(gy, gx)
    return images, maps


@pytest.mark.parametrize(
    "seed, n_per_class, num_classes, easy_fraction, feature_dim",
    [
        (0, 1, 2, 0.5, 2),        # one sample per class, no nuisance columns
        (1, 7, 2, 0.0, 4),        # all hard, odd count, both neighbours one class
        (2, 9, 3, 1.0, 3),        # all easy, odd count
        (5, 33, 8, 0.6, 8),       # the equal-budget shape: 8 classes, six nuisance columns
        (9, 50, 4, 0.5, 2),
        (100001, 12500, 4, 0.6, 4),  # the select-heavy train shape
    ],
    ids=["one-per-class", "all-hard-2-classes", "all-easy", "8-classes-dim-8", "dim-2",
         "select-heavy"],
)
def test_synth_classification_is_byte_equal_to_the_per_sample_reference(
    seed, n_per_class, num_classes, easy_fraction, feature_dim
):
    ds = synth_classification(seed, n_per_class, num_classes, easy_fraction, feature_dim)
    want = reference_synth_classification(
        seed, n_per_class, num_classes, easy_fraction, feature_dim)
    assert ds.features.tobytes() == want.tobytes()
    assert np.array_equal(ds.targets, np.repeat(np.arange(num_classes), n_per_class))


def test_synth_classification_is_byte_equal_to_the_reference_over_a_grid():
    grid = itertools.product((0, 7), (1, 2, 3, 10), (2, 3, 5), (0.0, 0.5, 0.6, 1.0), (2, 5))
    for case in grid:
        got = synth_classification(*case).features
        assert got.tobytes() == reference_synth_classification(*case).tobytes(), case


def test_density_map_is_byte_equal_to_the_per_kernel_reference():
    rng = np.random.default_rng(11)
    # 100 x 90 pixels: a kernel sum longer than numpy's 8192-element buffer
    for width, height in ((5, 3), (21, 18), (24, 24), (100, 90)):
        for count in (0, 1, 2, 7):
            points = tuple(
                (float(rng.uniform(0, width)), float(rng.uniform(0, height)))
                for _ in range(count))
            for sigma in (0.5, 4.0):
                got = density_map(DotMap(width, height, points), sigma)
                want = reference_density_map(width, height, points, sigma)
                assert got.tobytes() == want.tobytes(), (width, height, count, sigma)
    # integer pixel coordinates convert exactly as the reference's arithmetic does
    points = ((0, 0), (3, 7), (15, 15))
    assert (density_map(DotMap(16, 16, points), 2.0).tobytes()
            == reference_density_map(16, 16, points, 2.0).tobytes())


@pytest.mark.parametrize(
    "seed, n_images, image_size, max_objects, sigma",
    [
        (6, 40, 16, 1, 2.0),      # counts 0 and max_objects only
        (3, 30, 19, 4, 0.7),
        (1, 1333, 24, 6, 4.0),    # the conv-heavy train shape
    ],
    ids=["max-objects-1", "odd-size", "conv-heavy"],
)
def test_synth_counting_is_byte_equal_to_the_per_point_reference(
    seed, n_images, image_size, max_objects, sigma
):
    ds = synth_counting(seed, n_images, image_size, max_objects, sigma)
    images, maps = reference_synth_counting(seed, n_images, image_size, max_objects, sigma)
    counts = np.round(maps.sum(axis=(1, 2))).astype(int)
    assert counts.min() == 0 and counts.max() == max_objects
    assert ds.features.tobytes() == images.tobytes()
    assert ds.targets.tobytes() == maps.tobytes()


@pytest.mark.parametrize(
    "seed, n_images, image_size, max_objects, sigma, counts",
    [
        (3, 1, 21, 5, 1.5, [4]),               # one image
        (214, 6, 16, 1, 2.0, [0] * 6),         # no image has an object
        (2, 5, 130, 3, 3.0, [3, 1, 3, 3, 3]),  # a kernel is larger than a block: one a block
    ],
    ids=["one-image", "all-empty", "size-130"],
)
def test_synth_counting_edge_shapes_are_byte_equal_to_the_reference(
    seed, n_images, image_size, max_objects, sigma, counts
):
    ds = synth_counting(seed, n_images, image_size, max_objects, sigma)
    images, maps = reference_synth_counting(seed, n_images, image_size, max_objects, sigma)
    assert np.round(maps.sum(axis=(1, 2))).tolist() == counts
    assert ds.features.tobytes() == images.tobytes()
    assert ds.targets.tobytes() == maps.tobytes()


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_synth_counting_is_byte_equal_to_the_reference_for_any_shape():
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n_images=st.integers(1, 40),
        image_size=st.integers(16, 40),
        max_objects=st.integers(1, 8),
        sigma=st.floats(0.5, 4.0),
    )
    def check(seed, n_images, image_size, max_objects, sigma):
        ds = synth_counting(seed, n_images, image_size, max_objects, sigma)
        images, maps = reference_synth_counting(seed, n_images, image_size, max_objects, sigma)
        assert ds.features.tobytes() == images.tobytes()
        assert ds.targets.tobytes() == maps.tobytes()

    check()


def test_synth_counting_peak_memory_is_bounded_per_block():
    """Traced peak of the conv-heavy train build, less its images and maps,
    is under 1 MiB.

    On top of the two outputs sit the drawn points and counts (about 0.13
    MiB) and one block of kernels at a time, each temporary under 128 KiB.
    Blocks of 256 points would take about 2.5 MiB.  A first small build
    imports what the generator imports on first use (``numpy.random`` is
    imported lazily), which is no part of the build's own memory.
    """
    synth_counting(0, 1, 16, 1, 1.0)
    tracemalloc.start()
    try:
        ds = synth_counting(1, 1333, 24, 6, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ds.features.nbytes - ds.targets.nbytes < 2**20


def test_synth_classification_peak_memory_is_bounded_per_class():
    """Traced peak of a select-heavy-sized build is under 3x its features.

    The features (1x) and the int64 ids and labels (0.5x) are the floor; the
    draws and geometry temporaries of one class at a time sit on top of them
    (about 0.5x).  A build that drew every class at once would pass 3x.
    """
    tracemalloc.start()
    try:
        ds = synth_classification(1, 12500, 4, 0.6, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.nbytes == 50000 * 4 * 8
    assert peak < 3 * ds.features.nbytes


# ---------------------------------------------------------------------------
# dataset invariants, split


@pytest.mark.parametrize(
    "ids, features, targets, error, message",
    [
        # rows given one per sample, as a record list would hold them
        ([1, 1], [np.zeros(3), np.zeros(3)], [0, 0], ConfigError, "duplicate"),
        ([1, 2], [np.zeros(3), np.zeros(4)], [0, 0], ShapeError, "mixed"),
        ([1, 2, 3], np.zeros((2, 3)), [0, 0], ShapeError, r"3 ids but features of shape \(2, 3\)"),
        ([1, 2], np.zeros((2, 3)), [0, 0, 1], ShapeError, r"2 ids but targets of shape \(3,\)"),
        ([[1, 2]], np.zeros((1, 3)), [0], ShapeError, "ids must be one-dimensional"),
        ([4, -2], np.zeros((2, 3)), [0, 1], ConfigError, "negative sample id -2"),
        ([1, 2], np.zeros((2, 3)), [0, 2], ConfigError, r"sample 2 label 2 outside \[0, 2\)"),
        ([1, 2], np.zeros((2, 3)), [-1, 0], ConfigError, r"sample 1 label -1 outside \[0, 2\)"),
        ([1, 2], np.zeros((2, 3)), [[0, 1], [1, 0]], ShapeError, "one class label per sample"),
        ([1.0, 2.5], np.zeros((2, 3)), [0, 1], ConfigError, "ids must be integers"),
    ],
    ids=["duplicate-ids", "mixed-feature-shapes", "features-length", "targets-length",
         "2d-ids", "negative-id", "label-too-large", "label-negative", "2d-labels", "float-ids"],
)
def test_dataset_rejects_malformed_arrays(ids, features, targets, error, message):
    with pytest.raises(error, match=message):
        Dataset(ids, features, targets, num_classes=2, split_tag="t")


def test_dataset_stores_rows_in_ascending_id_order():
    rng = np.random.default_rng(0)
    ids = rng.permutation(50) * 3
    features = rng.standard_normal((50, 4))
    labels = rng.integers(0, 3, 50)
    ds = Dataset(ids, features, labels, num_classes=3, split_tag="t")
    order = np.argsort(ids)
    assert np.array_equal(ds.ids, ids[order])
    assert np.array_equal(ds.features, features[order])
    assert np.array_equal(ds.targets, labels[order])
    assert all(
        np.array_equal(rows, np.flatnonzero(labels[order] == c)) for c, rows in ds.class_rows.items()
    )


def test_class_rows_groups_each_present_class_once():
    """Shuffled ids, interleaved labels and an empty class: each class
    present has its rows in ascending order, the empty class has no group,
    and the grouping is made once."""
    rng = np.random.default_rng(5)
    ids = rng.permutation(40) * 2 + 1
    labels = np.array([0, 3, 1, 3] * 10)  # class 2 has no rows
    ds = Dataset(ids, np.zeros((40, 1)), labels, num_classes=4, split_tag="t")
    groups = ds.class_rows
    assert list(groups) == [0, 1, 3]
    for c, rows in groups.items():
        assert np.array_equal(rows, np.flatnonzero(ds.targets == c))
        assert (np.diff(rows) > 0).all() and not rows.flags.writeable
    assert sum(rows.size for rows in groups.values()) == len(ds)
    assert ds.class_rows is groups


def test_class_rows_of_density_maps_is_one_group():
    ds = synth_counting(seed=2, n_images=9, image_size=16, max_objects=3, sigma=1.0)
    assert list(ds.class_rows) == [UNSTRATIFIED]
    assert np.array_equal(ds.class_rows[UNSTRATIFIED], np.arange(9))
    assert not ds.class_rows[UNSTRATIFIED].flags.writeable


def test_train_val_split_is_disjoint_and_seeded():
    ds = synth_classification(seed=2, n_per_class=60, num_classes=3, easy_fraction=0.5)
    train, val = train_val_split(ds, 0.1, seed=7)
    train2, val2 = train_val_split(ds, 0.1, seed=7)
    assert set(train.ids).isdisjoint(val.ids)
    assert set(train.ids) | set(val.ids) == set(ds.ids)
    assert len(val) == round(0.1 * len(ds))
    assert np.array_equal(train.ids, train2.ids) and np.array_equal(val.ids, val2.ids)
    assert not np.array_equal(train_val_split(ds, 0.1, seed=8)[1].ids, val.ids)


def test_fingerprint_distinguishes_data_and_is_stable():
    a = synth_classification(seed=2, n_per_class=30, num_classes=2, easy_fraction=0.5)
    b = synth_classification(seed=3, n_per_class=30, num_classes=2, easy_fraction=0.5)
    assert a.fingerprint() == a.fingerprint()
    assert a.fingerprint() != b.fingerprint()


# digests of the record-list Dataset: a manifest written before the move to
# struct-of-arrays storage must carry the same fingerprints after it
_GOLDEN_FINGERPRINTS = {
    "classify-30": "62818f2e5f6a363207e940623e648af01d4f12bdc32d2aef5cb552fd449e0bdd",
    "classify-30/train": "0076af65be17a55fc014e3b50f8f5dd23b3acd95605e475819d2c6630e4209fb",
    "classify-30/val": "7e0a62d9c675d9a816d0d815ffb6f69931b1debf355de71440ba126fc2aa1762",
    "count-12": "ce7993ab83c3322ef9cb0a9fb0a50a151f88a15b5801fcdab7c5d37c29a3f37b",
    "count-12/train": "ce37e268519f23e6f957cff6af20d57862366c5402484dab705afb1d75490f46",
    "count-12/val": "8b1145fa8853b0d96f62ba8412f4d0255ff52ca406d447c8bdd8e7814189ae2c",
    "classify-150": "cece0eb4d97d4b77a2fc20c261b8aceaba410fc442894a599c1b289972f850b0",
    "count-130": "9b40ab9d4877775d322e09f7a3f6d2ab6615f7445e2c7c99155d6e26aa736beb",
    # build_task of the conv-heavy benchmark spec at seed 1: the generator,
    # the split and the test set's seed offset together
    "conv-heavy/train": "f7c0993f93922b98c064627a208cc0a75774039074332c2354812a01984da664",
    "conv-heavy/val": "ed4c422e31af0c2fcae8439ee88562bb0a86ba09025db493bf6d9d7fb3caa26f",
    "conv-heavy/test": "c6090f9c25d2049f21f0648ec3f75b702278e3e1f075d92f59d6adfeb799b75d",
}


def _golden_dataset(name):
    base, _, part = name.partition("/")
    if base == "conv-heavy":
        spec = ExperimentSpec(task="count-synth", n_images=1333, n_test_images=400,
                              conv_channels=(6, 6), config=TrainConfig(seed=1))
        train, val, test = build_task(spec)[:3]
        return {"train": train, "val": val, "test": test}[part]
    ds = {
        "classify-30": lambda: synth_classification(
            seed=5, n_per_class=10, num_classes=3, easy_fraction=0.5),
        "count-12": lambda: synth_counting(
            seed=6, n_images=12, image_size=16, max_objects=3, sigma=2.0),
        # >= 128 rows: the fingerprint hashes every second row
        "classify-150": lambda: synth_classification(
            seed=7, n_per_class=50, num_classes=3, easy_fraction=0.6),
        "count-130": lambda: synth_counting(
            seed=8, n_images=130, image_size=16, max_objects=2, sigma=2.0),
    }[base]()
    if part:
        train, val = train_val_split(ds, 0.25, seed=1)
        ds = train if part == "train" else val
    return ds


@pytest.mark.parametrize("name", sorted(_GOLDEN_FINGERPRINTS))
def test_fingerprint_matches_golden_digest(name):
    assert _golden_dataset(name).fingerprint() == _GOLDEN_FINGERPRINTS[name]
