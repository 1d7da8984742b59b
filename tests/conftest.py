import numpy as np
import pytest

from tftb.data.cifar10 import RECORD_BYTES


@pytest.fixture(scope="session")
def cifar_dir(tmp_path_factory):
    """Standard-layout directory of six valid zero-pixel CIFAR-10 batches."""
    directory = tmp_path_factory.mktemp("cifar10")
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        arr = np.full(10000 * RECORD_BYTES, 128, dtype=np.uint8)
        arr[::RECORD_BYTES] = 0  # valid label bytes
        arr.tofile(str(directory / name))
    return directory


# eight random records; the patterned fixture repeats them in turn
PATTERN_RECORDS = 8


@pytest.fixture(scope="session")
def patterned_cifar_dir(tmp_path_factory):
    """Six valid CIFAR-10 batches whose records cycle through
    ``PATTERN_RECORDS`` random ones; returns (directory, the pattern's pixel
    bytes, shape (PATTERN_RECORDS, 3072))."""
    directory = tmp_path_factory.mktemp("cifar10-patterned")
    rng = np.random.default_rng(12)
    records = rng.integers(0, 256, (PATTERN_RECORDS, RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = np.arange(PATTERN_RECORDS)  # valid label bytes
    block = np.tile(records, (10000 // PATTERN_RECORDS, 1))
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        block.tofile(str(directory / name))
    return directory, records[:, 1:]
