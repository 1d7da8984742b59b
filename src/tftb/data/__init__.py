from .cifar10 import channel_stats, load_cifar10, read_batch_file
from .dataset import UNSTRATIFIED, Dataset, train_val_split
from .density import DotMap, density_map
from .synthetic import synth_classification, synth_counting

__all__ = [
    "UNSTRATIFIED",
    "Dataset",
    "DotMap",
    "channel_stats",
    "density_map",
    "load_cifar10",
    "read_batch_file",
    "synth_classification",
    "synth_counting",
    "train_val_split",
]
