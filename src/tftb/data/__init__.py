from .cifar10 import load_cifar10
from .dataset import UNSTRATIFIED, Dataset, train_val_split
from .density import DotMap, density_map
from .synthetic import synth_classification, synth_counting

__all__ = [
    "UNSTRATIFIED",
    "Dataset",
    "DotMap",
    "density_map",
    "load_cifar10",
    "synth_classification",
    "synth_counting",
    "train_val_split",
]
