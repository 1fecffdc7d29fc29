"""Skeleton action recognition with shift graph convolutions and a selective
state-space core, built on a small numpy autodiff engine.

SIMBA_THREADS caps BLAS worker threads; it must take effect before numpy
loads, hence the env propagation at the top of this module; it also sets how
many shards an evaluation batch splits into (``train.evaluate``).  On glibc the
import also sets the process's malloc mmap and trim thresholds and arena count
(below).
"""

import ctypes as _ctypes
import os as _os

_threads = _os.environ.get("SIMBA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

# keep freed arrays in glibc's heap: M_MMAP_THRESHOLD (-3) 32 MiB, its maximum; M_TRIM_THRESHOLD (-1) 1 GiB;
# M_ARENA_MAX (-8) 1, so the threads of a sharded eval batch share that heap instead of growing one each
try:
    _mallopt = _ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no mallopt in this C library
    _mallopt = None
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (_ctypes.c_int, _ctypes.c_int), _ctypes.c_int
    _mallopt(-3, 32 << 20)
    _mallopt(-1, 1 << 30)
    _mallopt(-8, 1)

from .config import PRESETS, TrainConfig  # noqa: E402
from .data import (  # noqa: E402
    Modality,
    SkeletonDataset,
    derive_modality,
    load_dataset,
    sample_window,
    save_dataset,
    synth_generate,
)
from .model import PartitionGate, SimbaModel, SimbaModule, flatten_vertices, unflatten_vertices  # noqa: E402
from .ssm import (  # noqa: E402
    IMambaBlock,
    lti_conv,
    lti_kernel,
    selective_scan_parallel,
    selective_scan_sequential,
    zoh_discretize,
)
from .shift_gcn import (  # noqa: E402
    ShiftUnit,
    spatial_shift,
    temporal_shift,
)
from .tensor import Tensor, no_grad  # noqa: E402
from .train import SGD, build_model, evaluate, fuse_scores, lr_at  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "IMambaBlock", "Modality", "PRESETS", "PartitionGate", "SGD", "ShiftUnit",
    "SimbaModel", "SimbaModule", "SkeletonDataset", "Tensor", "TrainConfig",
    "build_model", "derive_modality", "evaluate", "flatten_vertices",
    "fuse_scores", "load_dataset", "lr_at", "lti_conv", "lti_kernel", "no_grad",
    "sample_window", "save_dataset", "selective_scan_parallel",
    "selective_scan_sequential", "spatial_shift", "synth_generate",
    "temporal_shift", "unflatten_vertices", "zoh_discretize",
]
