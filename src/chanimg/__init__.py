"""chanimg: geometry-based stochastic channel modeling via channel images.

Multipath link records are encoded as 8x25 channel matrices (tile renders
one as the paper's 64x50 "channel image") through an invertible pipeline
(virtual-path padding, free-space re-referencing, Min-Max scaling), a
conditional generative model learns their distribution given (2D distance,
receiver height), and decoded samples are validated statistically against
the source data.

The codec and surrogate names are imported on first access (PEP 562), so
importing a submodule such as chanimg.cli loads only what it uses.

Importing chanimg before numpy runs BLAS on one thread: each of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS that is unset
becomes "1", and a value already set is kept.  Once numpy is loaded its
BLAS has read them, and chanimg sets none.

Importing chanimg also has the C library's malloc keep the memory that is
freed, where the library has mallopt (glibc does): blocks up to 32 MiB
come from its heap instead of their own mappings (M_MMAP_THRESHOLD), and
the heap is given back to the kernel only when 64 MiB lie free at its top
(M_TRIM_THRESHOLD).  numpy's arrays of a training step or of a block of
dataset text then reuse the memory that the previous ones freed, instead
of mapping fresh pages and faulting them in.  Every result is the same
either way.
"""

import ctypes
import importlib
import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")


def _keep_freed_memory():
    """Set malloc's mmap and trim thresholds (see the module doc), where there is mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()

from .core import (
    MAX_PATHS,
    SPEED_OF_LIGHT,
    LinkState,
    LinkTable,
    closed_forms,
)


def _lazy_exports(namespace: dict, exports: dict):
    """A module __getattr__ (PEP 562) that imports each export on first access.

    exports maps a name to (module, attribute), the module relative to the
    namespace's package.  The value is then kept in the namespace, where a
    caller may also replace it.
    """
    def __getattr__(name):
        if name in namespace:
            return namespace[name]
        try:
            module, attribute = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, namespace["__package__"]), attribute)
        namespace[name] = value
        return value
    return __getattr__


__getattr__ = _lazy_exports(globals(), {
    name: (module, name) for module, names in (
        (".codec", ("ChannelImageCodec", "FeatureScaler", "fit_codec", "tile")),
        (".surrogate", ("SurrogateConfig", "generate_dataset", "train_test_split")),
    ) for name in names})

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_PATHS",
    "LinkState",
    "LinkTable",
    "closed_forms",
    "SurrogateConfig",
    "generate_dataset",
    "train_test_split",
    "FeatureScaler",
    "ChannelImageCodec",
    "fit_codec",
    "tile",
    "__version__",
]
