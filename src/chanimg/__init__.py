"""chanimg: geometry-based stochastic channel modeling via channel images.

Multipath link records are encoded as 8x25 channel matrices (tile renders
one as the paper's 64x50 "channel image") through an invertible pipeline
(virtual-path padding, free-space re-referencing, Min-Max scaling), a
conditional generative model learns their distribution given (2D distance,
receiver height), and decoded samples are validated statistically against
the source data.
"""

from .core import (
    MAX_PATHS,
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    LinkTable,
    PathParams,
    closed_forms,
)
from .codec import ChannelImageCodec, FeatureScaler, fit_codec, tile
from .surrogate import SurrogateConfig, generate_dataset, train_test_split

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_PATHS",
    "PathParams",
    "LinkRecord",
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
