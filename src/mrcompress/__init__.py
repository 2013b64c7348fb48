"""Multi-resolution scientific volume compression.

Pipeline pieces: ROI-driven adaptive resolution (:mod:`mrcompress.roi`),
block merging and padding (:mod:`mrcompress.layout`), two error-bounded
codecs (:mod:`mrcompress.codec`), boundary post-processing
(:mod:`mrcompress.postprocess`), isosurface uncertainty fields
(:mod:`mrcompress.uncertainty`), and rate-distortion metrics
(:mod:`mrcompress.metrics`). The ``mrcompress`` command line stitches them
together over a single container file format.
"""

from . import codec, errors, grid, layout, roi
from .errors import (
    CoverageError,
    DataError,
    FormatError,
    MrcError,
    SamplingError,
    ShapeError,
)
from .grid import Volume, downsample2x, read_raw_volume, upsample2x, write_raw_volume
from .layout import MergedArray, linear_merge, pad_linear, stack_merge, unmerge, unpad

__version__ = "0.1.0"
