"""Keypoint detection and description (from-scratch SIFT).

The paper extracts SIFT keypoints with "OpenCV's default SIFT
implementation"; OpenCV is unavailable offline, so this package
implements Lowe's pipeline directly on numpy/scipy:

Gaussian scale space -> difference-of-Gaussians extrema -> low-contrast
and edge rejection -> orientation assignment from gradient histograms ->
128-D (4x4 spatial x 8 orientation) gradient descriptors, normalized,
clamped at 0.2, renormalized, and quantized to 0..255 integers exactly
like the descriptors VisualPrint hashes and ships.

:class:`HarrisDetector` provides a cheap corner detector (the paper
notes the pipeline is not SIFT-specific); only tests use it.
"""

from repro.features.binary import BriefDescriptor, HammingMatcher, hamming_distance
from repro.features.blur import BlurDetector, laplacian_variance
from repro.features.gaussian import DogPyramid, GaussianPyramid
from repro.features.harris import HarrisDetector, harris_response
from repro.features.keypoint import KeypointSet
from repro.features.serialize import (
    deserialize_keypoints,
    keypoint_record_bytes,
    serialize_keypoints,
)
from repro.features.sift import SiftExtractor, SiftParams

__all__ = [
    "BlurDetector",
    "BriefDescriptor",
    "DogPyramid",
    "GaussianPyramid",
    "HammingMatcher",
    "HarrisDetector",
    "KeypointSet",
    "SiftExtractor",
    "SiftParams",
    "deserialize_keypoints",
    "hamming_distance",
    "harris_response",
    "keypoint_record_bytes",
    "laplacian_variance",
    "serialize_keypoints",
]
