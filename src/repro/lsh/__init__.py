"""E2LSH: Euclidean locality-sensitive hashing (Datar et al., p-stable).

Two consumers in VisualPrint:

* The **uniqueness oracle** quantizes each descriptor into ``L`` bucket
  vectors of ``M`` projections each (width ``W``); those vectors feed the
  counting Bloom filters (see :mod:`repro.core.oracle`).
* The **server lookup table** is a conventional multi-table LSH index
  storing a 3D position per descriptor (:class:`repro.lsh.LshIndex`).

Multiprobe perturbation (Lv et al., VLDB'07) rescues descriptors that
land one quantization cell away from their training-time bucket.
"""

from repro.lsh.buckets import QuantizedBuckets
from repro.lsh.index import LshIndex
from repro.lsh.projections import E2LSHParams, StableProjections

__all__ = [
    "E2LSHParams",
    "LshIndex",
    "QuantizedBuckets",
    "StableProjections",
]
