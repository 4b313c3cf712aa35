"""Deterministic utilities shared by every VisualPrint subsystem.

The reproduction is simulation-heavy, so every stochastic component draws
from an explicitly seeded :class:`numpy.random.Generator` obtained through
:func:`repro.util.rng.rng_for`.  That keeps experiments repeatable across
runs and across machines without any global seeding side effects.
"""

from repro.util.rng import derive_seed, rng_for, spawn_children
from repro.util.sizes import (
    GIB,
    KIB,
    MIB,
    format_bytes,
    gzip_size,
    ndarray_nbytes,
)
from repro.util.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
)

__all__ = [
    "GIB",
    "KIB",
    "MIB",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_shape",
    "derive_seed",
    "format_bytes",
    "gzip_size",
    "ndarray_nbytes",
    "rng_for",
    "spawn_children",
]
