"""Test-only oracles: the angular solver's objective and DE before in-place ops.

The library scores each differential-evolution generation with in-place
ufuncs and runs the DE stop test on ``np.add.reduce``/``np.square``/
``np.sqrt`` directly.  This module keeps the versions they replaced —
``np.clip``, ``np.std``/``np.mean`` and a fresh array per step — so
``tests/test_localization.py`` can patch them into
:meth:`repro.localization.AngularLocalizer.solve` and check that the
poses are bit-identical.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.localization.solver import _DE_CROSSOVER, _DE_DITHER, _DE_TOLERANCE

__all__ = [
    "angular_residuals_reference",
    "differential_evolution_reference",
    "soft_l1_cost_reference",
]


def angular_residuals_reference(
    positions: np.ndarray,
    points_i: np.ndarray,
    points_j: np.ndarray,
    perceived: np.ndarray,
) -> np.ndarray:
    """Angle residuals, shape (S, pairs), at each of ``S`` candidate positions.

    Row *s*, column *k* is the angle that ``points_i[k]`` and
    ``points_j[k]`` subtend at ``positions[s]`` minus ``perceived[k]``.
    """
    # Coordinate-major (3, S, pairs) offsets: with xyz as the innermost
    # axis every elementwise op runs a length-3 inner loop, ~2x slower.
    origin = np.ascontiguousarray(positions.T)[:, :, None]
    to_i = np.ascontiguousarray(points_i.T)[:, None, :] - origin
    to_j = np.ascontiguousarray(points_j.T)[:, None, :] - origin
    dot = np.einsum("ksp,ksp->sp", to_i, to_j)
    norm_i = np.sqrt(np.einsum("ksp,ksp->sp", to_i, to_i))
    norm_j = np.sqrt(np.einsum("ksp,ksp->sp", to_j, to_j))
    safe = np.maximum(norm_i * norm_j, 1e-9)
    return np.arccos(np.clip(dot / safe, -1.0, 1.0)) - perceived


def soft_l1_cost_reference(residuals: np.ndarray) -> np.ndarray:
    """Soft-L1 sum of each row; keeps stray wrong matches from dominating."""
    return np.sum(2.0 * (np.sqrt(1.0 + residuals**2) - 1.0), axis=-1)


def differential_evolution_reference(
    cost: Callable[[np.ndarray], np.ndarray],
    low: np.ndarray,
    high: np.ndarray,
    popsize: int,
    max_generations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Minimise ``cost`` over the box; returns (best point, converged).

    ``cost`` maps an (S, dim) array of points to S energies.  Individuals
    live in the unit cube and are scaled to the box only to be scored.
    """
    dim = low.size
    count = popsize * dim
    span = high - low
    rows = np.arange(count)
    # Latin hypercube: one sample per stratum, strata shuffled per gene.
    strata = (rng.uniform(size=(count, dim)) + rows[:, None]) / count
    members = np.take_along_axis(
        strata, np.argsort(rng.uniform(size=(count, dim)), axis=0), axis=0
    )
    energies = cost(low + members * span)
    converged = False
    for _ in range(max_generations):
        best = members[np.argmin(energies)]
        scale = rng.uniform(*_DE_DITHER)
        # Two distinct donors per individual, neither being the individual.
        donor_a = rng.integers(count - 1, size=count)
        donor_a += donor_a >= rows
        donor_b = rng.integers(count - 2, size=count)
        donor_b += donor_b >= np.minimum(rows, donor_a)
        donor_b += donor_b >= np.maximum(rows, donor_a)
        mutant = best + scale * (members[donor_a] - members[donor_b])
        crossover = rng.uniform(size=(count, dim)) < _DE_CROSSOVER
        crossover[rows, rng.integers(dim, size=count)] = True
        trial = np.where(crossover, mutant, members)
        outside = (trial < 0.0) | (trial > 1.0)
        trial[outside] = rng.uniform(size=np.count_nonzero(outside))
        trial_energies = cost(low + trial * span)
        accepted = trial_energies <= energies
        members[accepted] = trial[accepted]
        energies[accepted] = trial_energies[accepted]
        if np.std(energies) <= _DE_TOLERANCE * abs(np.mean(energies)):
            converged = True
            break
    # Clipped: low + 1.0 * span can overshoot high by an ulp, and
    # least_squares rejects a start outside its bounds.
    best = np.clip(low + members[np.argmin(energies)] * span, low, high)
    return best, converged
