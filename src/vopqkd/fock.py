"""Few-mode bosonic optics: a batched linear-optics kernel.

A network of 50:50 beam splitters and phase shifters on named modes
(`network_unitary`) is the matrix it applies to creation operators, and
`evolve_latents` evolves many input-port assignments through it at once,
as arrays over the occupation space of N photons on M modes, exact at
double precision. The protocol's engine and exact oracle run on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

# Protocol states never hold more than 4 photons in one mode (two two-photon
# sources at most); exceeding the cap means the optical network is miswired.
OCCUPANCY_CAP = 4
PRUNE_EPS = 1e-12
NORM_TOL = 1e-10


class ModeError(ValueError):
    """Unknown, duplicate, or otherwise misconfigured mode."""


class OccupancyError(ValueError):
    """A mode exceeded the photon occupancy cap."""


def _check_registry(registry: Sequence[str]) -> Tuple[str, ...]:
    reg = tuple(registry)
    if len(set(reg)) != len(reg):
        raise ModeError(f"duplicate mode labels in registry {reg}")
    return reg


# A network of beam splitters and phase shifters maps each creation operator
# linearly, a+_in -> sum_k U[k, in] a+_k (Scheel, quant-ph/0406127). An input
# of N photons on given ports is a product of N creation operators on the
# vacuum, so its output amplitudes over the occupation space of N photons on
# M modes follow from U alone, and many inputs evolve as one array.


class BeamSplitter(NamedTuple):
    """A 50:50 beam splitter with input ports `in1` and `in2`; its outputs
    reuse the two labels."""

    in1: str
    in2: str


class PhaseShift(NamedTuple):
    """A phase `phi` on every photon in `mode`."""

    mode: str
    phi: float


Gate = Union[BeamSplitter, PhaseShift]


def network_unitary(modes: Sequence[str], gates: Sequence[Gate]) -> np.ndarray:
    """The (M, M) matrix U of `gates` applied in order to `modes`: a creation
    operator on mode j leaves as sum_k U[k, j] a+_k.

    A beam splitter maps a+_in1 to (a+_in1 + a+_in2)/sqrt(2) and a+_in2 to
    (a+_in1 - a+_in2)/sqrt(2); its matrix is self-inverse. A phase shift
    maps a+_mode to exp(i phi) a+_mode, so k photons there gain exp(i k phi).
    """
    index = {mode: i for i, mode in enumerate(_check_registry(modes))}

    def position(mode: str) -> int:
        if mode not in index:
            raise ModeError(f"mode {mode!r} not in network {tuple(modes)}")
        return index[mode]

    # Row k of U, as plain lists: a network has a handful of modes and gates.
    rows = [[complex(i == j) for j in range(len(index))] for i in range(len(index))]
    for gate in gates:
        if isinstance(gate, BeamSplitter):
            i, j = position(gate.in1), position(gate.in2)
            if i == j:
                raise ModeError(f"beam splitter needs two distinct modes, got {gate.in1!r} twice")
            r = math.sqrt(2.0)
            rows[i], rows[j] = (
                [(a + b) / r for a, b in zip(rows[i], rows[j])],
                [(a - b) / r for a, b in zip(rows[i], rows[j])],
            )
        else:
            k = position(gate.mode)
            factor = complex(math.cos(gate.phi), math.sin(gate.phi))
            rows[k] = [a * factor for a in rows[k]]
    return np.array(rows)


def occupation_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """Each row of counts below `base` as one integer; integer order is the
    rows' lexicographic order."""
    return rows @ (base ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64))


@functools.lru_cache(maxsize=None)
def occupation_space(nmodes: int, photons: int) -> np.ndarray:
    """Every occupation of `photons` photons on `nmodes` modes, one row each,
    in lexicographic order. A constant of its arguments, built on first use."""
    combos = np.array(list(itertools.combinations_with_replacement(range(nmodes), photons)), dtype=np.int64)
    rows = (combos[:, :, None] == np.arange(nmodes)).sum(axis=1)
    rows = rows[np.argsort(occupation_codes(rows, photons + 1))]
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _creation_map(nmodes: int, photons: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A creation operator from `photons - 1` to `photons` photons as a
    gather: (source, mode, starts). Occupation t of the larger space
    receives sum v[source] * c[mode] over its terms, the terms of t being
    those from starts[t] up to the next start: a+_j brings t - e_j to t.
    The ladder factors sqrt(t_j) are left to `_ladder_norms`."""
    space = occupation_space(nmodes, photons)
    weights = occupation_codes(np.eye(nmodes, dtype=np.int64), photons + 1)
    target, mode = np.nonzero(space)  # row-major: grouped by target
    source = np.searchsorted(
        occupation_codes(occupation_space(nmodes, photons - 1), photons + 1),
        occupation_codes(space, photons + 1)[target] - weights[mode],
    )
    starts = np.flatnonzero(np.concatenate(([True], target[1:] != target[:-1])))
    return source, mode, starts


def _sqrt_factorials(counts: np.ndarray) -> np.ndarray:
    """sqrt(prod_j c_j!) for each row c of photon counts."""
    factorials = np.array([math.factorial(c) for c in range(counts.max(initial=0) + 1)], dtype=float)
    return np.sqrt(factorials[counts].prod(axis=1))


@functools.lru_cache(maxsize=None)
def _ladder_norms(nmodes: int, photons: int) -> np.ndarray:
    """`_sqrt_factorials` of each occupation t of the space: the product of
    the ladder factors sqrt(t_j) met on any path of creation operators from
    the vacuum to t."""
    return _sqrt_factorials(occupation_space(nmodes, photons))


def evolve_latents(unitary: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Output amplitudes of a network for a batch of inputs, shape (dim, L)
    over `occupation_space(M, N)`; real when the unitary is.

    Row l of `inputs` (L, N) holds the input mode of each of latent l's N
    photons; its input state is the product of their creation operators on
    the vacuum, normalized. Each photon applies a+_in -> sum_k U[k, in] a+_k
    to every latent at once.
    """
    inputs = np.asarray(inputs, dtype=np.intp)
    latents, photons = inputs.shape
    if not unitary.imag.any():
        unitary = unitary.real
    # One photon: occupation_space(M, 1) lists e_{M-1}, ..., e_0.
    amplitudes = unitary[::-1, inputs[:, 0]] if photons else np.ones((1, latents))
    for k in range(1, photons):
        source, mode, starts = _creation_map(len(unitary), k + 1)
        coefficients = unitary[:, inputs[:, k]]  # (M, L): where photon k goes, per latent
        amplitudes = np.add.reduceat(amplitudes[source] * coefficients[mode], starts, axis=0)
    # The product of creation operators has norm sqrt(prod_j c_j!) for
    # c_j photons entering on mode j.
    entering = (inputs[:, :, None] == np.arange(len(unitary))).sum(axis=1)
    return amplitudes * (_ladder_norms(len(unitary), photons)[:, None] / _sqrt_factorials(entering))
