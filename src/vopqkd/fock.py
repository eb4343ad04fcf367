"""Few-mode bosonic optics: a batched linear-optics kernel and the sparse
state algebra it is checked against.

The kernel (`network_unitary`, `evolve_latents`) describes a network of
50:50 beam splitters and phase shifters as the matrix it applies to
creation operators and evolves many input-port assignments at once, as
arrays over the occupation space of N photons on M modes. The protocol's
engine and exact oracle run on it.

The sparse algebra (`FockState` and its gates) stores a state as a map from
photon occupation tuples to complex amplitudes on a fixed, ordered registry
of named modes and applies one gate at a time. It is the documented
reference the kernel is tested against. Both are exact at double precision.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Sequence, Tuple, Union

import numpy as np

Occupation = Tuple[int, ...]

# Protocol states never hold more than 4 photons in one mode (two two-photon
# sources at most); exceeding the cap means the optical network is miswired.
OCCUPANCY_CAP = 4
PRUNE_EPS = 1e-12
NORM_TOL = 1e-10

_FACT = [math.factorial(k) for k in range(2 * OCCUPANCY_CAP + 1)]
_SQRT_FACT = [math.sqrt(f) for f in _FACT]


def _beam_splitter_terms(n1: int, n2: int) -> Tuple[float, Tuple[Tuple[int, int, float], ...]]:
    """(divisor, [(p, q, coefficient)]): n1 photons on in1 and n2 on in2 leave
    as p and q with amplitude coefficient / divisor. The binomial expansion of
    the transformed creation-operator monomials, with exact bosonic
    normalization (sqrt(n+1) ladder factors)."""
    divisor = math.sqrt(_FACT[n1] * _FACT[n2] * 2.0 ** (n1 + n2))
    terms = []
    for j in range(n1 + 1):
        cj = math.comb(n1, j)
        for k in range(n2 + 1):
            p = j + k
            q = (n1 - j) + (n2 - k)
            coeff = cj * math.comb(n2, k) * _SQRT_FACT[p] * _SQRT_FACT[q]
            if (n2 - k) % 2:
                coeff = -coeff
            terms.append((p, q, coeff))
    return divisor, tuple(terms)


# Every photon pair (n1, n2) a beam splitter accepts, expanded once.
_BEAM_SPLITTER_TERMS = {
    (n1, n2): _beam_splitter_terms(n1, n2)
    for n1 in range(OCCUPANCY_CAP + 1)
    for n2 in range(OCCUPANCY_CAP + 1 - n1)
}


class ModeError(ValueError):
    """Unknown, duplicate, or otherwise misconfigured mode."""


class OccupancyError(ValueError):
    """A mode exceeded the photon occupancy cap."""


def _check_registry(registry: Sequence[str]) -> Tuple[str, ...]:
    reg = tuple(registry)
    if len(set(reg)) != len(reg):
        raise ModeError(f"duplicate mode labels in registry {reg}")
    return reg


@dataclass(frozen=True)
class FockState:
    """Sparse pure state over a fixed mode registry.

    amplitudes maps occupation tuples (aligned with `registry`) to complex
    amplitudes. Entries below PRUNE_EPS in modulus are kept out of the map.
    """

    registry: Tuple[str, ...]
    amplitudes: Dict[Occupation, complex]

    def __post_init__(self):
        object.__setattr__(self, "registry", _check_registry(self.registry))
        nmodes = len(self.registry)
        for occ in self.amplitudes:
            if len(occ) != nmodes:
                raise ModeError(f"occupation {occ} does not match registry size {nmodes}")
            if any(c < 0 for c in occ):
                raise OccupancyError(f"negative count in {occ}")
            if any(c > OCCUPANCY_CAP for c in occ):
                raise OccupancyError(f"occupation {occ} exceeds cap {OCCUPANCY_CAP}")

    def index(self, mode: str) -> int:
        try:
            return self.registry.index(mode)
        except ValueError:
            raise ModeError(f"mode {mode!r} not in registry {self.registry}") from None

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, occ: Occupation) -> complex:
        return self.amplitudes.get(tuple(occ), 0.0 + 0.0j)


def _unchecked(registry: Tuple[str, ...], amplitudes: Dict[Occupation, complex]) -> FockState:
    """A gate's output, valid by construction: the registry and occupations
    are its input's or are built within the cap, so `__post_init__`'s checks
    are skipped. Public constructors keep them."""
    state = object.__new__(FockState)
    object.__setattr__(state, "registry", registry)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


def _pruned(amps: Dict[Occupation, complex]) -> Dict[Occupation, complex]:
    return {occ: a for occ, a in amps.items() if abs(a) > PRUNE_EPS}


def from_amplitudes(registry: Sequence[str], amps: Dict[Occupation, complex]) -> FockState:
    """Build a state from explicit occupation -> amplitude entries."""
    return FockState(_check_registry(registry), _pruned({tuple(k): complex(v) for k, v in amps.items()}))


def vacuum(registry: Sequence[str]) -> FockState:
    reg = _check_registry(registry)
    return FockState(reg, {tuple([0] * len(reg)): 1.0 + 0.0j})


def basis_state(registry: Sequence[str], counts: Sequence[int]) -> FockState:
    reg = _check_registry(registry)
    if len(counts) != len(reg):
        raise ModeError("counts length does not match registry")
    return FockState(reg, {tuple(int(c) for c in counts): 1.0 + 0.0j})


def make_single_photon(registry: Sequence[str], mode: str) -> FockState:
    """One photon in `mode`, vacuum elsewhere."""
    reg = _check_registry(registry)
    if mode not in reg:
        raise ModeError(f"mode {mode!r} not in registry {reg}")
    counts = [0] * len(reg)
    counts[reg.index(mode)] = 1
    return FockState(reg, {tuple(counts): 1.0 + 0.0j})


def one_photon_pair(modes: Tuple[str, str], sign: int) -> FockState:
    """Canonical vacuum-one-photon entangled pair (|01> + sign|10>)/sqrt(2).

    Ket ordering is (modes[0], modes[1]); sign must be +1 or -1. This is the
    closed-form carrier state; the physical source path (inject + beam
    splitter) is exercised in the protocol layer and must agree with it.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    r = 1.0 / math.sqrt(2.0)
    return from_amplitudes(modes, {(0, 1): r, (1, 0): sign * r})


def tensor(*states: FockState) -> FockState:
    """Tensor product; registries concatenate in argument order."""
    if not states:
        raise ValueError("tensor() needs at least one state")
    out = states[0]
    for s in states[1:]:
        reg = out.registry + s.registry
        amps: Dict[Occupation, complex] = {}
        for occ1, a1 in out.amplitudes.items():
            for occ2, a2 in s.amplitudes.items():
                amps[occ1 + occ2] = a1 * a2
        out = _unchecked(_check_registry(reg), amps)
    return out


def apply_beam_splitter(state: FockState, in1: str, in2: str) -> FockState:
    """50:50 beam splitter on (in1, in2), applied in place.

    Convention: a creation operator on in1 maps to (in1' + in2')/sqrt(2) and
    on in2 to (in1' - in2')/sqrt(2), with output modes reusing the same
    labels. Each (n1, n2) input expands by its precomputed
    `_BEAM_SPLITTER_TERMS` entry; the matrix is self-inverse.
    """
    i1 = state.index(in1)
    i2 = state.index(in2)
    if i1 == i2:
        raise ModeError(f"beam splitter needs two distinct modes, got {in1!r} twice")
    out: Dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        n1, n2 = occ[i1], occ[i2]
        if n1 == 0 and n2 == 0:
            out[occ] = out.get(occ, 0.0) + amp
            continue
        expansion = _BEAM_SPLITTER_TERMS.get((n1, n2))
        if expansion is None:
            raise OccupancyError(f"{n1 + n2} photons entering one beam splitter exceeds cap")
        divisor, terms = expansion
        base = amp / divisor
        new = list(occ)
        for p, q, coeff in terms:
            new[i1] = p
            new[i2] = q
            key = tuple(new)
            out[key] = out.get(key, 0.0) + base * coeff
    return _unchecked(state.registry, _pruned(out))


def apply_phase_shift(state: FockState, mode: str, phi: float) -> FockState:
    """Multiply each amplitude by exp(i * k * phi), k the photon count in `mode`."""
    i = state.index(mode)
    factors = [complex(math.cos(k * phi), math.sin(k * phi)) for k in range(OCCUPANCY_CAP + 1)]
    out = {occ: amp * factors[occ[i]] for occ, amp in state.amplitudes.items()}
    return _unchecked(state.registry, _pruned(out))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact Born-rule probabilities for joint photon counts on a mode subset."""

    modes: Tuple[str, ...]
    entries: Dict[Occupation, float]

    def total(self) -> float:
        return sum(self.entries.values())

    def probability(self, outcome: Occupation) -> float:
        return self.entries.get(tuple(outcome), 0.0)

    def tv_distance(self, empirical: Dict[Occupation, float]) -> float:
        keys = set(self.entries) | set(empirical)
        return 0.5 * sum(abs(self.entries.get(k, 0.0) - empirical.get(k, 0.0)) for k in keys)


def outcome_distribution(state: FockState, modes: Sequence[str]) -> OutcomeDistribution:
    """Exact marginal distribution of joint photon counts on `modes`.

    Sums squared moduli over the unmeasured modes' configurations.
    """
    if not modes:
        raise ModeError("cannot build a distribution over an empty mode list")
    idx = [state.index(m) for m in modes]
    entries: Dict[Occupation, float] = {}
    for occ, amp in state.amplitudes.items():
        key = tuple(occ[i] for i in idx)
        entries[key] = entries.get(key, 0.0) + abs(amp) ** 2
    return OutcomeDistribution(tuple(modes), entries)


def project_onto(state: FockState, modes: Sequence[str], counts: Sequence[int]) -> Tuple[float, FockState]:
    """Project onto the subspace with the given photon counts on `modes`.

    Returns (probability, renormalized post-measurement state). Probability 0
    yields an empty state that must not be used further.
    """
    idx = [state.index(m) for m in modes]
    want = tuple(int(c) for c in counts)
    kept: Dict[Occupation, complex] = {}
    prob = 0.0
    for occ, amp in state.amplitudes.items():
        if tuple(occ[i] for i in idx) == want:
            kept[occ] = amp
            prob += abs(amp) ** 2
    if prob <= 0.0:
        return 0.0, _unchecked(state.registry, {})
    scale = 1.0 / math.sqrt(prob)
    return prob, _unchecked(state.registry, _pruned({occ: a * scale for occ, a in kept.items()}))



# ---------------------------------------------------------------------------
# Batched linear-optics kernel
# ---------------------------------------------------------------------------
#
# A network of beam splitters and phase shifters maps each creation operator
# linearly, a+_in -> sum_k U[k, in] a+_k (Scheel, quant-ph/0406127). An input
# of N photons on given ports is a product of N creation operators on the
# vacuum, so its output amplitudes over the occupation space of N photons on
# M modes follow from U alone, and many inputs evolve as one array.


class BeamSplitter(NamedTuple):
    """`apply_beam_splitter(state, in1, in2)` as data."""

    in1: str
    in2: str


class PhaseShift(NamedTuple):
    """`apply_phase_shift(state, mode, phi)` as data."""

    mode: str
    phi: float


Gate = Union[BeamSplitter, PhaseShift]


def network_unitary(modes: Sequence[str], gates: Sequence[Gate]) -> np.ndarray:
    """The (M, M) matrix U of `gates` applied in order to `modes`: a creation
    operator on mode j leaves as sum_k U[k, j] a+_k. The gates follow the
    conventions of `apply_beam_splitter` and `apply_phase_shift`."""
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
