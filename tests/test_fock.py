"""Unit and property tests for the sparse Fock-state algebra."""

import math

import numpy as np
import pytest

from vopqkd import fock
from vopqkd.fock import (
    FockState,
    apply_beam_splitter,
    apply_phase_shift,
    basis_state,
    from_amplitudes,
    make_single_photon,
    one_photon_pair,
    outcome_distribution,
    project_onto,
    tensor,
    vacuum,
)
from vopqkd.protocol import Table

R2 = math.sqrt(2.0)


def amp(state, occ):
    return state.amplitude(occ)


def sample(dist, rng, size=1):
    """`size` outcomes of an exact distribution, one uniform each."""
    return Table.of(dist.entries.items()).draw(rng.random(size))


class TestConstruction:
    def test_single_photon_first_mode(self):
        s = make_single_photon(("a1", "a2"), "a1")
        assert amp(s, (1, 0)) == 1.0
        assert amp(s, (0, 1)) == 0.0

    def test_single_photon_second_mode(self):
        s = make_single_photon(("a1", "a2"), "a2")
        assert amp(s, (0, 1)) == 1.0

    def test_single_photon_four_modes(self):
        s = make_single_photon(("a1", "a2", "b1", "b2"), "b2")
        assert amp(s, (0, 0, 0, 1)) == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(fock.ModeError):
            make_single_photon(("a1", "a2"), "zz")

    def test_duplicate_registry_rejected(self):
        with pytest.raises(fock.ModeError):
            vacuum(("a1", "a1"))

    def test_occupancy_cap_enforced(self):
        with pytest.raises(fock.OccupancyError):
            basis_state(("a1",), (5,))

    def test_one_photon_pair_both_signs(self):
        plus = one_photon_pair(("x", "y"), 1)
        minus = one_photon_pair(("x", "y"), -1)
        assert abs(amp(plus, (0, 1)) - 1 / R2) < 1e-15
        assert abs(amp(plus, (1, 0)) - 1 / R2) < 1e-15
        assert abs(amp(minus, (0, 1)) - 1 / R2) < 1e-15
        assert abs(amp(minus, (1, 0)) + 1 / R2) < 1e-15

    def test_tensor_concatenates_registries(self):
        s = tensor(one_photon_pair(("a1", "a2"), 1), vacuum(("b1", "b2")))
        assert s.registry == ("a1", "a2", "b1", "b2")
        assert abs(amp(s, (0, 1, 0, 0)) - 1 / R2) < 1e-15


class TestBeamSplitter:
    def test_photon_on_in1(self):
        s = apply_beam_splitter(make_single_photon(("x", "y"), "x"), "x", "y")
        assert abs(amp(s, (1, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 1)) - 1 / R2) < 1e-12

    def test_photon_on_in2_gets_minus(self):
        s = apply_beam_splitter(make_single_photon(("x", "y"), "y"), "x", "y")
        assert abs(amp(s, (1, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 1)) + 1 / R2) < 1e-12

    def test_vacuum_invariant(self):
        s = apply_beam_splitter(vacuum(("x", "y")), "x", "y")
        assert amp(s, (0, 0)) == 1.0

    def test_hong_ou_mandel_coalescence(self):
        s = apply_beam_splitter(basis_state(("x", "y"), (1, 1)), "x", "y")
        # photons always leave together; the (1,1) amplitude cancels exactly
        assert (1, 1) not in s.amplitudes
        assert abs(amp(s, (2, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 2)) + 1 / R2) < 1e-12

    def test_two_photons_one_port(self):
        s = apply_beam_splitter(basis_state(("x", "y"), (2, 0)), "x", "y")
        assert abs(amp(s, (2, 0)) - 0.5) < 1e-12
        assert abs(amp(s, (1, 1)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 2)) - 0.5) < 1e-12

    def test_same_mode_twice_rejected(self):
        with pytest.raises(fock.ModeError):
            apply_beam_splitter(vacuum(("x", "y")), "x", "x")

    def test_untouched_modes_pass_through(self):
        s = tensor(basis_state(("z",), (1,)), basis_state(("x", "y"), (1, 0)))
        s = apply_beam_splitter(s, "x", "y")
        assert abs(amp(s, (1, 1, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (1, 0, 1)) - 1 / R2) < 1e-12

    def test_more_photons_than_the_cap_rejected(self):
        with pytest.raises(fock.OccupancyError):
            apply_beam_splitter(basis_state(("x", "y"), (3, 2)), "x", "y")


def _binomial_expansion(n1, n2):
    """The beam splitter's terms for n1 photons on in1 and n2 on in2, from
    the binomial expansion of the transformed creation-operator monomials:
    [(p, q, amplitude factor)] with j photons of in1 and k of in2 leaving
    on in1, in (j, k) order."""
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2) * 2.0 ** (n1 + n2))
    terms = []
    for j in range(n1 + 1):
        for k in range(n2 + 1):
            p, q = j + k, (n1 - j) + (n2 - k)
            c = math.comb(n1, j) * math.comb(n2, k) * math.sqrt(math.factorial(p) * math.factorial(q))
            terms.append((p, q, (-1) ** (n2 - k) * c / norm))
    return terms


def test_beam_splitter_table_is_the_binomial_expansion():
    cap = fock.OCCUPANCY_CAP
    pairs = {(n1, n2) for n1 in range(cap + 1) for n2 in range(cap + 1) if n1 + n2 <= cap}
    assert set(fock._BEAM_SPLITTER_TERMS) == pairs
    for (n1, n2), (divisor, terms) in fock._BEAM_SPLITTER_TERMS.items():
        expected = _binomial_expansion(n1, n2)
        assert [(p, q) for p, q, _ in terms] == [(p, q) for p, q, _ in expected]
        for (_, _, coeff), (_, _, factor) in zip(terms, expected):
            assert abs(coeff / divisor - factor) < 1e-15


class TestPhaseShift:
    def test_zero_phase_identity(self):
        s = one_photon_pair(("x", "y"), 1)
        t = apply_phase_shift(s, "y", 0.0)
        assert t.amplitudes == s.amplitudes

    def test_pi_negates_single_photon_branch(self):
        s = one_photon_pair(("x", "y"), 1)
        t = apply_phase_shift(s, "y", math.pi)
        assert abs(amp(t, (0, 1)) + 1 / R2) < 1e-12
        assert abs(amp(t, (1, 0)) - 1 / R2) < 1e-12

    def test_half_pi_on_traveling_branch(self):
        # (|01> + n|10>)/sqrt(2) with the traveling-photon ket picking up i
        for n in (1, -1):
            s = one_photon_pair(("stay", "go"), n)
            t = apply_phase_shift(s, "go", math.pi / 2)
            assert abs(amp(t, (0, 1)) - 1j / R2) < 1e-12
            assert abs(amp(t, (1, 0)) - n / R2) < 1e-12

    def test_phase_scales_with_photon_number(self):
        s = basis_state(("x",), (2,))
        t = apply_phase_shift(s, "x", math.pi / 2)
        assert abs(amp(t, (2,)) - np.exp(1j * math.pi)) < 1e-12

    def test_unknown_mode(self):
        with pytest.raises(fock.ModeError):
            apply_phase_shift(vacuum(("x",)), "q", 0.3)


def _random_sparse_state(rng, registry, max_support=20, max_count=2):
    support = {}
    for _ in range(rng.integers(1, max_support + 1)):
        occ = tuple(int(c) for c in rng.integers(0, max_count + 1, size=len(registry)))
        support[occ] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in support.values()))
    return from_amplitudes(registry, {k: v / norm for k, v in support.items()})


class TestUnitaryProperties:
    """Randomized invariants: norm preservation, involution, photon number."""

    N_STATES = 1000

    def test_beam_splitter_properties(self):
        rng = np.random.default_rng(42)
        registry = ("x", "y", "z")
        for _ in range(self.N_STATES):
            s = _random_sparse_state(rng, registry)
            t = apply_beam_splitter(s, "x", "y")
            assert abs(t.norm() - 1.0) < 1e-10
            # total photon number conserved on every support vector
            assert {sum(o) for o in t.amplitudes} <= {sum(o) for o in s.amplitudes}
            # self-inverse
            back = apply_beam_splitter(t, "x", "y")
            keys = set(back.amplitudes) | set(s.amplitudes)
            assert all(abs(back.amplitude(k) - s.amplitude(k)) < 1e-10 for k in keys)

    def test_phase_shift_properties(self):
        rng = np.random.default_rng(43)
        registry = ("x", "y")
        for _ in range(self.N_STATES):
            s = _random_sparse_state(rng, registry)
            phi = float(rng.uniform(0, 2 * math.pi))
            t = apply_phase_shift(s, "y", phi)
            assert abs(t.norm() - 1.0) < 1e-10
            assert set(t.amplitudes) == set(s.amplitudes)


class TestOutcomeDistribution:
    def _recombined(self, n, m):
        # the protocol's joint state after both recombiners, built here from
        # raw algebra so the distribution checks are self-contained
        s = tensor(one_photon_pair(("a1", "a2"), n), one_photon_pair(("b1", "b2"), m))
        s = apply_beam_splitter(s, "a1", "b2")
        s = apply_beam_splitter(s, "b1", "a2")
        return s

    def test_equal_bits_distribution(self):
        s = self._recombined(1, 1)
        dist = outcome_distribution(s, ("a1", "b2", "b1", "a2"))  # (ab1, ab2, ba1, ba2)
        assert abs(dist.probability((1, 0, 1, 0)) - 0.25) < 1e-12
        assert abs(dist.probability((0, 1, 0, 1)) - 0.25) < 1e-12
        for two_photon in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)):
            assert abs(dist.probability(two_photon) - 0.125) < 1e-12
        assert dist.probability((1, 0, 0, 1)) == 0.0
        assert dist.probability((0, 1, 1, 0)) == 0.0
        assert abs(dist.total() - 1.0) < 1e-10

    def test_opposite_bits_move_single_photon_mass(self):
        dist = outcome_distribution(self._recombined(1, -1), ("a1", "b2", "b1", "a2"))
        assert abs(dist.probability((1, 0, 0, 1)) - 0.25) < 1e-12
        assert abs(dist.probability((0, 1, 1, 0)) - 0.25) < 1e-12
        assert dist.probability((1, 0, 1, 0)) == 0.0
        assert dist.probability((0, 1, 0, 1)) == 0.0

    def test_basis_state_is_certain(self):
        dist = outcome_distribution(basis_state(("x", "y"), (2, 1)), ("x", "y"))
        assert dist.probability((2, 1)) == 1.0

    def test_empty_mode_list_rejected(self):
        with pytest.raises(fock.ModeError):
            outcome_distribution(vacuum(("x",)), ())


class TestMeasurement:
    def test_deterministic_state(self):
        rng = np.random.default_rng(0)
        s = basis_state(("x", "y"), (1, 0))
        counts = tuple(sample(outcome_distribution(s, ("x", "y")), rng)[0].tolist())
        assert counts == (1, 0)
        prob, post = project_onto(s, ("x", "y"), counts)
        assert prob == 1.0
        assert post.amplitudes == s.amplitudes

    def test_collapse_follows_correlations(self):
        s = tensor(one_photon_pair(("a1", "a2"), 1), one_photon_pair(("b1", "b2"), 1))
        s = apply_beam_splitter(s, "a1", "b2")
        s = apply_beam_splitter(s, "b1", "a2")
        prob, post = project_onto(s, ("a1", "b2"), (1, 0))
        assert abs(prob - 0.25) < 1e-12
        # Bob's photon collapsed onto his first output port (b1)
        assert abs(abs(post.amplitude((1, 0, 1, 0))) - 1.0) < 1e-12

    def test_sampling_matches_distribution(self):
        s = tensor(one_photon_pair(("a1", "a2"), 1), one_photon_pair(("b1", "b2"), -1))
        s = apply_beam_splitter(s, "a1", "b2")
        s = apply_beam_splitter(s, "b1", "a2")
        modes = ("a1", "b2", "b1", "a2")
        dist = outcome_distribution(s, modes)
        rng = np.random.default_rng(7)
        n = 20000
        freq = {}
        for counts in map(tuple, sample(dist, rng, n).tolist()):
            freq[counts] = freq.get(counts, 0) + 1
        empirical = {k: v / n for k, v in freq.items()}
        assert dist.tv_distance(empirical) < 0.02

    def test_reproducible_with_fixed_seed(self):
        s = one_photon_pair(("x", "y"), 1)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            dist = outcome_distribution(s, ("x", "y"))
            runs.append(sample(dist, rng, 200).tolist())
        assert runs[0] == runs[1]

