"""The kernel's conventions, gate by gate: the beam splitter's signs, the
phase shift, modes no gate touches, the occupancy cap, and draws from its
outcome tables."""

import math

import numpy as np
import pytest
import reference_optics

from vopqkd import fock, protocol
from vopqkd.attacks import Attack, AttackStrategy, Network, build
from vopqkd.fock import BeamSplitter, PhaseShift
from vopqkd.protocol import SessionConfig, Table

R2 = math.sqrt(2.0)


def evolve(modes, gates, counts):
    """{occupation: amplitude} of the kernel for `counts[j]` photons
    entering on modes[j]."""
    inputs = [j for j, c in enumerate(counts) for _ in range(c)]
    amps = fock.evolve_latents(fock.network_unitary(modes, gates), [inputs])[:, 0]
    space = fock.occupation_space(len(modes), sum(counts))
    return {tuple(occ): a for occ, a in zip(space.tolist(), amps) if abs(a) > fock.PRUNE_EPS}


def amp(state, occ):
    return state.get(tuple(occ), 0.0)


def honest_table(n, m):
    """The honest protocol's table of one-photon latent (n, m), on ports
    (a1, b2, b1, a2)."""
    attack = build(AttackStrategy())
    latents = protocol.build_latents(attack, protocol.latent_tables(SessionConfig(rounds=1, seed=0), attack), True)
    return reference_optics.tables(latents)[(n, m, 1, 1, ())]


def cap_check(photons_on_one_splitter):
    """Build the tables of an attack whose own splitter meets the photons
    (in1, in2)."""

    class Pileup(Attack):
        modes = ("e1", "e2")

        def networks(self):
            n1, n2 = photons_on_one_splitter
            return (Network((BeamSplitter("e1", "e2"),), ("e1",) * n1 + ("e2",) * n2),)

    attack = Pileup()
    return protocol.build_latents(attack, protocol.latent_tables(SessionConfig(rounds=1, seed=0), attack), True)


class TestConstruction:
    def test_single_photon_first_mode(self):
        s = evolve(("a1", "a2"), [], (1, 0))
        assert amp(s, (1, 0)) == 1.0
        assert amp(s, (0, 1)) == 0.0

    def test_single_photon_second_mode(self):
        s = evolve(("a1", "a2"), [], (0, 1))
        assert amp(s, (0, 1)) == 1.0

    def test_single_photon_four_modes(self):
        s = evolve(("a1", "a2", "b1", "b2"), [], (0, 0, 0, 1))
        assert amp(s, (0, 0, 0, 1)) == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("a1", "a2"), [PhaseShift("zz", 0.1)])

    def test_duplicate_registry_rejected(self):
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("a1", "a1"), [])

    def test_occupancy_cap_enforced(self):
        cap_check((fock.OCCUPANCY_CAP, 0))  # four photons on one mode are allowed
        with pytest.raises(fock.OccupancyError):
            cap_check((fock.OCCUPANCY_CAP + 1, 0))

    def test_one_photon_pair_both_signs(self):
        # A source splitter fed on in1 (bit +1) or in2 (bit -1); the bit -1
        # pair is (|01> - |10>)/sqrt(2) up to its global sign.
        plus = evolve(("x", "y"), [BeamSplitter("x", "y")], (1, 0))
        minus = evolve(("x", "y"), [BeamSplitter("x", "y")], (0, 1))
        assert abs(amp(plus, (0, 1)) - 1 / R2) < 1e-15
        assert abs(amp(plus, (1, 0)) - 1 / R2) < 1e-15
        assert abs(amp(minus, (0, 1)) + 1 / R2) < 1e-15
        assert abs(amp(minus, (1, 0)) - 1 / R2) < 1e-15

    def test_tensor_concatenates_registries(self):
        # a network on (a1, a2) beside untouched (b1, b2): the amplitudes factor
        s = evolve(("a1", "a2", "b1", "b2"), [BeamSplitter("a1", "a2")], (1, 0, 0, 1))
        assert abs(amp(s, (0, 1, 0, 1)) - 1 / R2) < 1e-15
        assert abs(amp(s, (1, 0, 0, 1)) - 1 / R2) < 1e-15


class TestBeamSplitter:
    def test_photon_on_in1(self):
        s = evolve(("x", "y"), [BeamSplitter("x", "y")], (1, 0))
        assert abs(amp(s, (1, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 1)) - 1 / R2) < 1e-12

    def test_photon_on_in2_gets_minus(self):
        s = evolve(("x", "y"), [BeamSplitter("x", "y")], (0, 1))
        assert abs(amp(s, (1, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 1)) + 1 / R2) < 1e-12

    def test_vacuum_invariant(self):
        s = evolve(("x", "y"), [BeamSplitter("x", "y")], (0, 0))
        assert amp(s, (0, 0)) == 1.0

    def test_hong_ou_mandel_coalescence(self):
        s = evolve(("x", "y"), [BeamSplitter("x", "y")], (1, 1))
        # photons always leave together; the (1,1) amplitude cancels exactly
        assert (1, 1) not in s
        assert abs(amp(s, (2, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 2)) + 1 / R2) < 1e-12

    def test_two_photons_one_port(self):
        s = evolve(("x", "y"), [BeamSplitter("x", "y")], (2, 0))
        assert abs(amp(s, (2, 0)) - 0.5) < 1e-12
        assert abs(amp(s, (1, 1)) - 1 / R2) < 1e-12
        assert abs(amp(s, (0, 2)) - 0.5) < 1e-12

    def test_same_mode_twice_rejected(self):
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("x", "y"), [BeamSplitter("x", "x")])

    def test_untouched_modes_pass_through(self):
        s = evolve(("z", "x", "y"), [BeamSplitter("x", "y")], (1, 1, 0))
        assert abs(amp(s, (1, 1, 0)) - 1 / R2) < 1e-12
        assert abs(amp(s, (1, 0, 1)) - 1 / R2) < 1e-12

    def test_more_photons_than_the_cap_rejected(self):
        with pytest.raises(fock.OccupancyError):
            cap_check((3, 2))


def _binomial_expansion(n1, n2):
    """The beam splitter's terms for n1 photons on in1 and n2 on in2, from
    the binomial expansion of the transformed creation-operator monomials:
    {(p, q): amplitude}, j photons of in1 and k of in2 leaving on in1."""
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2) * 2.0 ** (n1 + n2))
    terms = {}
    for j in range(n1 + 1):
        for k in range(n2 + 1):
            p, q = j + k, (n1 - j) + (n2 - k)
            c = math.comb(n1, j) * math.comb(n2, k) * math.sqrt(math.factorial(p) * math.factorial(q))
            terms[(p, q)] = terms.get((p, q), 0.0) + (-1) ** (n2 - k) * c / norm
    return terms


def test_beam_splitter_table_is_the_binomial_expansion():
    cap = fock.OCCUPANCY_CAP
    for n1 in range(cap + 1):
        for n2 in range(cap + 1 - n1):
            kernel = evolve(("x", "y"), [BeamSplitter("x", "y")], (n1, n2))
            expected = _binomial_expansion(n1, n2)
            for occ in set(kernel) | set(expected):
                assert abs(amp(kernel, occ) - expected.get(occ, 0.0)) < 1e-15, (n1, n2, occ)


class TestPhaseShift:
    PAIR = [BeamSplitter("x", "y")]  # a one-photon pair on (x, y)

    def test_zero_phase_identity(self):
        s = evolve(("x", "y"), self.PAIR, (1, 0))
        t = evolve(("x", "y"), self.PAIR + [PhaseShift("y", 0.0)], (1, 0))
        assert t == s

    def test_pi_negates_single_photon_branch(self):
        t = evolve(("x", "y"), self.PAIR + [PhaseShift("y", math.pi)], (1, 0))
        assert abs(amp(t, (0, 1)) + 1 / R2) < 1e-12
        assert abs(amp(t, (1, 0)) - 1 / R2) < 1e-12

    def test_half_pi_on_traveling_branch(self):
        # the traveling-photon ket picks up i, whichever port fed the pair
        for counts in ((1, 0), (0, 1)):
            s = evolve(("stay", "go"), [BeamSplitter("stay", "go")], counts)
            t = evolve(("stay", "go"), [BeamSplitter("stay", "go"), PhaseShift("go", math.pi / 2)], counts)
            assert abs(amp(t, (0, 1)) - 1j * amp(s, (0, 1))) < 1e-12
            assert abs(amp(t, (1, 0)) - amp(s, (1, 0))) < 1e-12

    def test_phase_scales_with_photon_number(self):
        t = evolve(("x",), [PhaseShift("x", math.pi / 2)], (2,))
        assert abs(amp(t, (2,)) - np.exp(1j * math.pi)) < 1e-12

    def test_unknown_mode(self):
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("x",), [PhaseShift("q", 0.3)])


def _random_gates(rng, modes, count=6):
    gates = []
    for _ in range(count):
        if rng.random() < 0.5:
            i, j = rng.choice(len(modes), size=2, replace=False)
            gates.append(BeamSplitter(modes[i], modes[j]))
        else:
            gates.append(PhaseShift(modes[rng.integers(len(modes))], float(rng.uniform(0, 2 * math.pi))))
    return gates


class TestUnitaryProperties:
    """Randomized invariants: norm preservation, involution, photon number."""

    N_NETWORKS = 200

    def test_beam_splitter_properties(self):
        rng = np.random.default_rng(42)
        modes = ("x", "y", "z")
        for _ in range(self.N_NETWORKS):
            gates = _random_gates(rng, modes)
            inputs = rng.integers(0, 3, size=(4, int(rng.integers(1, 4))))
            amps = fock.evolve_latents(fock.network_unitary(modes, gates), inputs)
            assert np.allclose(np.linalg.norm(amps, axis=0), 1.0, atol=1e-10)
            # self-inverse: the splitter twice gives back the input
            twice = gates + [BeamSplitter("x", "y")] * 2
            again = fock.evolve_latents(fock.network_unitary(modes, twice), inputs)
            assert np.max(np.abs(again - amps)) < 1e-10

    def test_phase_shift_properties(self):
        rng = np.random.default_rng(43)
        modes = ("x", "y")
        for _ in range(self.N_NETWORKS):
            gates = _random_gates(rng, modes)
            inputs = rng.integers(0, 2, size=(3, int(rng.integers(1, 4))))
            before = fock.evolve_latents(fock.network_unitary(modes, gates), inputs)
            phi = float(rng.uniform(0, 2 * math.pi))
            after = fock.evolve_latents(fock.network_unitary(modes, gates + [PhaseShift("y", phi)]), inputs)
            assert np.allclose(np.linalg.norm(after, axis=0), 1.0, atol=1e-10)
            assert np.allclose(np.abs(after), np.abs(before), atol=1e-10)  # the support is kept


class TestOutcomeDistribution:
    def test_equal_bits_distribution(self):
        dist = honest_table(1, 1)  # (ab1, ab2, ba1, ba2)
        assert abs(dist[(1, 0, 1, 0)] - 0.25) < 1e-12
        assert abs(dist[(0, 1, 0, 1)] - 0.25) < 1e-12
        for two_photon in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)):
            assert abs(dist[two_photon] - 0.125) < 1e-12
        assert (1, 0, 0, 1) not in dist
        assert (0, 1, 1, 0) not in dist
        assert abs(sum(dist.values()) - 1.0) < 1e-10

    def test_opposite_bits_move_single_photon_mass(self):
        dist = honest_table(1, -1)
        assert abs(dist[(1, 0, 0, 1)] - 0.25) < 1e-12
        assert abs(dist[(0, 1, 1, 0)] - 0.25) < 1e-12
        assert (1, 0, 1, 0) not in dist
        assert (0, 1, 0, 1) not in dist

    def test_basis_state_is_certain(self):
        s = evolve(("x", "y"), [], (2, 1))
        assert abs(amp(s, (2, 1))) ** 2 == 1.0


def sample(dist, rng, size=1):
    """`size` outcomes of an exact distribution, one uniform each."""
    return Table.of(dist.items()).draw(rng.random(size))


class TestMeasurement:
    def test_deterministic_state(self):
        rng = np.random.default_rng(0)
        s = evolve(("x", "y"), [], (1, 0))
        counts = tuple(sample({occ: abs(a) ** 2 for occ, a in s.items()}, rng)[0].tolist())
        assert counts == (1, 0)

    def test_collapse_follows_correlations(self):
        dist = honest_table(1, 1)
        alice = {occ: p for occ, p in dist.items() if occ[:2] == (1, 0)}
        assert abs(sum(alice.values()) - 0.25) < 1e-12
        # Bob's photon collapsed onto his first output port (b1)
        assert list(alice) == [(1, 0, 1, 0)]

    def test_sampling_matches_distribution(self):
        dist = honest_table(1, -1)
        rng = np.random.default_rng(7)
        n = 20000
        freq = {}
        for counts in map(tuple, sample(dist, rng, n).tolist()):
            freq[counts] = freq.get(counts, 0) + 1
        keys = set(dist) | set(freq)
        assert 0.5 * sum(abs(dist.get(k, 0.0) - freq.get(k, 0) / n) for k in keys) < 0.02

    def test_reproducible_with_fixed_seed(self):
        dist = honest_table(1, 1)
        runs = [sample(dist, np.random.default_rng(123), 200).tolist() for _ in range(2)]
        assert runs[0] == runs[1]
