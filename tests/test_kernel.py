"""The batched linear-optics kernel against the sparse gate-by-gate
reference: network matrices, evolved amplitudes, every attack's latent
tables, and the checks the kernel keeps (norm, occupancy cap)."""

import math
import subprocess
import sys

import numpy as np
import pytest

from vopqkd import analysis, fock, protocol
from vopqkd.attacks import CHANNEL_NAMES, Attack, AttackStrategy, Network, build
from vopqkd.fock import BeamSplitter, PhaseShift
from vopqkd.protocol import DeviceModel, SessionConfig

R2 = math.sqrt(2.0)


def apply_gates(state, gates):
    for gate in gates:
        if isinstance(gate, BeamSplitter):
            state = fock.apply_beam_splitter(state, gate.in1, gate.in2)
        else:
            state = fock.apply_phase_shift(state, gate.mode, gate.phi)
    return state


class TestNetworkUnitary:
    def test_beam_splitter_matrix(self):
        u = fock.network_unitary(("x", "y"), [BeamSplitter("x", "y")])
        assert np.allclose(u, np.array([[1.0, 1.0], [1.0, -1.0]]) / R2, atol=1e-15)

    def test_phase_shift_is_diagonal(self):
        u = fock.network_unitary(("x", "y"), [PhaseShift("y", 0.7)])
        assert np.allclose(u, np.diag([1.0, np.exp(0.7j)]), atol=1e-15)

    def test_gates_compose_in_order(self):
        gates = [BeamSplitter("x", "y"), PhaseShift("x", 1.3), BeamSplitter("y", "z")]
        u = fock.network_unitary(("x", "y", "z"), gates)
        expected = np.eye(3, dtype=complex)
        for gate in gates:
            expected = fock.network_unitary(("x", "y", "z"), [gate]) @ expected
        assert np.allclose(u, expected, atol=1e-15)
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-15)

    def test_bad_modes_rejected(self):
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("x", "y"), [BeamSplitter("x", "x")])
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("x", "y"), [PhaseShift("w", 1.0)])
        with pytest.raises(fock.ModeError):
            fock.network_unitary(("x", "x"), [])


class TestOccupationSpace:
    @pytest.mark.parametrize("nmodes, photons", [(1, 3), (4, 2), (5, 3), (8, 4)])
    def test_every_occupation_once_in_lexicographic_order(self, nmodes, photons):
        space = fock.occupation_space(nmodes, photons)
        rows = [tuple(r) for r in space.tolist()]
        assert len(rows) == math.comb(nmodes + photons - 1, photons)
        assert rows == sorted(set(rows))
        assert all(sum(r) == photons for r in rows)
        assert not space.flags.writeable

    def test_built_lazily_not_at_import(self):
        probe = (
            "import vopqkd.cli, vopqkd.fock as f; "
            "print(f.occupation_space.cache_info().currsize, f._creation_map.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0"]


class TestEvolveLatents:
    MODES = ("p", "q", "r", "s")
    GATES = (
        BeamSplitter("p", "q"),
        PhaseShift("q", 0.9),
        BeamSplitter("q", "r"),
        BeamSplitter("s", "p"),
        PhaseShift("s", 2.2),
        BeamSplitter("r", "s"),
    )

    @pytest.mark.parametrize("inputs", [[[0]], [[3], [1]], [[0, 0], [0, 1], [2, 3]], [[1, 1, 1], [0, 2, 2]]])
    def test_matches_gate_by_gate(self, inputs):
        amps = fock.evolve_latents(fock.network_unitary(self.MODES, self.GATES), inputs)
        space = fock.occupation_space(len(self.MODES), len(inputs[0]))
        assert amps.shape == (len(space), len(inputs))
        for column, latent in zip(amps.T, inputs):
            counts = np.bincount(latent, minlength=len(self.MODES))
            ref = apply_gates(fock.basis_state(self.MODES, counts), self.GATES)
            want = np.array([ref.amplitude(tuple(occ)) for occ in space.tolist()])
            assert np.max(np.abs(column - want)) < 1e-12
            assert abs(np.linalg.norm(column) - 1.0) < 1e-12

    def test_real_network_gives_real_amplitudes(self):
        u = fock.network_unitary(self.MODES, [g for g in self.GATES if isinstance(g, BeamSplitter)])
        assert not np.iscomplexobj(fock.evolve_latents(u, [[0, 1]]))


def both_emissions(attack):
    """The attack's case tables with sources that emit one or two photons."""
    two_photon = DeviceModel(p2=0.5)
    cfg = SessionConfig(rounds=1, seed=0, device_alice=two_photon, device_bob=two_photon)
    return protocol.latent_tables(cfg, attack)


GRID = [AttackStrategy(kind) for kind in ("none", "mitm", "devil", "short-circuit")] + [
    AttackStrategy("phase", phi=phi, channels=channels)
    for phi in (0.0, 1.1, math.pi)
    for channels in (("alice-to-bob",), CHANNEL_NAMES)
]


def assert_same_latents(kernel, reference, tol=1e-12):
    assert kernel.keys == reference.keys
    assert np.array_equal(kernel.bounds, reference.bounds)  # identical support sizes
    assert np.array_equal(kernel.rows[kernel.row], reference.rows[reference.row])  # and rows, in order
    assert np.max(np.abs(kernel.p - reference.p)) < tol


class TestKernelMatchesReference:
    @pytest.mark.parametrize("recombine", [True, False])
    @pytest.mark.parametrize("strategy", GRID, ids=lambda s: f"{s.kind}-{s.phi:.2f}-{len(s.channels)}")
    def test_every_latent_of_every_attack(self, strategy, recombine):
        attack = build(strategy)
        tables = both_emissions(attack)
        kernel = protocol.build_latents(attack, tables, recombine)
        # every (n, m, na, nb, bits) with na, nb in {1, 2}
        assert {key[2:4] for key in kernel.keys} == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert_same_latents(kernel, protocol.reference_latents(attack, tables, recombine))

    def test_tables_are_in_canonical_order(self):
        attack = build(AttackStrategy("mitm"))
        latents = protocol.build_latents(attack, both_emissions(attack), True)
        for i in range(len(latents.keys)):
            rows = [tuple(r) for r in latents.table(i).values.tolist()]
            assert rows == sorted(rows) and len(set(rows)) == len(rows)

    @pytest.mark.parametrize("kind", ["none", "mitm", "devil"])
    def test_oracle_fold_matches_reference(self, monkeypatch, kind):
        lossy = DeviceModel(p2=0.3, detector_kind="threshold", eta=0.8)
        cfg = SessionConfig(
            rounds=1, seed=0, attack=AttackStrategy(kind), device_alice=lossy, device_bob=lossy
        )
        kernel = analysis.exact_joint_distribution(cfg)
        monkeypatch.setattr(protocol, "build_latents", protocol.reference_latents)
        reference = analysis.exact_joint_distribution(cfg)
        assert set(kernel) == set(reference)
        assert max(abs(kernel[k] - reference[k]) for k in kernel) < 1e-12


class TestKernelChecks:
    def tables(self, attack):
        return protocol.latent_tables(SessionConfig(rounds=1, seed=0), attack)

    def test_norm_drift_names_the_latent(self):
        class Leaky(Attack):
            def networks(self):
                return (Network(weight=0.5),)

        with pytest.raises(RuntimeError, match=r"drifted past tolerance for latents \(1, 1, 1, 1, \(\)\)"):
            protocol.build_latents(Leaky(), self.tables(Leaky()), True)

    def test_occupancy_cap_guard(self):
        class Pileup(Attack):
            # five photons of her own on one mode, which no gate touches
            modes = ("e1",)

            def networks(self):
                return (Network(inputs=("e1",) * (fock.OCCUPANCY_CAP + 1)),)

        with pytest.raises(fock.OccupancyError, match="exceeds cap 4 for latents"):
            protocol.build_latents(Pileup(), self.tables(Pileup()), True)

    def test_no_memo_crosses_engines(self):
        cfg = SessionConfig(rounds=50, seed=1, attack=AttackStrategy("mitm"))
        first, second = protocol.RoundEngine(cfg), protocol.RoundEngine(cfg)
        first.rounds(0, 50)
        assert first._latents and not second._latents
        assert first.latents(True) is not second.latents(True)

    def test_devil_networks_follow_the_resend_rule(self):
        devil = build(AttackStrategy("devil"))
        cases = {}
        for net in devil.networks():
            for total in net.eve_totals:
                cases.setdefault(total, []).append((net.inputs, net.weight))
        assert cases[0] == [((), 1.0)]  # vacuum
        assert sorted(cases[1]) == [(("e3",), 0.5), (("e4",), 0.5)]  # fresh pair, q = +1 or -1
        for total in (2, 3):
            assert cases[total] == [(("e4",), 1.0)]  # one photon on e4
        pair = BeamSplitter("e3", "e4")
        assert [pair in net.gates for net in devil.networks()] == [False, True, True, False]
