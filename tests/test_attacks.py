"""Adversary strategy tests against the closed-form predictions."""

import json
import math

import numpy as np
import pytest
import reference_optics

from vopqkd import analysis, fock, protocol
from vopqkd.attacks import ATTACK_KINDS, AttackStrategy, NullAttack, build
from vopqkd.protocol import HONEST_COINCIDENCE_SUPPORT, DeviceModel, SessionConfig, run_session


def latent_tables(attack, recombine, device=DeviceModel()):
    """The kernel's outcome table of every latent: {key: {port row: p}}."""
    cfg = SessionConfig(rounds=1, seed=0, device_alice=device, device_bob=device)
    return reference_optics.tables(protocol.build_latents(attack, protocol.latent_tables(cfg, attack), recombine))


def session(kind=None, rounds=20000, seed=17, strategy=None, **kw):
    attack = strategy if strategy is not None else AttackStrategy(kind=kind or "none", **kw)
    return run_session(SessionConfig(rounds=rounds, seed=seed, attack=attack))


def exact_anomaly_rate(cfg: SessionConfig) -> float:
    dist = analysis.exact_readout_distribution(cfg)
    honest = sum(
        p for (ra, rb), p in dist.items() if (sum(ra), sum(rb)) in HONEST_COINCIDENCE_SUPPORT
    )
    return 1.0 - honest


class TestResendRule:
    """The devil's resend rule, read off the count-control tables (no
    recombiners): Bob's rail e4 holds what Eve sent for her total on (e1, a2)."""

    TWO_PHOTON = DeviceModel(p2=0.5)

    def to_bob(self, eve_total):
        """[(latent, P(e4 count = k | Eve total)) for k = 0, 1] of every
        latent where the total occurs."""
        out = []
        for key, table in latent_tables(build(AttackStrategy("devil")), False, self.TWO_PHOTON).items():
            given = {row: p for row, p in table.items() if row[4] + row[5] == eve_total}
            if given:
                total = sum(given.values())
                out.append((key, [sum(p for row, p in given.items() if row[3] == k) / total for k in (0, 1)]))
        return out

    @pytest.mark.parametrize("eve_total", [2, 3])  # 3 occurs when Alice's source emits two photons
    def test_two_or_more_counts_resend_one_photon_on_e4(self, eve_total):
        cases = self.to_bob(eve_total)
        assert cases and (eve_total < 3 or all(key[2] == 2 for key, _ in cases))
        for _, (vacuum, one) in cases:
            assert abs(one - 1.0) < 1e-12 and vacuum == 0.0

    def test_zero_counts_resend_vacuum_and_one_count_a_fresh_pair(self):
        for _, (vacuum, one) in self.to_bob(0):
            assert abs(vacuum - 1.0) < 1e-12 and one == 0.0
        for _, (vacuum, one) in self.to_bob(1):  # the pair's photon reaches e4 half the time
            assert abs(vacuum - 0.5) < 1e-12 and abs(one - 0.5) < 1e-12


class TestStrategyConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackStrategy(kind="siphon")

    def test_phi_range(self):
        with pytest.raises(ValueError):
            AttackStrategy(kind="phase", phi=4.0)
        AttackStrategy(kind="phase", phi=math.pi)  # boundary is allowed

    def test_channels_validated(self):
        with pytest.raises(ValueError):
            AttackStrategy(kind="phase", phi=1.0, channels=("sideways",))

    def test_build_dispatch(self):
        for kind in ("none", "phase", "mitm", "devil", "short-circuit"):
            assert build(AttackStrategy(kind=kind, phi=0.5)).kind == kind


class TestNullAttack:
    def test_identity_on_state(self):
        attack = NullAttack()
        [net] = attack.networks()
        assert net.gates == () and net.inputs == () and net.weight == 1.0 and net.eve_totals is None
        assert np.array_equal(fock.network_unitary(protocol.ALICE_MODES + protocol.BOB_MODES, net.gates), np.eye(4))
        assert attack.rails == ("b2", "a2")

    def test_phase_zero_bit_identical_to_none(self):
        _, s_none = session("none", rounds=5000)
        _, s_phase = session(strategy=AttackStrategy(kind="phase", phi=0.0), rounds=5000)
        assert json.dumps(s_none.to_json_dict()) == json.dumps(s_phase.to_json_dict())


class TestPhaseAttack:
    def test_pi_inverts_every_correlation(self):
        records, summary = session(strategy=AttackStrategy(kind="phase", phi=math.pi))
        assert summary.qber == 1.0
        assert abs(summary.sift_rate - 0.5) < 0.015

    def test_pi_flags_every_announce_control(self):
        cfg = SessionConfig(
            rounds=4000, seed=3,
            attack=AttackStrategy(kind="phase", phi=math.pi),
            control_announce_fraction=0.3,
        )
        records, summary = run_session(cfg)
        assert summary.controls_run["announce-bit"] > 0
        assert summary.controls_flagged["announce-bit"] == summary.controls_run["announce-bit"]

    def test_half_pi_error_rate(self):
        _, summary = session(strategy=AttackStrategy(kind="phase", phi=math.pi / 2))
        assert abs(summary.qber - 0.5) < 0.02
        assert abs(summary.sift_rate - 0.5) < 0.015

    @pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 3, 2 * math.pi / 3])
    def test_error_law(self, phi):
        _, summary = session(strategy=AttackStrategy(kind="phase", phi=phi))
        assert abs(summary.qber - math.sin(phi / 2) ** 2) < 0.02
        assert abs(summary.sift_rate - 0.5) < 0.015

    def test_survival_after_controls(self):
        cfg = SessionConfig(
            rounds=30000, seed=21,
            attack=AttackStrategy(kind="phase", phi=math.pi / 2),
            control_announce_fraction=0.5,
        )
        records, _ = run_session(cfg)
        flags = analysis.control_flags(records, analysis.ANNOUNCE)
        for nu in (1, 2, 4):
            survival, blocks = analysis.empirical_survival(flags, nu)
            model = 0.5**nu
            sigma = math.sqrt(model * (1 - model) / blocks)
            assert abs(survival - model) < 4 * sigma

    def test_both_channels_still_normalized(self):
        strategy = AttackStrategy(
            kind="phase", phi=1.1, channels=("alice-to-bob", "bob-to-alice")
        )
        dist = latent_tables(build(strategy), True)[(1, -1, 1, 1, ())]
        assert abs(sum(dist.values()) - 1.0) < 1e-10


class TestInterceptResend:
    def test_eve_learns_half_the_rounds(self):
        records, summary = session("mitm")
        assert abs(summary.eve_info_per_round - 0.5) < 0.015

    def test_learned_bit_always_correct(self):
        records, _ = session("mitm", rounds=8000)
        learned = records.eve_learned != 0
        assert learned.any()
        assert np.array_equal(records.eve_learned[learned], records.n[learned])
        # complementarity: her side count 1 exactly when Alice counts 1
        normal = records.control_kind == 0
        eve_one = records.eve_counts[normal, :2].sum(axis=1) == 1
        assert np.array_equal(eve_one, records.alice_counts[normal].sum(axis=1) == 1)

    def test_sifted_qber_is_half(self):
        _, summary = session("mitm")
        assert abs(summary.qber - 0.5) < 0.02

    def test_coincidence_rate_drops_to_quarter(self):
        _, summary = session("mitm")
        assert abs(summary.coincidence_histogram.get((1, 1), 0.0) - 0.25) < 0.015
        assert abs(summary.sift_rate - 0.25) < 0.015

    def test_eve_knows_every_sifted_bit(self):
        _, summary = session("mitm")
        assert summary.eve_info_per_sifted_bit == 1.0


class TestAdaptiveDevil:
    def test_count_complementarity_exact(self):
        records, _ = session("devil", rounds=8000)
        normal = records.control_kind == 0
        totals = records.alice_counts.sum(axis=1) + records.eve_counts[:, :2].sum(axis=1)
        assert (totals[normal] == 2).all()

    def test_anomaly_rate_matches_oracle(self):
        cfg = SessionConfig(rounds=20000, seed=29, attack=AttackStrategy(kind="devil"))
        exact = exact_anomaly_rate(cfg)
        assert abs(exact - 0.5) < 1e-9  # adaptive resend hides half the cases
        records, _ = run_session(cfg)
        empirical = int(records.photon_anomaly.sum()) / len(records)
        assert abs(empirical - exact) < 0.015

    def test_naive_resend_is_strictly_worse(self):
        devil = SessionConfig(rounds=1, seed=0, attack=AttackStrategy(kind="devil"))
        naive = SessionConfig(rounds=1, seed=0, attack=AttackStrategy(kind="mitm"))
        # always forwarding the prepared mode is exactly the plain intercept/resend
        assert exact_anomaly_rate(naive) > exact_anomaly_rate(devil)
        assert abs(exact_anomaly_rate(naive) - 5 / 8) < 1e-9


class TestShortCircuit:
    def test_every_round_accepted_and_clean(self):
        records, summary = session("short-circuit")
        assert summary.sift_rate == 1.0
        assert summary.qber == 0.0

    def test_clicks_deterministic_in_own_bits(self):
        records, _ = session("short-circuit", rounds=3000)
        assert np.array_equal(records.announcement, np.where(records.n == 1, 1, 2))
        bob_click = np.where(records.bob_counts[:, 0] == 1, 1, 2)
        assert np.array_equal(bob_click, np.where(records.m == 1, 1, 2))

    def test_eve_reads_whole_key_from_public_channel(self):
        _, summary = session("short-circuit")
        assert summary.eve_info_per_round == 1.0
        assert summary.eve_info_per_sifted_bit == 1.0

    def test_announce_controls_blind(self):
        cfg = SessionConfig(
            rounds=6000, seed=31,
            attack=AttackStrategy(kind="short-circuit"),
            control_announce_fraction=0.3,
        )
        _, summary = run_session(cfg)
        assert summary.controls_run["announce-bit"] > 0
        assert summary.controls_flagged["announce-bit"] == 0

    def test_count_controls_flag_half(self):
        cfg = SessionConfig(
            rounds=20000, seed=37,
            attack=AttackStrategy(kind="short-circuit"),
            control_count_fraction=0.25,
        )
        _, summary = run_session(cfg)
        run = summary.controls_run["photon-count-check"]
        flagged = summary.controls_flagged["photon-count-check"]
        sigma = math.sqrt(0.25 / run)
        assert abs(flagged / run - 0.5) < 4 * sigma


class TestStatePreservation:
    @pytest.mark.parametrize("kind", ["phase", "mitm", "short-circuit"])
    def test_channel_action_preserves_norm(self, kind):
        attack = build(AttackStrategy(kind=kind, phi=0.7))
        [net] = attack.networks()
        assert net.weight == 1.0 and net.eve_totals is None
        modes = protocol.ALICE_MODES + protocol.BOB_MODES + attack.modes
        u = fock.network_unitary(modes, net.gates)
        assert np.allclose(u.conj().T @ u, np.eye(len(modes)), atol=1e-10)
        for table in latent_tables(attack, True).values():
            assert abs(sum(table.values()) - 1.0) < 1e-10

    def test_devil_stage_states_normalized(self):
        attack = build(AttackStrategy(kind="devil"))
        assert len(attack.networks()) > 1  # one network per resend case
        # the resend cases of each Eve total carry weights that sum to 1
        for total in range(2 * fock.OCCUPANCY_CAP + 1):
            weights = [net.weight for net in attack.networks() if total in net.eve_totals]
            assert abs(sum(weights) - 1.0) < 1e-10
        for table in latent_tables(attack, True).values():
            assert abs(sum(table.values()) - 1.0) < 1e-10


EVE_DEVICES = {
    "ideal": DeviceModel(),
    "p2-threshold": DeviceModel(p2=0.3, detector_kind="threshold"),
    "p2-threshold-eta": DeviceModel(p2=0.3, detector_kind="threshold", eta=0.8),
    "p2-pnr": DeviceModel(p2=0.3),
    "threshold-eta": DeviceModel(detector_kind="threshold", eta=0.8),
}
# P(learn returns a bit other than n) for mitm and devil, exactly as the
# enumeration below gives it; a fix of `learn` turns these strict xfails red.
OVER_CLAIMS = {"p2-threshold": 0.009375, "p2-threshold-eta": 0.012}


def eve_cases():
    for kind in ATTACK_KINDS:
        for name in EVE_DEVICES:
            marks = ()
            if kind in ("mitm", "devil") and name in OVER_CLAIMS:
                reason = f"learn over-claims n with threshold detectors and p2 > 0: P = {OVER_CLAIMS[name]}"
                marks = pytest.mark.xfail(reason=reason, strict=True)
            yield pytest.param(kind, name, marks=marks, id=f"{kind}-{name}")


@pytest.mark.parametrize("kind, device", eve_cases())
def test_eve_never_learns_a_wrong_bit(kind, device):
    """Exact, no sampling: over every latent of the session, every entry of
    its outcome table and every report of Alice's detectors, `learn`
    returns None or n."""
    device = EVE_DEVICES[device]
    strategy = AttackStrategy(kind, phi=1.0) if kind == "phase" else AttackStrategy(kind)
    engine = protocol.RoundEngine(
        SessionConfig(rounds=1, seed=0, attack=strategy, device_alice=device, device_bob=device)
    )
    latents = engine.latents(True)
    wrong = 0.0
    for i, (n, m, na, nb, bits) in enumerate(latents.keys):
        weight = math.prod(dict(cases)[v] for cases, v in zip(engine.tables, (n, m, na, nb, *bits)))
        for j in range(latents.bounds[i], latents.bounds[i + 1]):
            row = tuple(latents.rows[latents.row[j]].tolist())
            for report, q in protocol.detector_cases(row[:2], device.eta, device.detector_kind):
                result = (1 if report[0] == 1 else 2) if sum(report) == 1 else None
                learned = engine.attack.learn(bits, row[4:] if engine.attack.eve_ports else None, result)
                if learned is not None and learned != n:
                    wrong += weight * latents.p[j] * q
    assert wrong == 0.0, f"P(learn returns a bit other than n) = {wrong}"
