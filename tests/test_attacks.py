"""Adversary strategy tests against the closed-form predictions."""

import json
import math

import numpy as np
import pytest

from vopqkd import analysis, fock, protocol
from vopqkd.attacks import (
    AdaptiveInterceptAttack,
    AttackStrategy,
    InterceptResendAttack,
    NullAttack,
    PhaseTamperAttack,
    build,
)
from vopqkd.protocol import HONEST_COINCIDENCE_SUPPORT, SessionConfig, run_session


def channel_ensemble(attack, n, m, bits):
    """The adversary's ensemble for one-photon sources encoding n and m."""
    state = fock.tensor(
        protocol.encoded_pair_state(n, protocol.ALICE_MODES),
        protocol.encoded_pair_state(m, protocol.BOB_MODES),
    )
    ensemble, _, _ = attack.channel(state, bits)
    return ensemble


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
    @pytest.mark.parametrize("eve_total", [2, 3])  # 3 occurs when Alice's source emits two photons
    def test_two_or_more_counts_resend_one_photon_on_e4(self, eve_total):
        [(content, weight)] = AdaptiveInterceptAttack().resend_cases(eve_total)
        assert weight == 1.0
        assert content.registry == ("e4",) and content.amplitudes == {(1,): 1.0}

    def test_zero_counts_resend_vacuum_and_one_count_a_fresh_pair(self):
        [(content, weight)] = AdaptiveInterceptAttack().resend_cases(0)
        assert weight == 1.0 and content.amplitudes == {(0,): 1.0}
        pairs = AdaptiveInterceptAttack().resend_cases(1)
        assert [w for _, w in pairs] == [0.5, 0.5]
        assert [state.registry for state, _ in pairs] == [("e3", "e4")] * 2


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
        s = fock.one_photon_pair(("a2", "b2"), 1)
        [(out, weight)], to_alice, to_bob = NullAttack().channel(s, ())
        assert out.amplitudes == s.amplitudes and weight == 1.0
        assert (to_alice, to_bob) == ("b2", "a2")

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
        dist = protocol.latent_distribution(build(strategy), 1, -1, 1, 1, (), recombine=True)
        assert abs(dist.total() - 1.0) < 1e-10


class TestInterceptResend:
    def test_eve_learns_half_the_rounds(self):
        records, summary = session("mitm")
        assert abs(summary.eve_info_per_round - 0.5) < 0.015

    def test_learned_bit_always_correct(self):
        records, _ = session("mitm", rounds=8000)
        learned = [r for r in records if r.eve_learned is not None]
        assert learned
        assert all(r.eve_learned == r.n for r in learned)
        # complementarity: her side count 1 exactly when Alice counts 1
        for r in records:
            if r.control is None:
                assert (sum(r.eve_counts[:2]) == 1) == (sum(r.alice_counts) == 1)

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
        for r in records:
            if r.control is None:
                assert sum(r.alice_counts) + sum(r.eve_counts[:2]) == 2

    def test_anomaly_rate_matches_oracle(self):
        cfg = SessionConfig(rounds=20000, seed=29, attack=AttackStrategy(kind="devil"))
        exact = exact_anomaly_rate(cfg)
        assert abs(exact - 0.5) < 1e-9  # adaptive resend hides half the cases
        records, _ = run_session(cfg)
        empirical = sum(1 for r in records if r.photon_anomaly) / len(records)
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
        for r in records:
            assert r.announcement == (1 if r.n == 1 else 2)
            bob_click = 1 if r.bob_counts[0] == 1 else 2
            assert bob_click == (1 if r.m == 1 else 2)

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
        strategy = AttackStrategy(kind=kind, phi=0.7)
        attack = build(strategy)
        bits = (1, -1) if kind == "mitm" else ()
        [(state, weight)] = channel_ensemble(attack, 1, -1, bits)
        assert weight == 1.0
        assert abs(state.norm() - 1.0) < 1e-10

    def test_devil_stage_states_normalized(self):
        attack = build(AttackStrategy(kind="devil"))
        for n in (1, -1):
            for p in (1, -1):
                ensemble = channel_ensemble(attack, n, 1, (p,))
                assert len(ensemble) > 1  # one branch per (her count, resend case)
                assert abs(sum(w for _, w in ensemble) - 1.0) < 1e-10
                for state, _ in ensemble:
                    assert abs(state.norm() - 1.0) < 1e-10
