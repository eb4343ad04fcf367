"""Tests for summaries, efficiency accounting, detection curves, oracles."""

import collections
import math

import numpy as np
import pytest

from vopqkd import analysis, protocol
from vopqkd.analysis import (
    ANNOUNCE,
    COUNT,
    EfficiencyReport,
    announcement_bit_mutual_information,
    control_flags,
    control_qber_estimate,
    detection_curve,
    efficiency,
    empirical_survival,
    exact_readout_distribution,
    oracle_check,
    oracle_csv,
    sifted_keys,
    summarize,
)
from vopqkd.attacks import AttackStrategy
from vopqkd.protocol import DeviceModel, SessionConfig, run_session


BOOL_COLUMNS = {"accepted", "control_flagged", "photon_anomaly"}


def hand_rounds(**columns):
    """A block of rounds built by hand: the given per-round columns, every
    other column zero (0 codes None) and no adversary counts."""
    size = len(columns["n"])
    block = {
        name: np.zeros(size, dtype=bool if name in BOOL_COLUMNS else np.int8)
        for name in protocol.Rounds.__dataclass_fields__
    }
    block.update(
        index=np.arange(size, dtype=np.int64),
        alice_counts=np.zeros((size, 2), dtype=np.int8),
        bob_counts=np.zeros((size, 2), dtype=np.int8),
        eve_counts=None,
    )
    block.update({name: np.asarray(values, dtype=block[name].dtype) for name, values in columns.items()})
    return protocol.Rounds(**block)


def kind_codes(kinds):
    return [protocol.CONTROL_KINDS.index(k) for k in kinds]


def p_one_click_each(cfg):
    """Exact probability that each side reports exactly one photon or click."""
    dist = exact_readout_distribution(cfg)
    return sum(p for (alice, bob), p in dist.items() if sum(alice) == 1 and sum(bob) == 1)


class TestClosedFormsThroughTheOracle:
    @pytest.mark.parametrize("detector", ["pnr", "threshold"])
    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.37])
    def test_honest_coincidence_scales_as_eta_squared(self, detector, eta):
        device = DeviceModel(detector_kind=detector, eta=eta)
        cfg = SessionConfig(rounds=1, seed=0, device_alice=device, device_bob=device)
        assert abs(p_one_click_each(cfg) - 0.5 * eta**2) < 1e-12

    @pytest.mark.parametrize("phi", [0.3, 1.1, math.pi])
    def test_phase_tampering_keeps_the_coincidence_rate(self, phi):
        cfg = SessionConfig(rounds=1, seed=0, attack=AttackStrategy("phase", phi=phi))
        assert abs(p_one_click_each(cfg) - 0.5) < 1e-12

    @pytest.mark.parametrize("kind, rate", [("mitm", 0.25), ("devil", 0.25), ("short-circuit", 1.0)])
    def test_attacks_move_the_coincidence_rate(self, kind, rate):
        cfg = SessionConfig(rounds=1, seed=0, attack=AttackStrategy(kind))
        assert abs(p_one_click_each(cfg) - rate) < 1e-12


class TestEfficiency:
    def test_single_shot_value(self):
        rep = efficiency(2, 1, 1)
        assert abs(rep.value - 1 / 3) < 1e-15

    def test_differential_phase_shift_accounting(self):
        assert abs(efficiency(4, 2, 1).value - 1 / 6) < 1e-15

    def test_bb84_maximum(self):
        assert abs(efficiency(0, 4, 1).value - 1 / 4) < 1e-15

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            efficiency(0, 0, 1)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            efficiency(-1, 2, 1)

    def test_comparison_constants_present(self):
        rep = efficiency(2, 1, 1)
        assert rep.comparisons["bb84_max"] == 0.25
        assert abs(rep.comparisons["differential_phase_shift"] - 1 / 6) < 1e-15


class TestDetectionCurve:
    def test_half_per_control(self):
        curve = detection_curve(0.5, 3)
        assert curve == [0.5, 0.25, 0.125]

    def test_zero_flag_probability(self):
        assert detection_curve(0.0, 4) == [1.0, 1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            detection_curve(1.5, 3)


class TestSurvival:
    def test_blocks(self):
        flags = [False, False, True, False, False, False, True, True]
        survival, blocks = empirical_survival(flags, 2)
        assert blocks == 4
        assert survival == 0.5

    def test_needs_enough_flags(self):
        with pytest.raises(ValueError):
            empirical_survival([False], 2)

    def test_blocks_of_a_control_column(self):
        # announce flags F F T F F F T T, between rounds of no control and
        # count controls that the fold skips
        kinds = [ANNOUNCE, None, ANNOUNCE, ANNOUNCE, COUNT, ANNOUNCE, ANNOUNCE, ANNOUNCE, None, ANNOUNCE, ANNOUNCE]
        flagged = [False, True, False, True, True, False, False, False, False, True, True]
        rounds = hand_rounds(n=[1] * len(kinds), control_kind=kind_codes(kinds), control_flagged=flagged)
        flags = control_flags(rounds, ANNOUNCE)
        assert flags == [False, False, True, False, False, False, True, True]
        assert control_flags(rounds, COUNT) == [True]
        assert empirical_survival(flags, 2) == (0.5, 4)
        assert empirical_survival(np.array(flags), 3) == (0.5, 2)
        assert empirical_survival(flags, 8) == (0.0, 1)
        with pytest.raises(ValueError):
            empirical_survival(flags, 9)


class TestSummarize:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_honest_summary_fields(self):
        records, summary = run_session(
            SessionConfig(rounds=10000, seed=23, control_announce_fraction=0.2)
        )
        assert summary.rounds_total == 10000
        assert summary.qber == 0.0
        assert abs(summary.sift_rate - 0.5) < 0.02
        assert abs(sum(summary.coincidence_histogram.values()) - 1.0) < 1e-9
        assert summary.controls_run[ANNOUNCE] > 0
        assert summary.p_undetected_model == 0.5 ** summary.controls_run[ANNOUNCE]
        assert (summary.efficiency.q_t, summary.efficiency.b_t, summary.efficiency.b_s) == (2, 1, 1)

    def test_sifted_keys_exclude_controls(self):
        records, summary = run_session(
            SessionConfig(rounds=5000, seed=23, control_announce_fraction=0.5)
        )
        alice, bob = sifted_keys(records)
        assert len(alice) == summary.accepted - summary.controls_run[ANNOUNCE]
        assert alice == bob

    def test_mitm_histogram_mass(self):
        _, summary = run_session(
            SessionConfig(rounds=20000, seed=23, attack=AttackStrategy(kind="mitm"))
        )
        assert abs(summary.coincidence_histogram[(1, 1)] - 0.25) < 0.015

    def test_phase_pi_summary(self):
        _, summary = run_session(
            SessionConfig(rounds=10000, seed=23, attack=AttackStrategy(kind="phase", phi=math.pi))
        )
        assert summary.qber == 1.0

    def test_control_qber_estimate_tracks_truth(self):
        records, summary = run_session(
            SessionConfig(
                rounds=20000, seed=41,
                attack=AttackStrategy(kind="phase", phi=math.pi / 2),
                control_announce_fraction=0.3,
            )
        )
        estimate = control_qber_estimate(records)
        assert abs(estimate - 0.5) < 0.03
        assert abs(estimate - summary.qber) < 0.04

    def test_mutual_information_on_hand_built_rounds(self):
        pairs = [(a, n) for a in (1, 2) for n in (-1, 1) for _ in range(25)]
        # rejected rounds carry no announcement and do not count
        rejected = [(0, 1)] * 40
        announcement, n = zip(*pairs + rejected)
        independent = hand_rounds(n=n, announcement=announcement, accepted=[a > 0 for a in announcement])
        assert abs(announcement_bit_mutual_information(independent)) < 1e-12
        announcement, n = zip(*[(1, 1)] * 50 + [(2, -1)] * 50 + rejected)
        correlated = hand_rounds(n=n, announcement=announcement, accepted=[a > 0 for a in announcement])
        assert abs(announcement_bit_mutual_information(correlated) - 1.0) < 1e-12
        assert announcement_bit_mutual_information(hand_rounds(n=[1, -1])) == 0.0

    def test_column_folds_match_row_loops(self):
        rounds, _ = run_session(
            SessionConfig(
                rounds=3000, seed=5, attack=AttackStrategy(kind="mitm"),
                control_announce_fraction=0.2, control_count_fraction=0.3,
            )
        )
        rows = list(zip(*(c.tolist() for c in (
            rounds.accepted, rounds.announcement, rounds.n, rounds.inferred,
            rounds.control_kind, rounds.control_flagged,
        ))))
        sift = [(n, inferred) for accepted, _, n, inferred, kind, _ in rows if accepted and not kind]
        assert sifted_keys(rounds) == ([n for n, _ in sift], [i for _, i in sift])
        announce = protocol.CONTROL_KINDS.index(ANNOUNCE)
        flags = [flagged for *_, kind, flagged in rows if kind == announce]
        assert control_flags(rounds, ANNOUNCE) == flags
        for nu in range(1, 9):
            blocks = len(flags) // nu
            clear = sum(1 for b in range(blocks) if not any(flags[b * nu : (b + 1) * nu]))
            assert empirical_survival(flags, nu) == (clear / blocks, blocks)
        joint = collections.Counter((a, n) for accepted, a, n, *_ in rows if accepted)
        total = sum(joint.values())
        pa = collections.Counter()
        pn = collections.Counter()
        for (a, n), c in joint.items():
            pa[a] += c / total
            pn[n] += c / total
        mi = sum(c / total * math.log2(c / total / (pa[a] * pn[n])) for (a, n), c in joint.items())
        assert mi > 0.001  # away from 0, so the comparison is not of two zeros
        assert abs(announcement_bit_mutual_information(rounds) - mi) < 1e-12

    def test_control_qber_estimate_on_hand_built_rounds(self):
        counted = hand_rounds(n=[1, 1], control_kind=kind_codes([COUNT, COUNT]), control_flagged=[True, False])
        assert control_qber_estimate(counted) is None
        kinds = [ANNOUNCE, None, ANNOUNCE, ANNOUNCE, COUNT, ANNOUNCE]
        flagged = [True, False, False, False, True, False]
        rounds = hand_rounds(n=[1] * 6, control_kind=kind_codes(kinds), control_flagged=flagged)
        assert control_qber_estimate(rounds) == 0.25

    def test_sifted_keys_skip_control_and_rejected_rounds(self):
        kinds = [None, ANNOUNCE, None, COUNT, None, None]
        rounds = hand_rounds(
            n=[1, -1, -1, 1, 1, -1],
            inferred=[1, -1, 1, 0, 0, -1],
            accepted=[True, True, True, False, False, True],
            control_kind=kind_codes(kinds),
        )
        assert sifted_keys(rounds) == ([1, -1, -1], [1, 1, -1])


class TestOracle:
    def test_honest_exact_readout(self):
        dist = exact_readout_distribution(SessionConfig(rounds=1, seed=0))
        coincidences = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))]
        doubles = [((2, 0), (0, 0)), ((0, 2), (0, 0)), ((0, 0), (2, 0)), ((0, 0), (0, 2))]
        for key in coincidences + doubles:
            assert abs(dist[key] - 0.125) < 1e-12
        assert abs(sum(dist.values()) - 1.0) < 1e-10

    def test_two_photon_pnr_acceptance_zero(self):
        cfg = SessionConfig(rounds=1, seed=0, device_alice=DeviceModel(p2=1.0))
        dist = exact_readout_distribution(cfg)
        accept = sum(p for (ra, rb), p in dist.items() if sum(ra) == 1 and sum(rb) == 1)
        assert accept == 0.0

    def test_eta_scaling_exact(self):
        device = DeviceModel(eta=0.5)
        cfg = SessionConfig(rounds=1, seed=0, device_alice=device, device_bob=device)
        dist = exact_readout_distribution(cfg)
        accept = sum(p for (ra, rb), p in dist.items() if sum(ra) == 1 and sum(rb) == 1)
        assert abs(accept - 0.5 * 0.25) < 1e-12

    def test_stages_normalized_and_close(self):
        for kind in ("none", "mitm", "devil"):
            cfg = SessionConfig(rounds=15000, seed=51, attack=AttackStrategy(kind=kind))
            stages = oracle_check(cfg)
            for stage in stages:
                assert abs(sum(e for _, e, _ in stage.rows) - 1.0) < 1e-9
                assert stage.tv_distance < 0.025

    def test_two_channel_phase_against_oracle(self):
        # no closed-form pinned for tampering both directions; the exact
        # distribution is the reference
        cfg = SessionConfig(
            rounds=15000, seed=51,
            attack=AttackStrategy(kind="phase", phi=0.9,
                                  channels=("alice-to-bob", "bob-to-alice")),
        )
        stages = oracle_check(cfg)
        assert stages[0].tv_distance < 0.025

    @pytest.mark.parametrize("kind", ["mitm", "devil"])
    def test_oracle_builds_each_latent_distribution_once(self, monkeypatch, kind):
        batches = []
        real = protocol.build_latents

        def counting(attack, tables, recombine):
            latents = real(attack, tables, recombine)
            batches.append((recombine, latents.keys))
            return latents

        monkeypatch.setattr(protocol, "build_latents", counting)
        cfg = SessionConfig(
            rounds=3000, seed=51, attack=AttackStrategy(kind=kind), control_count_fraction=0.2
        )
        oracle_check(cfg)
        flags = [flag for flag, _ in batches]
        assert len(flags) == len(set(flags))  # one kernel batch per recombine flag
        for _, keys in batches:
            assert len(keys) == len(set(keys))  # each latent appears once
        assert set(flags) == {True, False}  # recombined and count-control latents

    def test_csv_shape(self):
        cfg = SessionConfig(rounds=2000, seed=51)
        text = oracle_csv(oracle_check(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "stage,outcome,exact_p,empirical_p,abs_error"
        assert all(len(line.split(",")) == 5 for line in lines[1:])
        assert all(line.startswith("readout,") for line in lines[1:])
