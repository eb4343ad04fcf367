"""Protocol-layer tests: encoding, rounds, controls, sessions, wire formats."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from vopqkd import analysis, fock, protocol
from vopqkd.attacks import ATTACK_KINDS, Attack, AttackStrategy, NullAttack
from vopqkd.protocol import (
    CONTROL_KINDS,
    DeviceModel,
    RoundEngine,
    SessionConfig,
    Table,
    detector_cases,
    emission_cases,
    infer_bit,
    run_session,
    run_session_sharded,
)
from wire_form import record_dicts

R2 = math.sqrt(2.0)
IDEAL = DeviceModel()


def honest_config(rounds=20000, seed=7, **kw):
    return SessionConfig(rounds=rounds, seed=seed, **kw)


def draw(cases, rng, size=None):
    """Values of a case table for `size` uniforms (one value when None)."""
    values = Table.of(cases).draw(rng.random(1 if size is None else size))
    return values[0] if size is None else values


def encoded_pair_state(bit, modes, photons):
    """The kernel's source: `photons` photons on the first port for bit +1,
    the second for -1, then the splitter; {(stored, traveling): amplitude}.
    A one-photon source holds +1/sqrt(2) on its traveling ket, so the bit -1
    photon's raw amplitudes take the global sign -1."""
    u = fock.network_unitary(modes, [fock.BeamSplitter(*modes)])
    amps = fock.evolve_latents(u, [[0 if bit == 1 else 1] * photons])[:, 0]
    sign = bit if photons == 1 else 1
    return {tuple(occ): sign * a for occ, a in zip(fock.occupation_space(2, photons).tolist(), amps)}


def detected_counts(true_counts, device, rng, size=None):
    """The party's detector report(s) for the given true photon counts."""
    reports = draw(detector_cases(true_counts, device.eta, device.detector_kind), rng, size)
    return tuple(reports.tolist()) if size is None else [tuple(r) for r in reports.tolist()]


class TestEncoding:
    def test_plus_bit_carrier(self):
        s = encoded_pair_state(1, ("a1", "a2"), draw(emission_cases(IDEAL), np.random.default_rng(0)))
        assert abs(s[(0, 1)] - 1 / R2) < 1e-12
        assert abs(s[(1, 0)] - 1 / R2) < 1e-12

    def test_minus_bit_carrier(self):
        s = encoded_pair_state(-1, ("a1", "a2"), draw(emission_cases(IDEAL), np.random.default_rng(0)))
        assert abs(s[(0, 1)] - 1 / R2) < 1e-12
        assert abs(s[(1, 0)] + 1 / R2) < 1e-12

    def test_source_path_matches_closed_form(self):
        for bit in (1, -1):
            physical = encoded_pair_state(bit, ("x", "y"), 1)
            direct = {(0, 1): 1 / R2, (1, 0): bit / R2}  # (|01> + bit|10>)/sqrt(2)
            for occ in ((0, 1), (1, 0)):
                assert abs(physical[occ] - direct[occ]) < 1e-12

    def test_forced_two_photon_emission(self):
        s = encoded_pair_state(1, ("a1", "a2"), 2)
        assert abs(s[(2, 0)] - 0.5) < 1e-12
        assert abs(s[(1, 1)] - 1 / R2) < 1e-12
        assert abs(s[(0, 2)] - 0.5) < 1e-12
        minus = encoded_pair_state(-1, ("a1", "a2"), 2)
        assert abs(minus[(1, 1)] + 1 / R2) < 1e-12
        assert abs(minus[(2, 0)] - 0.5) < 1e-12

    def test_two_photon_probability_sampled(self):
        rng = np.random.default_rng(3)
        device = DeviceModel(p2=0.25)
        doubles = int((draw(emission_cases(device), rng, 4000) == 2).sum())
        assert abs(doubles / 4000 - 0.25) < 0.03


class TestInference:
    @pytest.mark.parametrize(
        "alice,bob,m,expect",
        [
            (1, 1, 1, 1),
            (1, 2, 1, -1),
            (2, 1, -1, 1),
            (2, 2, -1, -1),
            (1, 1, -1, -1),
            (2, 1, 1, -1),
        ],
    )
    def test_table(self, alice, bob, m, expect):
        assert infer_bit(alice, bob, m) == expect

    def test_invalid_click(self):
        with pytest.raises(ValueError):
            infer_bit(0, 1, 1)


class TestDevices:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceModel(p2=1.5)
        with pytest.raises(ValueError):
            DeviceModel(eta=-0.1)
        with pytest.raises(ValueError):
            DeviceModel(detector_kind="apd")

    def test_threshold_merges_multiphoton(self):
        rng = np.random.default_rng(0)
        device = DeviceModel(detector_kind="threshold")
        assert detected_counts((2, 0), device, rng) == (1, 0)
        assert detected_counts((1, 1), device, rng) == (1, 1)

    def test_pnr_with_unit_efficiency_is_exact(self):
        rng = np.random.default_rng(0)
        assert detected_counts((2, 1), IDEAL, rng) == (2, 1)

    def test_loss_thins_counts(self):
        rng = np.random.default_rng(5)
        device = DeviceModel(eta=0.5)
        seen = detected_counts((1, 1), device, rng, 2000)
        mean = sum(a + b for a, b in seen) / len(seen)
        assert abs(mean - 1.0) < 0.1


class TestRound:
    def test_acceptance_iff_one_photon_each(self):
        cfg = honest_config()
        r = RoundEngine(cfg, NullAttack()).rounds(0, 500)
        one_each = (r.alice_counts.sum(axis=1) == 1) & (r.bob_counts.sum(axis=1) == 1)
        assert np.array_equal(r.accepted, one_each)
        assert np.array_equal(r.announcement != 0, r.accepted)
        assert np.array_equal(r.inferred != 0, r.accepted)

    def test_honest_inference_is_deterministic(self):
        cfg = honest_config()
        r = RoundEngine(cfg, NullAttack()).rounds(0, 2000)
        accepted = r.accepted
        assert np.array_equal(r.inferred[accepted], r.n[accepted])
        assert not r.photon_anomaly[accepted].any()
        assert accepted.sum() > 0

    def test_honest_clicks_never_cross_for_equal_bits(self):
        # conditioned on acceptance, (D_a1,D_b1) or (D_a2,D_b2) for m = n
        cfg = honest_config()
        r = RoundEngine(cfg, NullAttack()).rounds(0, 4000)
        rows = r.accepted & (r.n == r.m)
        alice = r.announcement[rows]
        bob = np.where(r.bob_counts[rows, 0] == 1, 1, 2)
        assert set(zip(alice.tolist(), bob.tolist())) == {(1, 1), (2, 2)}

    def test_hook_identity_matches_base(self):
        cfg = honest_config()
        a = RoundEngine(cfg, NullAttack()).rounds(0, 300)
        b = RoundEngine(cfg, Attack()).rounds(0, 300)
        assert record_dicts(a) == record_dicts(b)


class TestControls:
    def test_announce_control_never_flags_honest(self):
        cfg = honest_config(control_announce_fraction=0.5)
        records, summary = run_session(honest_config(rounds=4000, control_announce_fraction=0.5))
        assert summary.controls_run["announce-bit"] > 0
        assert summary.controls_flagged["announce-bit"] == 0

    def test_control_announce_op(self):
        # an announce-bit control flags exactly the accepted rounds whose
        # inference disagrees with the bit Alice reveals
        cfg = honest_config(
            rounds=2000, attack=AttackStrategy("phase", math.pi / 2), control_announce_fraction=1.0
        )
        records, _ = run_session(cfg)
        controls = records.control_kind != 0
        assert records.accepted[controls].all()
        assert np.array_equal(records.control_flagged[controls], (records.inferred != records.n)[controls])
        assert set(records.control_flagged[controls].tolist()) == {False, True}

    def test_count_control_honest_statistics(self):
        cfg = honest_config(rounds=20000, control_count_fraction=1.0)
        records, summary = run_session(cfg)
        assert (records.control_kind == CONTROL_KINDS.index("photon-count-check")).all()
        assert not records.control_flagged.any()  # exact one-photon correlation holds
        # (stored, incoming) totals at Bob's side
        totals = np.bincount(records.bob_counts.sum(axis=1), minlength=3)
        n = len(records)
        assert abs(totals[0] / n - 0.25) < 0.02
        assert abs(totals[1] / n - 0.50) < 0.02
        assert abs(totals[2] / n - 0.25) < 0.02

    def test_count_control_flags_severed_channel(self):
        class ChannelCut(Attack):
            # both traveling rails dumped; the parties receive vacuum
            modes = ("v1", "v2")
            rails = ("v1", "v2")

        cfg = honest_config(seed=2, control_count_fraction=1.0)
        rec = RoundEngine(cfg, ChannelCut()).rounds(0, 400)
        # nothing arrives on the cut channel: (stored, incoming) totals 0 or 1
        assert (rec.bob_counts[:, 1] == 0).all() and np.isin(rec.bob_counts.sum(axis=1), (0, 1)).all()
        assert (rec.control_kind == CONTROL_KINDS.index("photon-count-check")).all()
        rate = int(rec.control_flagged.sum()) / len(rec)
        assert rate > 0.5  # both one-photon correlations break independently

    def test_count_control_round_record_shape(self):
        cfg = honest_config(seed=1, control_count_fraction=1.0)
        rec = RoundEngine(cfg, NullAttack()).rounds(0, 1)
        assert rec.accepted.tolist() == [False]
        assert rec.announcement.tolist() == [0] and rec.inferred.tolist() == [0]  # 0 codes None
        assert [CONTROL_KINDS[k] for k in rec.control_kind.tolist()] == ["photon-count-check"]
        assert rec.photon_anomaly.tolist() == [False]


class TestStatistics:
    def test_sift_rate_and_qber(self):
        records, summary = run_session(honest_config(rounds=30000))
        assert abs(summary.sift_rate - 0.5) < 0.015
        assert summary.qber == 0.0

    def test_announcement_independent_of_bit(self):
        records, _ = run_session(honest_config(rounds=30000, seed=13))
        mi = analysis.announcement_bit_mutual_information(records)
        assert mi < 0.002

    @pytest.mark.parametrize("eta", [0.5, 0.8])
    def test_detector_efficiency_scaling(self, eta):
        device = DeviceModel(eta=eta)
        records, summary = run_session(
            honest_config(rounds=30000, device_alice=device, device_bob=device)
        )
        assert abs(summary.sift_rate - 0.5 * eta * eta) < 0.015
        assert summary.qber == 0.0

    def test_two_photon_rounds_never_accepted_with_pnr(self):
        cfg = honest_config(rounds=5000, device_alice=DeviceModel(p2=1.0))
        records, summary = run_session(cfg)
        assert summary.accepted == 0
        totals = records.alice_counts.sum(axis=1) + records.bob_counts.sum(axis=1)
        assert records.photon_anomaly[totals != 2].all()

    def test_threshold_detectors_keep_honest_rate(self):
        device = DeviceModel(detector_kind="threshold")
        records, summary = run_session(
            honest_config(rounds=20000, device_alice=device, device_bob=device)
        )
        assert abs(summary.sift_rate - 0.5) < 0.015
        assert summary.qber == 0.0


class TestSession:
    def test_sifted_keys_identical_honest(self):
        records, _ = run_session(honest_config(rounds=10000))
        alice, bob = analysis.sifted_keys(records)
        assert len(alice) > 4000
        assert alice == bob

    def test_single_accepted_round_efficiency_tally(self):
        for seed in range(20):
            records, summary = run_session(SessionConfig(rounds=1, seed=seed))
            if records.accepted[0]:
                eff = summary.efficiency
                assert (eff.q_t, eff.b_t, eff.b_s) == (2, 1, 1)
                assert abs(eff.value - 1 / 3) < 1e-12
                return
        pytest.fail("no accepted single round in 20 seeds")

    def test_record_wire_format(self):
        records, _ = run_session(honest_config(rounds=50, control_announce_fraction=0.3))
        for d in record_dicts(records):
            assert list(d) == [
                "round", "n", "m", "alice_counts", "bob_counts", "accepted",
                "announcement", "inferred", "control_kind", "control_flagged",
                "eve_knows_n", "photon_anomaly",
            ]
            json.dumps(d)  # must be serializable as-is
            if d["accepted"]:
                assert d["announcement"] in ("Da1", "Da2")
            else:
                assert d["announcement"] is None

    def test_fixed_seed_reproducible(self):
        a, sa = run_session(honest_config(rounds=2000, seed=99))
        b, sb = run_session(honest_config(rounds=2000, seed=99))
        assert record_dicts(a) == record_dicts(b)
        assert sa.to_json_dict() == sb.to_json_dict()

    def test_sharded_equals_single(self):
        cfg = honest_config(rounds=3000, seed=5, control_announce_fraction=0.2)
        single, ssum = run_session(cfg)
        for shards in (2, 3, 7):
            sharded, shsum = run_session_sharded(cfg, shards)
            assert record_dicts(sharded) == record_dicts(single)
            assert shsum.to_json_dict() == ssum.to_json_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(rounds=0, seed=1)
        with pytest.raises(ValueError):
            SessionConfig(rounds=10, seed=1, control_count_fraction=2.0)


def assert_same_rounds(a, b):
    assert len(a) == len(b)
    for name in protocol.Rounds.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


def jsonl(rounds):
    return "".join(rounds.jsonl_chunks())


LOSSY = DeviceModel(p2=0.3, detector_kind="threshold", eta=0.8)


def shard_config(kind):
    return SessionConfig(
        rounds=150, seed=19,
        attack=AttackStrategy(kind, phi=1.1 if kind == "phase" else 0.0),
        device_alice=LOSSY, device_bob=LOSSY,
        control_announce_fraction=0.3, control_count_fraction=0.2,
    )


class TestShardExactness:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_any_shard_count_gives_identical_output(self, kind):
        cfg = shard_config(kind)
        single, summary = run_session(cfg)
        assert {CONTROL_KINDS[k] for k in single.control_kind.tolist() if k} == {analysis.ANNOUNCE, analysis.COUNT}
        for shards in (1, 2, 3, 7, cfg.rounds):  # the last: one round per shard
            sharded, sharded_summary = run_session_sharded(cfg, shards)
            assert jsonl(sharded) == jsonl(single)
            assert json.dumps(sharded_summary.to_json_dict()) == json.dumps(summary.to_json_dict())
            assert_same_rounds(sharded, single)

    @pytest.mark.parametrize("kind", ["mitm", "devil"])
    def test_block_equals_rows_of_the_whole(self, kind):
        engine = RoundEngine(shard_config(kind))
        whole = engine.rounds(0, 150)
        for a, b in ((0, 150), (0, 1), (37, 38), (40, 40), (13, 101), (149, 150)):
            assert_same_rounds(engine.rounds(a, b), whole[a:b])
        assert engine.rounds(13, 101).index.tolist() == list(range(13, 101))

    def test_slices_only(self):
        whole = RoundEngine(shard_config("mitm")).rounds(0, 20)
        assert len(whole[5:9]) == 4
        with pytest.raises(TypeError):
            whole[0]
        with pytest.raises(TypeError):
            list(whole)

    def test_numpy_pass_size_does_not_change_rounds(self, monkeypatch):
        cfg = shard_config("devil")
        whole = RoundEngine(cfg).rounds(0, 150)
        monkeypatch.setattr(protocol, "BLOCK_ROUNDS", 7)
        assert_same_rounds(RoundEngine(cfg).rounds(0, 150), whole)


class TestMemory:
    def test_session_peak_stays_near_its_columns(self):
        # Each pass of BLOCK_ROUNDS is written into columns allocated once,
        # so the passes and their concatenation never coexist.
        engine = RoundEngine(SessionConfig(rounds=10**6, seed=3, attack=AttackStrategy("mitm")))
        tracemalloc.start()
        try:
            rounds = engine.rounds(0, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = [getattr(rounds, name) for name in protocol.Rounds.__dataclass_fields__]
        assert peak <= 1.2 * sum(c.nbytes for c in columns if c is not None)

    def test_passes_fill_an_offset_block(self, monkeypatch):
        cfg = shard_config("mitm")
        whole = RoundEngine(cfg).rounds(0, 150)
        monkeypatch.setattr(protocol, "BLOCK_ROUNDS", 7)
        assert_same_rounds(RoundEngine(cfg).rounds(13, 101), whole[13:101])


class TestUniformStream:
    def test_round_reads_its_philox_slots(self):
        # round i reads the 12 doubles at offset 12*i of the stream keyed by the seed
        stream = np.random.Generator(np.random.Philox(key=99)).random(12 * 20).reshape(20, 12)
        assert np.array_equal(protocol.round_uniforms(99, 5, 20), stream[5:])

    def test_seed_range(self):
        SessionConfig(rounds=1, seed=2**64 - 1)
        with pytest.raises(ValueError):
            SessionConfig(rounds=1, seed=2**64)
        with pytest.raises(ValueError):
            SessionConfig(rounds=1, seed=-1)

    def test_attack_with_too_many_bits_rejected(self):
        class Chatty(Attack):
            bit_cases = (protocol.BIT_CASES,) * (protocol.LATENT_SLOTS - 3)

        with pytest.raises(ValueError):
            RoundEngine(honest_config(rounds=1), Chatty())
