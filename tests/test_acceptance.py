"""Acceptance gate: every headline claim at its stated tolerance.

Each test covers one numbered criterion, runs at N = 100,000 rounds with
fixed seeds, and prints a PASS/FAIL line (visible with `pytest -s`).
Sessions are shared across criteria through a module-level cache.
"""

import functools
import json
import math

import numpy as np
import pytest

from vopqkd import analysis, cli, fock, protocol
from vopqkd.attacks import AttackStrategy, NullAttack
from vopqkd.protocol import DeviceModel, SessionConfig

N = 100_000
SEED = 424243
R2 = math.sqrt(2.0)

THRESHOLD = DeviceModel(detector_kind="threshold")

SCENARIOS = {
    "honest": SessionConfig(rounds=N, seed=SEED),
    "phase-pi6": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("phase", math.pi / 6)),
    "phase-pi4": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("phase", math.pi / 4)),
    "phase-pi3": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("phase", math.pi / 3)),
    "phase-pi2": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("phase", math.pi / 2)),
    "phase-2pi3": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("phase", 2 * math.pi / 3)),
    "phase-pi": SessionConfig(
        rounds=N, seed=SEED, attack=AttackStrategy("phase", math.pi),
        control_announce_fraction=0.1,
    ),
    "phase-pi2-controls": SessionConfig(
        rounds=N, seed=SEED, attack=AttackStrategy("phase", math.pi / 2),
        control_announce_fraction=0.5,
    ),
    "mitm": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("mitm")),
    "devil": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("devil")),
    "short-circuit": SessionConfig(rounds=N, seed=SEED, attack=AttackStrategy("short-circuit")),
    "short-circuit-controls": SessionConfig(
        rounds=N, seed=SEED, attack=AttackStrategy("short-circuit"),
        control_announce_fraction=0.2, control_count_fraction=0.2,
    ),
    "two-photon-pnr": SessionConfig(rounds=N, seed=SEED, device_alice=DeviceModel(p2=1.0)),
    "two-photon-threshold": SessionConfig(
        rounds=N, seed=SEED,
        device_alice=DeviceModel(p2=1.0, detector_kind="threshold"), device_bob=THRESHOLD,
    ),
    "eta-0.5": SessionConfig(
        rounds=N, seed=SEED,
        device_alice=DeviceModel(eta=0.5), device_bob=DeviceModel(eta=0.5),
    ),
    "eta-0.8": SessionConfig(
        rounds=N, seed=SEED,
        device_alice=DeviceModel(eta=0.8), device_bob=DeviceModel(eta=0.8),
    ),
}

_SESSIONS = {}


def get_session(name):
    if name not in _SESSIONS:
        _SESSIONS[name] = protocol.run_session(SCENARIOS[name])
    return _SESSIONS[name]


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {num}: {title}")
                raise
            print(f"PASS  criterion {num}: {title}")
        return wrapper
    return deco


def _port_occ(ab1, ab2, ba1, ba2):
    # detector ports map onto rails: (ab1, ab2) = (a1, b2), (ba1, ba2) = (b1, a2);
    # rail registry order is (a1, a2, b1, b2)
    return (ab1, ba2, ba1, ab2)


@criterion(1, "recombined state matches the derived amplitudes exactly")
def test_recombined_state_exactness():
    for n in (1, -1):
        for m in (1, -1):
            state = fock.tensor(
                protocol.encoded_pair_state(n, protocol.ALICE_MODES),
                protocol.encoded_pair_state(m, protocol.BOB_MODES),
            )
            [(state, weight)], to_alice, to_bob = NullAttack().channel(state, ())
            assert weight == 1.0 and (to_alice, to_bob) == ("b2", "a2")
            state = fock.apply_beam_splitter(state, "a1", to_alice)
            state = fock.apply_beam_splitter(state, "b1", to_bob)
            expected = {
                _port_occ(1, 0, 1, 0): (m * n + 1) / 4,
                _port_occ(0, 1, 0, 1): (m * n + 1) / 4,
                _port_occ(1, 0, 0, 1): (m * n - 1) / 4,
                _port_occ(0, 1, 1, 0): (m * n - 1) / 4,
                _port_occ(2, 0, 0, 0): +n * R2 / 4,
                _port_occ(0, 2, 0, 0): -n * R2 / 4,
                _port_occ(0, 0, 2, 0): +m * R2 / 4,
                _port_occ(0, 0, 0, 2): -m * R2 / 4,
            }
            support = {occ for occ, v in expected.items() if abs(v) > 1e-12}
            assert set(state.amplitudes) == support  # ket/sign structure
            for occ, value in expected.items():
                assert abs(state.amplitude(occ) - value) <= 1e-12
            # the sampler's per-latent distribution is the Born rule of this
            # state, on ports (a1, b2, b1, a2)
            dist = protocol.latent_distribution(NullAttack(), n, m, 1, 1, (), recombine=True)
            assert dist.modes == ("a1", "b2", "b1", "a2")
            for occ, value in expected.items():
                assert abs(dist.probability((occ[0], occ[3], occ[2], occ[1])) - value**2) <= 1e-12


@criterion(2, "honest run: sift 0.5, QBER 0, blind announcements, E = 1/3")
def test_honest_protocol():
    records, summary = get_session("honest")
    assert abs(summary.sift_rate - 0.5) <= 0.01
    assert summary.qber == 0.0
    accepted = [r for r in records if r.accepted]
    first_clicks = sum(1 for r in accepted if r.announcement == 1)
    assert abs(first_clicks / len(accepted) - 0.5) <= 0.01
    assert analysis.announcement_bit_mutual_information(records) < 0.001
    eff = summary.efficiency
    assert (eff.q_t, eff.b_t, eff.b_s) == (2, 1, 1)
    assert abs(eff.value - 1 / 3) <= 1e-12
    assert abs(analysis.efficiency(2, 1, 1).value - 1 / 3) <= 1e-12


@criterion(3, "phase attacks: sin^2(phi/2) error law and (1/2)^nu survival")
def test_phase_attacks():
    # phi = pi: every correlation inverted, first control flags
    records_pi, summary_pi = get_session("phase-pi")
    assert summary_pi.qber == 1.0
    first_control = next(r for r in records_pi if r.control is not None)
    assert first_control.control.flagged

    # phi = pi/2: half the sifted bits flip
    _, summary_half = get_session("phase-pi2")
    assert abs(summary_half.qber - 0.5) <= 0.01

    # survival after nu announce controls
    records_ctrl, _ = get_session("phase-pi2-controls")
    flags = analysis.control_flags(records_ctrl, analysis.ANNOUNCE)
    for nu in range(1, 9):
        survival, blocks = analysis.empirical_survival(flags, nu)
        model = 0.5**nu
        sigma = math.sqrt(model * (1.0 - model) / blocks)
        assert abs(survival - model) <= 3.0 * sigma, f"nu={nu}"

    # sweep: error rate follows sin^2(phi/2), monotone, acceptance unmoved
    sweep = [
        ("phase-pi6", math.pi / 6), ("phase-pi4", math.pi / 4), ("phase-pi3", math.pi / 3),
        ("phase-pi2", math.pi / 2), ("phase-2pi3", 2 * math.pi / 3), ("phase-pi", math.pi),
    ]
    rates = []
    for name, phi in sweep:
        _, summary = get_session(name)
        assert abs(summary.qber - math.sin(phi / 2) ** 2) <= 0.01, name
        assert abs(summary.sift_rate - 0.5 * (1 - SCENARIOS[name].control_count_fraction)) <= 0.01
        rates.append(summary.qber)
    assert rates == sorted(rates)


@criterion(4, "intercept/resend: Eve learns half, QBER 1/2, coincidences 1/4")
def test_intercept_resend():
    records, summary = get_session("mitm")
    assert abs(summary.eve_info_per_round - 0.5) <= 0.01
    assert abs(summary.qber - 0.5) <= 0.01
    assert abs(summary.coincidence_histogram.get((1, 1), 0.0) - 0.25) <= 0.01
    learned = [r for r in records if r.eve_learned is not None]
    assert all(r.eve_learned == r.n for r in learned)


@criterion(5, "adaptive devil: exact count complementarity, half the rounds anomalous")
def test_adaptive_devil():
    records, _ = get_session("devil")
    for r in records:
        if r.control is None:
            assert sum(r.alice_counts) + sum(r.eve_counts[:2]) == 2
    dist = analysis.exact_readout_distribution(SCENARIOS["devil"])
    exact_anomaly = 1.0 - sum(
        p for (ra, rb), p in dist.items()
        if (sum(ra), sum(rb)) in protocol.HONEST_COINCIDENCE_SUPPORT
    )
    empirical = sum(1 for r in records if r.photon_anomaly) / len(records)
    assert abs(empirical - exact_anomaly) <= 0.01
    assert abs(empirical - 0.5) <= 0.02


@criterion(6, "short-circuit: silent full leak, count controls flag half")
def test_short_circuit():
    records, summary = get_session("short-circuit")
    assert summary.sift_rate == 1.0
    assert summary.qber == 0.0
    assert summary.eve_info_per_sifted_bit == 1.0

    _, ctrl_summary = get_session("short-circuit-controls")
    assert ctrl_summary.controls_run["announce-bit"] > 0
    assert ctrl_summary.controls_flagged["announce-bit"] == 0
    run = ctrl_summary.controls_run["photon-count-check"]
    rate = ctrl_summary.controls_flagged["photon-count-check"] / run
    sigma = math.sqrt(0.25 / run)
    assert abs(rate - 0.5) <= 3.0 * sigma


@criterion(7, "two-photon emission: PNR rejects all, threshold leaks the oracle rate")
def test_two_photon_emissions():
    _, summary_pnr = get_session("two-photon-pnr")
    assert summary_pnr.accepted == 0
    dist = analysis.exact_readout_distribution(SCENARIOS["two-photon-pnr"])
    assert sum(p for (ra, rb), p in dist.items() if sum(ra) == 1 and sum(rb) == 1) == 0.0

    _, summary_thr = get_session("two-photon-threshold")
    dist_thr = analysis.exact_readout_distribution(SCENARIOS["two-photon-threshold"])
    oracle_accept = sum(p for (ra, rb), p in dist_thr.items() if sum(ra) == 1 and sum(rb) == 1)
    assert abs(summary_thr.sift_rate - oracle_accept) <= 0.01


@criterion(8, "detector efficiency: acceptance 0.5 eta^2, QBER stays 0")
def test_detector_efficiency():
    for name, eta in (("eta-0.5", 0.5), ("eta-0.8", 0.8)):
        _, summary = get_session(name)
        assert abs(summary.sift_rate - 0.5 * eta * eta) <= 0.01, name
        assert summary.qber == 0.0, name


@criterion(9, "unitary property suites and oracle-vs-Monte-Carlo agreement")
def test_property_suites_and_oracle_agreement():
    rng = np.random.default_rng(90)
    registry = ("x", "y", "z")
    for _ in range(1000):
        support = {}
        for _ in range(rng.integers(1, 21)):
            occ = tuple(int(c) for c in rng.integers(0, 3, size=3))
            support[occ] = complex(rng.normal(), rng.normal())
        norm = math.sqrt(sum(abs(a) ** 2 for a in support.values()))
        state = fock.from_amplitudes(registry, {k: v / norm for k, v in support.items()})
        mixed = fock.apply_beam_splitter(state, "x", "y")
        assert abs(mixed.norm() - 1.0) <= 1e-10
        assert {sum(o) for o in mixed.amplitudes} <= {sum(o) for o in state.amplitudes}
        back = fock.apply_beam_splitter(mixed, "x", "y")
        keys = set(back.amplitudes) | set(state.amplitudes)
        assert all(abs(back.amplitude(k) - state.amplitude(k)) <= 1e-10 for k in keys)
        shifted = fock.apply_phase_shift(state, "z", float(rng.uniform(0, 2 * math.pi)))
        assert abs(shifted.norm() - 1.0) <= 1e-10
    hom = fock.apply_beam_splitter(fock.basis_state(("x", "y"), (1, 1)), "x", "y")
    assert (1, 1) not in hom.amplitudes

    for name in SCENARIOS:
        records, _ = get_session(name)
        stages = analysis.oracle_check(SCENARIOS[name], records=records)
        for stage in stages:
            assert stage.tv_distance < 0.01, f"{name}/{stage.name}"


@criterion(10, "fixed seeds give byte-identical outputs, sharded or not")
def test_reproducibility(tmp_path):
    argv = ["run", "--rounds", "20000", "--seed", "77", "--attack", "mitm",
            "--control-announce-fraction", "0.2"]
    for fmt in ("json", "jsonl"):
        paths = [tmp_path / f"{fmt}-{i}.out" for i in (0, 1)]
        for p in paths:
            assert cli.main(argv + ["--format", fmt, "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    cfg = SessionConfig(
        rounds=20000, seed=77, attack=AttackStrategy("mitm"), control_announce_fraction=0.2
    )
    single, summary_single = protocol.run_session(cfg)
    sharded, summary_sharded = protocol.run_session_sharded(cfg, shards=4)
    single_text = "".join(json.dumps(r.to_json_dict()) + "\n" for r in single)
    sharded_text = "".join(json.dumps(r.to_json_dict()) + "\n" for r in sharded)
    assert single_text == sharded_text
    assert json.dumps(summary_single.to_json_dict()) == json.dumps(summary_sharded.to_json_dict())
