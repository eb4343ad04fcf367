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
import reference_optics

from vopqkd import analysis, cli, fock, protocol
from vopqkd.attacks import AttackStrategy, build
from vopqkd.fock import BeamSplitter, PhaseShift
from vopqkd.protocol import DeviceModel, SessionConfig
from wire_form import wire_text

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
    honest = AttackStrategy()
    attack = build(honest)
    assert attack.rails == ("b2", "a2")
    tables = reference_optics.tables(
        protocol.build_latents(attack, protocol.latent_tables(SCENARIOS["honest"], attack), True)
    )
    for n in (1, -1):
        for m in (1, -1):
            # the permanent reference's state over (a1, a2, b1, b2); Eve's modes stay empty
            state = {
                occ[:4]: a for occ, a in reference_optics.state(honest, (n, m, 1, 1, ())).items()
            }
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
            assert set(state) == support  # ket/sign structure
            for occ, value in expected.items():
                assert abs(state.get(occ, 0.0) - value) <= 1e-12
            # the sampler's per-latent distribution (the kernel's table) is
            # the Born rule of this state, on ports (a1, b2, b1, a2)
            dist = tables[(n, m, 1, 1, ())]
            for occ, value in expected.items():
                assert abs(dist.get((occ[0], occ[3], occ[2], occ[1]), 0.0) - value**2) <= 1e-12


@criterion(2, "honest run: sift 0.5, QBER 0, blind announcements, E = 1/3")
def test_honest_protocol():
    records, summary = get_session("honest")
    assert abs(summary.sift_rate - 0.5) <= 0.01
    assert summary.qber == 0.0
    announcements = records.announcement[records.accepted]
    first_clicks = int((announcements == 1).sum())
    assert abs(first_clicks / len(announcements) - 0.5) <= 0.01
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
    first_control = np.flatnonzero(records_pi.control_kind != 0)[0]
    assert records_pi.control_flagged[first_control]

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
    learned = records.eve_learned != 0
    assert np.array_equal(records.eve_learned[learned], records.n[learned])


@criterion(5, "adaptive devil: exact count complementarity, half the rounds anomalous")
def test_adaptive_devil():
    records, _ = get_session("devil")
    normal = records.control_kind == 0
    totals = records.alice_counts.sum(axis=1) + records.eve_counts[:, :2].sum(axis=1)
    assert (totals[normal] == 2).all()
    dist = analysis.exact_readout_distribution(SCENARIOS["devil"])
    exact_anomaly = 1.0 - sum(
        p for (ra, rb), p in dist.items()
        if (sum(ra), sum(rb)) in protocol.HONEST_COINCIDENCE_SUPPORT
    )
    empirical = int(records.photon_anomaly.sum()) / len(records)
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
        # a random network on (x, y, z), random photons in, then the splitter
        gates = [
            BeamSplitter(*rng.choice(registry, size=2, replace=False)) if rng.random() < 0.5
            else PhaseShift(str(rng.choice(registry)), float(rng.uniform(0, 2 * math.pi)))
            for _ in range(rng.integers(0, 6))
        ]
        inputs = [rng.integers(0, 3, size=rng.integers(1, 4))]
        u = fock.network_unitary(registry, gates + [BeamSplitter("x", "y")])
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-10)
        state = fock.evolve_latents(fock.network_unitary(registry, gates), inputs)
        mixed = fock.evolve_latents(u, inputs)
        assert abs(np.linalg.norm(mixed) - 1.0) <= 1e-10
        back = fock.evolve_latents(fock.network_unitary(registry, gates + [BeamSplitter("x", "y")] * 2), inputs)
        assert np.max(np.abs(back - state)) <= 1e-10
        shifted = fock.network_unitary(registry, gates + [PhaseShift("z", float(rng.uniform(0, 2 * math.pi)))])
        assert abs(np.linalg.norm(fock.evolve_latents(shifted, inputs)) - 1.0) <= 1e-10
    hom = fock.evolve_latents(fock.network_unitary(("x", "y"), [BeamSplitter("x", "y")]), [[0, 1]])[:, 0]
    one_each = fock.occupation_space(2, 2).tolist().index([1, 1])
    assert abs(hom[one_each]) <= fock.PRUNE_EPS

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
    assert wire_text(single) == wire_text(sharded)
    assert json.dumps(summary_single.to_json_dict()) == json.dumps(summary_sharded.to_json_dict())
