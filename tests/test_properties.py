"""Hypothesis property tests: the kernel's gate invariants and its
amplitudes against the independent permanent reference on random networks,
the invariants of the shared latent tables (case tables, per-latent
distributions, oracle), and the scenario configuration's file round trip
and validation."""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import reference_optics

from hypothesis import given, settings
from hypothesis import strategies as st

from vopqkd import analysis, cli, fock, protocol
from vopqkd.attacks import BIT_CASES, ATTACK_KINDS, CHANNEL_NAMES, AttackStrategy, build
from vopqkd.cli import FORMATS, ScenarioConfig
from vopqkd.fock import BeamSplitter, PhaseShift
from vopqkd.protocol import DETECTOR_KINDS, SEED_LIMIT, DeviceModel, SessionConfig

PROPERTY = settings(max_examples=40, deadline=None)
KERNEL = settings(max_examples=15, deadline=None)
CONFIG = settings(max_examples=60, deadline=None)

REGISTRY = ("x", "y", "z")
MODES = tuple(f"m{k}" for k in range(8))


@st.composite
def networks(draw, modes=MODES, max_photons=6):
    """(modes, gates, inputs): a random gate list on the first 1-8 modes
    and 0-6 photons on random input ports."""
    modes = modes[: draw(st.integers(1, len(modes)))]
    splitters = st.builds(BeamSplitter, st.sampled_from(modes), st.sampled_from(modes)).filter(
        lambda g: g.in1 != g.in2
    )
    phases = st.builds(PhaseShift, st.sampled_from(modes), st.floats(-10.0, 10.0))
    gates = draw(st.lists((splitters | phases) if len(modes) > 1 else phases, max_size=12))
    inputs = draw(st.lists(st.integers(0, len(modes) - 1), max_size=max_photons))
    return modes, gates, inputs


def kernel_amplitudes(modes, gates, inputs):
    return fock.evolve_latents(fock.network_unitary(modes, gates), [inputs])[:, 0]


probabilities = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
devices = st.builds(
    DeviceModel, p2=probabilities, detector_kind=st.sampled_from(DETECTOR_KINDS), eta=probabilities
)
attacks = st.sampled_from([k for k in ATTACK_KINDS if k != "phase"]).map(AttackStrategy) | st.builds(
    AttackStrategy,
    kind=st.just("phase"),
    phi=st.floats(0.0, math.pi),
    channels=st.sampled_from([(c,) for c in CHANNEL_NAMES] + [CHANNEL_NAMES]),
)


def scenario(strategy, alice, bob):
    return SessionConfig(rounds=1, seed=0, attack=strategy, device_alice=alice, device_bob=bob)


def assert_table(table):
    assert all(p > 0.0 for _, p in table)
    assert abs(sum(p for _, p in table) - 1.0) < 1e-12


@PROPERTY
@given(networks(REGISTRY, 3), st.sampled_from(list(itertools.permutations(REGISTRY, 2))))
def test_beam_splitter_preserves_norm_and_is_self_inverse(network, modes):
    _, gates, inputs = network
    mixed = kernel_amplitudes(REGISTRY, gates + [BeamSplitter(*modes)], inputs)
    assert abs(np.linalg.norm(mixed) - 1.0) < 1e-10
    back = kernel_amplitudes(REGISTRY, gates + [BeamSplitter(*modes)] * 2, inputs)
    assert np.max(np.abs(back - kernel_amplitudes(REGISTRY, gates, inputs))) < 1e-10


@PROPERTY
@given(networks(REGISTRY, 3), st.sampled_from(REGISTRY), st.floats(-10.0, 10.0))
def test_phase_shift_preserves_norm(network, mode, phi):
    _, gates, inputs = network
    assert abs(np.linalg.norm(kernel_amplitudes(REGISTRY, gates + [PhaseShift(mode, phi)], inputs)) - 1.0) < 1e-10


@PROPERTY
@given(networks())
def test_unitary_gate_outputs_are_valid_states(network):
    # The network's matrix is unitary, and each output is a unit vector over
    # the occupations of its photons.
    modes, gates, inputs = network
    u = fock.network_unitary(modes, gates)
    assert np.allclose(u.conj().T @ u, np.eye(len(modes)), atol=1e-12)
    amps = kernel_amplitudes(modes, gates, inputs)
    assert amps.shape == (len(fock.occupation_space(len(modes), len(inputs))),)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


@PROPERTY
@given(networks(REGISTRY, 3), networks(REGISTRY, 3))
def test_tensor_output_is_a_valid_state(first, second):
    # Two networks on disjoint modes, run as one: each joint amplitude is
    # the product of the two parts' amplitudes.
    (_, gates1, inputs1), (_, gates2, inputs2) = first, second
    renamed = dict(zip(REGISTRY, ("u", "v", "w")))
    gates2 = [g._replace(**{f: renamed[getattr(g, f)] for f in ("in1", "in2", "mode") if f in g._fields}) for g in gates2]
    parts = [
        dict(zip(map(tuple, fock.occupation_space(3, len(inputs)).tolist()), kernel_amplitudes(modes, gates, inputs)))
        for modes, gates, inputs in ((REGISTRY, gates1, inputs1), (("u", "v", "w"), gates2, inputs2))
    ]
    joint = kernel_amplitudes(REGISTRY + ("u", "v", "w"), gates1 + gates2, inputs1 + [3 + i for i in inputs2])
    for occ, a in zip(fock.occupation_space(6, len(inputs1) + len(inputs2)).tolist(), joint):
        expected = parts[0].get(tuple(occ[:3]), 0.0) * parts[1].get(tuple(occ[3:]), 0.0)
        assert abs(a - expected) < 1e-12


@settings(max_examples=200, deadline=None)
@given(networks())
def test_kernel_equals_the_permanent_reference_on_random_networks(network):
    modes, gates, inputs = network
    # the reference reads each gate as a plain tuple, (in1, in2) or (mode, phi)
    patterns, reference = reference_optics.amplitudes(reference_optics.network(modes, gates), inputs)
    want = dict(zip(map(tuple, patterns.tolist()), reference))
    space = fock.occupation_space(len(modes), len(inputs)).tolist()
    assert len(space) == len(want)
    assert np.max(np.abs(kernel_amplitudes(modes, gates, inputs) - [want[tuple(occ)] for occ in space])) < 1e-12


@KERNEL
@given(attacks, devices, devices)
def test_every_case_table_sums_to_one(strategy, alice, bob):
    attack = build(strategy)
    for table in protocol.latent_tables(scenario(strategy, alice, bob), attack):
        assert_table(table)
    for device in (alice, bob):
        for counts in itertools.product(range(fock.OCCUPANCY_CAP + 1), repeat=2):
            assert_table(protocol.detector_cases(counts, device.eta, device.detector_kind))
    assert_table(BIT_CASES)


@KERNEL
@given(attacks, devices, devices)
def test_oracle_is_normalized_and_its_marginals_agree(strategy, alice, bob):
    cfg = scenario(strategy, alice, bob)
    readout = analysis.exact_readout_distribution(cfg)
    assert abs(sum(readout.values()) - 1.0) < 1e-10
    if not build(strategy).eve_ports:
        return
    eve_marginal = {}
    for (_, eve), p in analysis.exact_joint_distribution(cfg).items():
        eve_marginal[eve] = eve_marginal.get(eve, 0.0) + p
    exact_eve = analysis.exact_eve_count_distribution(cfg)
    for key in set(eve_marginal) | set(exact_eve):
        assert abs(eve_marginal.get(key, 0.0) - exact_eve.get(key, 0.0)) < 1e-12


@KERNEL
@given(attacks, st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.data())
def test_eve_counts_do_not_depend_on_recombination(strategy, na, nb, data):
    # Eve's ports are disjoint from the parties' recombiners, so whether a
    # round is a count control cannot change her count distribution.
    attack = build(strategy)
    n, m = data.draw(st.sampled_from([1, -1])), data.draw(st.sampled_from([1, -1]))
    bits = tuple(data.draw(st.sampled_from([v for v, _ in cases])) for cases in attack.bit_cases)
    marginals = []
    for recombine in (True, False):
        dist = reference_optics.distribution(strategy, (n, m, na, nb, bits), recombine)
        assert abs(sum(dist.values()) - 1.0) < 1e-10
        eve = {}
        for occ, p in dist.items():
            eve[occ[4:]] = eve.get(occ[4:], 0.0) + p
        marginals.append(eve)
    for key in set(marginals[0]) | set(marginals[1]):
        assert abs(marginals[0].get(key, 0.0) - marginals[1].get(key, 0.0)) < 1e-12


@KERNEL
@given(attacks, devices, devices, st.booleans(), st.data())
def test_kernel_latent_matches_the_sparse_reference(strategy, alice, bob, recombine, data):
    attack = build(strategy)
    latents = protocol.build_latents(
        attack, protocol.latent_tables(scenario(strategy, alice, bob), attack), recombine
    )
    i = data.draw(st.integers(0, len(latents.keys) - 1))
    entries = slice(latents.bounds[i], latents.bounds[i + 1])
    # The name is kept from the sparse-algebra reference this test used to run.
    reference = reference_optics.distribution(strategy, latents.keys[i], recombine)
    assert [tuple(row) for row in latents.rows[latents.row[entries]].tolist()] == list(reference)
    assert np.max(np.abs(latents.p[entries] - list(reference.values()))) < 1e-12


# ---------------------------------------------------------------------------
# ScenarioConfig: config-file round trip and validation
# ---------------------------------------------------------------------------

unit_interval = st.floats(0.0, 1.0) | st.sampled_from([0, 1])
channel_sets = st.sampled_from([(c,) for c in CHANNEL_NAMES] + [CHANNEL_NAMES])


@st.composite
def scenario_configs(draw, max_rounds=10**9):
    """Valid scenarios: every one parses through `--config`."""
    attack = draw(st.sampled_from(ATTACK_KINDS))
    phase = attack == "phase"
    return ScenarioConfig(
        rounds=draw(st.integers(1, max_rounds)),
        seed=draw(st.integers(0, SEED_LIMIT - 1)),
        attack=attack,
        phi=draw(st.floats(0.0, math.pi)) if phase else 0.0,
        channels=draw(channel_sets) if phase else ScenarioConfig.channels,
        p2=draw(unit_interval),
        detector=draw(st.sampled_from(DETECTOR_KINDS)),
        eta=draw(unit_interval),
        control_announce_fraction=draw(unit_interval),
        control_count_fraction=draw(unit_interval),
        abort_on_detection=draw(st.booleans()),
        out=draw(st.none() | st.text(max_size=12)),
        format=draw(st.sampled_from(FORMATS)),
    )


@contextlib.contextmanager
def config_file(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(data, f)
        yield path
    finally:
        os.remove(path)


@CONFIG
@given(scenario_configs())
def test_scenario_config_round_trips_through_json_and_config_file(cfg):
    flat = json.loads(json.dumps(cfg.to_flat_dict()))
    assert ScenarioConfig.from_flat_dict(flat) == cfg
    with config_file(flat) as path:
        assert cli.parse_config(cli.build_parser().parse_args(["run", "--config", path])) == cfg


json_values = (
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=8)
    | st.lists(st.integers(0, 3), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2)
)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _not_number(v):
    return not _is_number(v)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


outside_unit = st.floats().filter(lambda x: not 0.0 <= x <= 1.0) | json_values.filter(_not_number)
# For each key, JSON values that are of the wrong type or out of range for a
# `run`.
INVALID_VALUES = {
    "rounds": st.integers(max_value=0) | json_values.filter(lambda v: not _is_int(v)),
    "seed": (
        st.integers(max_value=-1) | st.integers(min_value=SEED_LIMIT)
        | json_values.filter(lambda v: not _is_int(v))
    ),
    "attack": json_values.filter(lambda v: v not in ATTACK_KINDS),
    "phi": st.floats().filter(lambda x: not 0.0 <= x <= math.pi) | json_values.filter(_not_number),
    "channels": (
        json_values.filter(lambda v: not isinstance(v, (str, list)))
        | st.lists(st.text(max_size=12), max_size=2).filter(lambda v: not v or not set(v) <= set(CHANNEL_NAMES))
        | st.lists(st.integers(), min_size=1, max_size=2)
    ),
    "p2": outside_unit,
    "detector": json_values.filter(lambda v: v not in DETECTOR_KINDS),
    "eta": outside_unit,
    "control_announce_fraction": outside_unit,
    "control_count_fraction": outside_unit,
    "abort_on_detection": json_values.filter(lambda v: not isinstance(v, bool)),
    "out": json_values.filter(lambda v: v is not None and not isinstance(v, str)),
    "format": json_values.filter(lambda v: v not in ("json", "jsonl")),  # csv belongs to oracle
}


@CONFIG
@given(scenario_configs(max_rounds=20), st.sampled_from(sorted(INVALID_VALUES)), st.data())
def test_invalid_config_value_is_a_usage_error(cfg, key, data):
    flat = cfg.to_flat_dict()
    flat.update(out=None, format="json")
    flat[key] = data.draw(INVALID_VALUES[key], label=key)
    stdout, stderr = io.StringIO(), io.StringIO()
    with config_file(flat) as path, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["run", "--config", path])
    assert code == cli.EXIT_USAGE
    assert stderr.getvalue().startswith("error: ") and "Traceback" not in stderr.getvalue()
    assert stdout.getvalue() == ""
