"""Hypothesis property tests: Fock-algebra invariants and the invariants of
the shared latent kernel (case tables, per-latent distributions, oracle)."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from vopqkd import analysis, fock, protocol
from vopqkd.attacks import BIT_CASES, ATTACK_KINDS, CHANNEL_NAMES, AttackStrategy, build
from vopqkd.protocol import DETECTOR_KINDS, DeviceModel, SessionConfig

PROPERTY = settings(max_examples=40, deadline=None)
KERNEL = settings(max_examples=15, deadline=None)

REGISTRY = ("x", "y", "z")

occupations = st.tuples(*[st.integers(0, 2)] * len(REGISTRY))
amplitudes = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@st.composite
def states(draw):
    support = draw(st.dictionaries(occupations, amplitudes, min_size=1, max_size=12))
    norm = math.sqrt(sum(abs(a) ** 2 for a in support.values()))
    if norm < 1e-3:
        support, norm = {(1, 0, 0): 1.0}, 1.0
    return fock.from_amplitudes(REGISTRY, {k: a / norm for k, a in support.items()})


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
@given(states(), st.sampled_from(list(itertools.permutations(REGISTRY, 2))))
def test_beam_splitter_preserves_norm_and_is_self_inverse(state, modes):
    mixed = fock.apply_beam_splitter(state, *modes)
    assert abs(mixed.norm() - 1.0) < 1e-10
    back = fock.apply_beam_splitter(mixed, *modes)
    for occ in set(back.amplitudes) | set(state.amplitudes):
        assert abs(back.amplitude(occ) - state.amplitude(occ)) < 1e-10


@PROPERTY
@given(states(), st.sampled_from(REGISTRY), st.floats(-10.0, 10.0))
def test_phase_shift_preserves_norm(state, mode, phi):
    assert abs(fock.apply_phase_shift(state, mode, phi).norm() - 1.0) < 1e-10


@KERNEL
@given(attacks, devices, devices)
def test_every_case_table_sums_to_one(strategy, alice, bob):
    attack = build(strategy)
    for table in protocol.latent_tables(scenario(strategy, alice, bob), attack):
        assert_table(table)
    for device in (alice, bob):
        for counts in itertools.product(range(fock.OCCUPANCY_CAP + 1), repeat=2):
            assert_table(protocol.detector_cases(counts, device.eta, device.detector_kind))
    if hasattr(attack, "resend_cases"):
        for eve_total in range(4):
            assert_table(attack.resend_cases(eve_total))
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
        dist = protocol.latent_distribution(attack, n, m, na, nb, bits, recombine)
        assert abs(dist.total() - 1.0) < 1e-10
        eve = {}
        for occ, p in dist.entries.items():
            eve[occ[4:]] = eve.get(occ[4:], 0.0) + p
        marginals.append(eve)
    for key in set(marginals[0]) | set(marginals[1]):
        assert abs(marginals[0].get(key, 0.0) - marginals[1].get(key, 0.0)) < 1e-12
