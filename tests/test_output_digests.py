"""The seed-to-output mapping, pinned: sha256 digests of the CLI's output
bytes on a small grid (every attack kind, ideal and lossy devices; the
oracle CSV, and JSONL records with both control kinds on). A change that
moves any output byte fails here; a deliberate change of the mapping
updates the digests and says so in the README. The same bytes come out
when the engine's latent tables are built by the independent permanent
reference (`reference_optics`) instead of the batched kernel."""

import hashlib

import pytest
import reference_optics

from vopqkd import cli, protocol
from vopqkd.attacks import ATTACK_KINDS

ATTACKS = {
    "none": [],
    "phase": ["--attack", "phase", "--phi", "1.2", "--channels", "alice-to-bob,bob-to-alice"],
    "mitm": ["--attack", "mitm"],
    "devil": ["--attack", "devil"],
    "short-circuit": ["--attack", "short-circuit"],
}
DEVICES = {"ideal": [], "lossy": ["--p2", "0.3", "--detector", "threshold", "--eta", "0.8"]}
COMMANDS = {
    "oracle": ["oracle"],
    "jsonl": ["run", "--format", "jsonl", "--control-announce-fraction", "0.3", "--control-count-fraction", "0.2"],
}

DIGESTS = {
    ("oracle", "none", "ideal"): "ac149eef714d6b42988a3a5a0fa1cf3c4d6c57c7cf573aeabd25fed1d06d1c46",
    ("oracle", "none", "lossy"): "6b5757170ef0a36246cae28334f623bae516df881cafe4f0b2d01c9c4e469fab",
    ("oracle", "phase", "ideal"): "0762001eb07045947ae58bf73bc9226c497ba4b61d3199fda51c965e56fbaa09",
    ("oracle", "phase", "lossy"): "64fff8042b0fb09a14fe02d672318d209e2166da4c58232c7936a2e0f087ae86",
    ("oracle", "mitm", "ideal"): "c5c51be206e3cea69dd47229653e99475b7e67934d801e74bc42d8d1b0c67d43",
    ("oracle", "mitm", "lossy"): "6bc8a678b3639190f220b95fdd8c66b27301860e012a2e11d9c6d8927a34a0fb",
    ("oracle", "devil", "ideal"): "9437331365f37b122c7d4a442204dd727bc0a4d305292d2ad6663eabfddb7bd7",
    ("oracle", "devil", "lossy"): "18ddfb6e1dca5cfaee7cac117fed4644973640b91f3ac163e14c415b2a8ec4d3",
    ("oracle", "short-circuit", "ideal"): "3a288944481e1c6492518cad6bbc35a115384ad57987fff7c1d77c151cfc9d9b",
    ("oracle", "short-circuit", "lossy"): "a29d08e8558154d3de3acc81e85bb2759de16a30fd8b70be3a40c86fb539b69a",
    ("jsonl", "none", "ideal"): "1937bd149625e981654e063bb778c093bbb398f4cec39bf27e26dde89e8ac629",
    ("jsonl", "none", "lossy"): "82477668fde1d3ee6dc55be9b0fbc312f600b2caaaada7b65520e13aeda5111c",
    ("jsonl", "phase", "ideal"): "08bb19b77fc1367daedf1df932c178282acac0da26cb77c549c9d18481c84c5e",
    ("jsonl", "phase", "lossy"): "63c41841fab401a4574122f8f02b2ec2671a033529971449ced285c76c26dc6c",
    ("jsonl", "mitm", "ideal"): "98eb3f58f6d08ae77017bfcd738987215575ac2fcc3698fd6233d10c9e87e978",
    ("jsonl", "mitm", "lossy"): "0b08864810e7efa539a82077f862c64c730a4c29a2c817c1d32052cb07eb04b1",
    ("jsonl", "devil", "ideal"): "a91c1d4382c14b14da9bb7be9668f94510b17b92b71ed970b9203d75d0311697",
    ("jsonl", "devil", "lossy"): "70ea139622dac95d408175bebcf5e95f2ddb5ecc45151e547a431902e58c0923",
    ("jsonl", "short-circuit", "ideal"): "47eaec3594b5118e1403c30ab23c7d786be89f3ad55512564c9ff14b49c9b655",
    ("jsonl", "short-circuit", "lossy"): "ff0bace1e225179f2850df526819f7a7eaab52dbe4149d676ad5b986b875dd0f",
}


def test_grid_covers_every_attack_kind():
    assert sorted(ATTACKS) == sorted(ATTACK_KINDS)
    assert set(DIGESTS) == {(c, a, d) for c in COMMANDS for a in ATTACKS for d in DEVICES}


def grid_argv(command, attack, device):
    return COMMANDS[command] + ["--rounds", "3000", "--seed", "5"] + ATTACKS[attack] + DEVICES[device]


def output_digest(capsys, command, attack, device):
    assert cli.main(grid_argv(command, attack, device)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command, attack, device", list(DIGESTS))
def test_output_bytes_are_pinned(capsys, command, attack, device):
    assert output_digest(capsys, command, attack, device) == DIGESTS[(command, attack, device)]


@pytest.mark.parametrize("command, attack, device", list(DIGESTS))
def test_sparse_reference_tables_give_the_same_bytes(monkeypatch, capsys, command, attack, device):
    # The name is kept from the sparse-algebra reference this test used to run.
    args = cli.build_parser().parse_args(grid_argv(command, attack, device))
    strategy = cli.parse_config(args).session_config().attack

    def reference_build(attack, tables, recombine):
        assert attack.kind == strategy.kind
        return protocol.Latents(*reference_optics.latents(strategy, tables, recombine))

    monkeypatch.setattr(protocol, "build_latents", reference_build)
    assert output_digest(capsys, command, attack, device) == DIGESTS[(command, attack, device)]
