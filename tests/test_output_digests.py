"""The seed-to-output mapping, pinned: sha256 digests of the CLI's output
bytes on a small grid (every attack kind, ideal and lossy devices; the
oracle CSV, and JSONL records with both control kinds on). A change that
moves any output byte fails here; a deliberate change of the mapping
updates the digests and says so in the README."""

import hashlib

import pytest

from vopqkd import cli
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
    ("oracle", "none", "ideal"): "20f957978e2ab4c27cbfa4b942c74278916fe1600c012969258082111d408abd",
    ("oracle", "none", "lossy"): "5d94f2fda3eb7f05a00eb7c135e9c2bae9106e1dff0b663e51562fc2792cfc95",
    ("oracle", "phase", "ideal"): "d4033ff9df75c601220f6afc2a8c54a3aaaa4a2d3b53a5e1eaef015436e0bb99",
    ("oracle", "phase", "lossy"): "6c4f834ea552d6bd33b931e8f1104f81a2e0dbb7a66042d8fe63ecc81dfbd37b",
    ("oracle", "mitm", "ideal"): "7d087f327a5b58368994cde65a0d5f914b60904b0f6fa43b64f7713a0fc701d7",
    ("oracle", "mitm", "lossy"): "bce71b79d6b2e8022d5eac5eab9c0f3cac434a27b70530def5f2f5b874e43433",
    ("oracle", "devil", "ideal"): "dbf22170dea6e61137676fa290d59c0784898b2b373c009ada6b8a7646f68b4d",
    ("oracle", "devil", "lossy"): "11ab765020341200b3e488304e2f42b36c6b6a7826d5441daeb99a40bb068b74",
    ("oracle", "short-circuit", "ideal"): "3a288944481e1c6492518cad6bbc35a115384ad57987fff7c1d77c151cfc9d9b",
    ("oracle", "short-circuit", "lossy"): "a29d08e8558154d3de3acc81e85bb2759de16a30fd8b70be3a40c86fb539b69a",
    ("jsonl", "none", "ideal"): "1c9f1d0d6b4da06a39071ceab0888658fa7581cf2436ae791a234151f6137661",
    ("jsonl", "none", "lossy"): "bd505ec5ef6940ca54492fe716e7b8599ad0527776946da1ecea1b49b78007ec",
    ("jsonl", "phase", "ideal"): "b768dbdd854449495f60013849b3d0cb1ee911eeef77941b3d481ab57b9024bf",
    ("jsonl", "phase", "lossy"): "342a9083038046207ac4eb08c5393a8e836cd8ab9a09ef88a828946fc12f687d",
    ("jsonl", "mitm", "ideal"): "51b1106c9206a917981b5a7e2b8c906dbf031245fc32fe1ff85bd3af48c1aae8",
    ("jsonl", "mitm", "lossy"): "7944d6e114ff5a1a3a34855375471ffe8dffc4ad47c30c6ec177ee1ff4096564",
    ("jsonl", "devil", "ideal"): "538e8c0959ace04b328faa0e20169a5aaecbaf6f9e1bf052fa4fe7b9c2580b50",
    ("jsonl", "devil", "lossy"): "2bbebe82f927bb6ece4cebf56a8c446ea283e79aad345156b93f0e96808f41d5",
    ("jsonl", "short-circuit", "ideal"): "47eaec3594b5118e1403c30ab23c7d786be89f3ad55512564c9ff14b49c9b655",
    ("jsonl", "short-circuit", "lossy"): "ff0bace1e225179f2850df526819f7a7eaab52dbe4149d676ad5b986b875dd0f",
}


def test_grid_covers_every_attack_kind():
    assert sorted(ATTACKS) == sorted(ATTACK_KINDS)
    assert set(DIGESTS) == {(c, a, d) for c in COMMANDS for a in ATTACKS for d in DEVICES}


@pytest.mark.parametrize("command, attack, device", list(DIGESTS))
def test_output_bytes_are_pinned(capsys, command, attack, device):
    argv = COMMANDS[command] + ["--rounds", "3000", "--seed", "5"] + ATTACKS[attack] + DEVICES[device]
    assert cli.main(argv) == 0
    output = capsys.readouterr().out.encode()
    assert hashlib.sha256(output).hexdigest() == DIGESTS[(command, attack, device)]
