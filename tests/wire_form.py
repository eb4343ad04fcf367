"""The per-round wire form rendered from a block's columns with `json.dumps`:
the reference that `Rounds.jsonl_chunks` is checked against."""

import json

from vopqkd.protocol import CONTROL_KINDS

ANNOUNCEMENTS = (None, "Da1", "Da2")


def record_dicts(rounds):
    """One JSON object per round, keys in wire order."""
    columns = (
        rounds.index, rounds.n, rounds.m, rounds.alice_counts, rounds.bob_counts, rounds.accepted,
        rounds.announcement, rounds.inferred, rounds.control_kind, rounds.control_flagged,
        rounds.eve_learned, rounds.photon_anomaly,
    )
    return [
        {
            "round": i,
            "n": n,
            "m": m,
            "alice_counts": a,
            "bob_counts": b,
            "accepted": accepted,
            "announcement": ANNOUNCEMENTS[announcement],
            "inferred": inferred or None,
            "control_kind": CONTROL_KINDS[kind],
            "control_flagged": flagged if kind else None,
            "eve_knows_n": learned != 0,
            "photon_anomaly": anomaly,
        }
        for i, n, m, a, b, accepted, announcement, inferred, kind, flagged, learned, anomaly in zip(
            *(c.tolist() for c in columns)
        )
    ]


def wire_text(rounds):
    """The JSONL text of a block, one `json.dumps` line per round."""
    return "".join(json.dumps(d) + "\n" for d in record_dicts(rounds))
