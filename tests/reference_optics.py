"""An independent reference for the protocol's optics, for the tests.

A network is its mode-transfer matrix U: a creation operator entering on
mode j leaves as sum_k U[k, j] a+_k. Photons entering with occupation s
leave in pattern t with amplitude Perm(U[t, s]) / sqrt(prod s_j! prod t_k!),
U's rows and columns repeated by t and s (Scheel, quant-ph/0406127;
Aaronson & Arkhipov, STOC'11). Each network of the paper is written here
from its description. The module uses numpy and the standard library only
and imports nothing from vopqkd.
"""

import functools
import itertools
import math

import numpy as np

MODES = ("a1", "a2", "b1", "b2", "e1", "e2", "e3", "e4")
# An entry is kept when its probability exceeds the square of the smallest
# amplitude the simulator keeps, 1e-12.
KEEP = 1e-24


def network(modes, gates):
    """U of `gates` applied in order. A gate (in1, in2) of two mode names is
    a 50:50 beam splitter, a+_in1 -> (a+_in1 + a+_in2)/sqrt(2) and
    a+_in2 -> (a+_in1 - a+_in2)/sqrt(2); a gate (mode, phi) is a phase
    shift, a+_mode -> exp(i phi) a+_mode."""
    u = np.eye(len(modes), dtype=complex)
    for first, second in gates:
        g = np.eye(len(modes), dtype=complex)
        if isinstance(second, str):
            i, j = modes.index(first), modes.index(second)
            g[np.ix_([i, j], [i, j])] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        else:
            g[modes.index(first), modes.index(first)] = np.exp(1j * second)
        u = g @ u
    return u


def _sqrt_factorials(counts):
    return math.sqrt(math.prod(math.factorial(c) for c in counts))


@functools.lru_cache(maxsize=None)
def _patterns(nmodes, photons):
    """Every occupation of `photons` photons on `nmodes` modes, one row
    each, and sqrt(prod_k t_k!) of each row t."""
    combos = itertools.combinations_with_replacement(range(nmodes), photons)
    out = np.array([np.bincount(np.array(c, dtype=int), minlength=nmodes) for c in combos]).reshape(-1, nmodes)
    return out, np.array([_sqrt_factorials(t) for t in out.tolist()])


def amplitudes(u, inputs):
    """(patterns, amplitudes) of every output pattern of photons entering U
    on the mode indices `inputs`, one per photon.

    Ryser: Perm(A) = (-1)^N sum over column subsets S of (-1)^|S| prod_i
    sum_{j in S} A[i, j]. Row i of A is U's row of mode k, repeated t_k
    times, so the product over rows is prod_k (row sum of mode k)^t_k, and
    every pattern shares one table of row sums.
    """
    photons = len(inputs)
    out, out_norms = _patterns(len(u), photons)
    subsets = np.array(list(itertools.product((0, 1), repeat=photons)), dtype=int).reshape(2**photons, photons)
    sums = u[:, list(inputs)] @ subsets.T  # (modes, subsets)
    powers = sums[None] ** np.arange(photons + 1)[:, None, None]  # (exponent, modes, subsets)
    terms = np.ones((len(out), len(subsets)), dtype=complex)
    for k in range(len(u)):
        terms *= powers[out[:, k], k]
    perm = terms @ (-1.0) ** (photons - subsets.sum(axis=1))
    entering = np.bincount(np.asarray(inputs, dtype=int), minlength=len(u))
    return out, perm / (out_norms * _sqrt_factorials(entering))


def _attack(strategy):
    """(gates, (rail to Alice, rail to Bob), Eve's ports, the input ports of
    each adversary bit's +1 and -1, resend branches) of an attack, the gates
    acting between the parties' sources and recombiners. A resend branch is
    (ports it injects, its gates, weight, Eve's totals that select it)."""
    plain = [((), (), 1.0, None)]
    if strategy.kind in ("none", "phase"):
        rails = {"alice-to-bob": "a2", "bob-to-alice": "b2"}
        gates = [(rails[c], strategy.phi) for c in strategy.channels] if strategy.kind == "phase" else []
        return gates, ("b2", "a2"), (), (), plain
    if strategy.kind == "short-circuit":  # each traveling rail returns to its sender
        return [], ("a2", "b2"), (), (), plain
    if strategy.kind == "mitm":
        # Eve's two pair sources, then her recombiners: kept mode on in1,
        # intercepted rail on in2. She sends e2 to Alice and e4 to Bob.
        gates = [("e1", "e2"), ("e3", "e4"), ("e1", "a2"), ("e3", "b2")]
        return gates, ("e2", "e4"), ("e1", "a2", "e3", "b2"), (("e1", "e2"), ("e3", "e4")), plain
    if strategy.kind == "devil":
        # Eve plays Bob toward Alice and counts (e1, a2) first. Her total
        # picks what reaches Bob on e4: nothing for 0, a fresh pair (e3, e4)
        # of random bit q for 1, one photon for 2 or more.
        resend = [
            ((), (), 1.0, {0}),
            (("e3",), [("e3", "e4")], 0.5, {1}),
            (("e4",), [("e3", "e4")], 0.5, {1}),
            (("e4",), (), 1.0, set(range(2, 9))),
        ]
        return [("e1", "e2"), ("e1", "a2")], ("e2", "e4"), ("e1", "a2"), (("e1", "e2"),), resend
    raise ValueError(f"unknown attack {strategy.kind!r}")


def _branches(strategy, key, recombine):
    """Yield (U, input indices, sign, weight, Eve's totals, measured mode
    indices) for one latent key (n, m, na, nb, bits)."""
    n, m, na, nb, bits = key
    gates, (to_alice, to_bob), eve, bit_ports, resend = _attack(strategy)
    ports = ["a1" if n == 1 else "a2"] * na + ["b1" if m == 1 else "b2"] * nb
    ports += [pair[bit == -1] for pair, bit in zip(bit_ports, bits)]
    # A one-photon source holds +1/sqrt(2) on its traveling ket; the raw
    # splitter gives a photon entering on in2 the opposite sign there.
    sign = math.prod(b for b, k in [(n, na), (m, nb), *((b, 1) for b in bits)] if k == 1)
    recombiners = [("a1", to_alice), ("b1", to_bob)] if recombine else []
    measured = [MODES.index(p) for p in ("a1", to_alice, "b1", to_bob, *eve)]
    for extra, resend_gates, weight, totals in resend:
        u = network(MODES, [("a1", "a2"), ("b1", "b2"), *gates, *resend_gates, *recombiners])
        yield u, [MODES.index(p) for p in ports + list(extra)], sign, weight, totals, measured


def state(strategy, key, recombine=True):
    """{occupation over MODES: amplitude}, moduli above 1e-12, of a latent
    of an attack without resend branches."""
    [(u, inputs, sign, *_)] = _branches(strategy, key, recombine)
    out, amps = amplitudes(u, inputs)
    return {tuple(t): sign * a for t, a in zip(out.tolist(), amps) if abs(a) > 1e-12}


def distribution(strategy, key, recombine=True):
    """{counts on (a1, rail to Alice, b1, rail to Bob, *Eve's ports): p},
    sorted by port row, of one latent key (n, m, na, nb, bits)."""
    rows, probs = [], []
    for u, inputs, _, weight, totals, measured in _branches(strategy, key, recombine):
        out, amps = amplitudes(u, inputs)
        rows.append(out[:, measured])
        selected = totals is None or np.isin(rows[-1][:, 4:].sum(axis=1), list(totals))
        probs.append(weight * np.abs(amps) ** 2 * selected)
    rows = np.concatenate(rows)
    codes = rows @ 9 ** np.arange(rows.shape[1])[::-1]  # port rows in lexicographic order
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    p = np.bincount(inverse, np.concatenate(probs))
    return {tuple(row): q for row, q in zip(rows[first].tolist(), p.tolist()) if q > KEEP}


def latents(strategy, tables, recombine):
    """Every latent of the case tables [(value, p)] (n, m, the two
    emissions, the adversary's bits) as flat arrays (keys, rows, row, p,
    bounds): the distinct port rows in order, and latent i's entries
    bounds[i]:bounds[i + 1] of `row` (indices into `rows`) and `p`."""
    values = [[v for v, _ in cases] for cases in tables]
    keys = [(n, m, na, nb, tuple(bits)) for n, m, na, nb, *bits in itertools.product(*values)]
    dists = [distribution(strategy, key, recombine) for key in keys]
    rows = sorted({row for dist in dists for row in dist})
    index = {row: i for i, row in enumerate(rows)}
    return (
        keys,
        np.array(rows, dtype=np.int8),
        np.array([index[row] for dist in dists for row in dist], dtype=np.intp),
        np.array([p for dist in dists for p in dist.values()]),
        np.cumsum([0] + [len(dist) for dist in dists]),
    )


def tables(latents):
    """{key: {port row: p}} of flat arrays (keys, rows, row, p, bounds) as
    `latents` returns them; the simulator's `Latents` has the same fields."""
    keys, rows, row, p, bounds = latents
    return {
        key: dict(zip(map(tuple, rows[row[lo:hi]].tolist()), p[lo:hi].tolist()))
        for key, lo, hi in zip(keys, bounds, bounds[1:])
    }
