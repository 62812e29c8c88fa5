"""Shared helpers: random states, unitaries, and feed-forward networks."""

from __future__ import annotations

import numpy as np

from twinbeam.fock import FockState, Mode, Spin, Statistics
from twinbeam.interferometer import BeamSplitter, Network, _detect_pairs

BOTH_STATISTICS = (Statistics.BOSON, Statistics.FERMION)


def table_rows(table: dict[str, list]) -> list[dict]:
    """A report table as one dict per row, for checks that read several columns of a row."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def pattern_label(pattern) -> str:
    """A detector pattern as ``twinbeam clicks`` names it.

    Its paths sorted and joined by ``+``, or ``none`` when no detector fired.
    """
    return "+".join(sorted(pattern)) or "none"


def branch_probabilities(branches) -> dict[str, float]:
    """Each detected branch's probability keyed by its pattern's label, in the branches' order."""
    return {pattern_label(b.pattern): b.probability for b in branches}


def pair_probabilities(net: Network, state: FockState) -> dict[str, float]:
    """The pair engine's kept pattern probabilities keyed by label, in its order."""
    kept = _detect_pairs(net, state)
    return dict(zip(kept.labels(), kept.probabilities))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fidelity(dm, pure: np.ndarray) -> float:
    """Overlap <psi| rho |psi> of a :class:`~twinbeam.metrics.TwoQubitDM` with a pure state."""
    return float(np.real(pure.conj() @ dm.matrix @ pure))


def random_two_particle_state(
    rng: np.random.Generator,
    statistics: Statistics,
    paths: tuple[str, ...] = ("P", "Q", "R"),
    tags: tuple[int, ...] = (0,),
    n_terms: int = 3,
) -> FockState:
    modes = [Mode(p, s, t) for p in paths for s in (Spin.UP, Spin.DOWN) for t in tags]
    terms: dict = {}
    attempts = 0
    while len(terms) < n_terms and attempts < 50:
        attempts += 1
        i, j = rng.integers(0, len(modes), size=2)
        if statistics is Statistics.FERMION and i == j:
            continue
        pair = tuple(sorted((modes[i], modes[j])))
        terms[pair] = complex(rng.normal(), rng.normal())
    return FockState(statistics, terms).normalized()


def random_network(rng: np.random.Generator, input_paths: tuple[str, ...], n_splitters: int) -> Network:
    available = list(input_paths)
    splitters = []
    fresh = 0
    for _ in range(n_splitters):
        in1 = available.pop(int(rng.integers(len(available))))
        if available and rng.random() < 0.7:
            in2 = available.pop(int(rng.integers(len(available))))
        else:
            in2 = f"v{fresh}"
            fresh += 1
        out1, out2 = f"w{fresh}", f"w{fresh + 1}"
        fresh += 2
        splitters.append(BeamSplitter(in1, in2, out1, out2))
        available.extend([out1, out2])
    return Network(tuple(splitters), tuple(input_paths), tuple(sorted(available)))


def one_sided_tree(depth: int) -> Network:
    """Input A feeds a depth-``depth`` tree through vacuum ports; input B is a detector itself.

    The opposite-spin pair has 2**depth coincidence patterns {leaf, B},
    each of probability 2**-depth, and no other pattern.
    """
    splitters = [BeamSplitter("A", "~", "0", "1")]
    for level in range(1, depth):
        for index in range(2 ** level):
            parent = format(index, f"0{level}b")
            splitters.append(BeamSplitter(parent, parent + "~", parent + "0", parent + "1"))
    leaves = tuple(format(i, f"0{depth}b") for i in range(2 ** depth))
    return Network(tuple(splitters), ("A", "B"), leaves + ("B",))
