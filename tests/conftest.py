"""Shared helpers: random states, unitaries, feed-forward networks, the two engines compared,
and the 4x4 references that the block metrics are held to."""

from __future__ import annotations

import math

import numpy as np

from twinbeam.fock import FockState, Mode, Spin, Statistics
from twinbeam.interferometer import (
    BeamSplitter,
    Network,
    _detect_pairs,
    _pair_cells,
    detect,
    run_network,
)
from twinbeam.metrics import CHSH_OPERATOR
from twinbeam.reporting import Coded

BOTH_STATISTICS = (Statistics.BOSON, Statistics.FERMION)


def cells(column: list | np.ndarray | Coded) -> list:
    """A report column's cells as Python values; a coded column's joined as the renderers join them."""
    if not isinstance(column, Coded):
        return column.tolist() if isinstance(column, np.ndarray) else column
    values = column.values.tolist() if isinstance(column.values, np.ndarray) else column.values
    if column.codes.ndim == 1:
        return [values[c] for c in column.codes.tolist()]
    return [values[a] + values[b] for a, b in column.codes.tolist()]


def table_rows(table: dict[str, list | np.ndarray | Coded]) -> list[dict]:
    """A report table as one dict per row of Python values, for checks across columns."""
    return [dict(zip(table, row)) for row in zip(*map(cells, table.values()))]


def pattern_label(pattern) -> str:
    """A detector pattern as ``twinbeam clicks`` names it.

    Its paths sorted and joined by ``+``, or ``none`` when no detector fired.
    """
    return "+".join(sorted(pattern)) or "none"


def kept_paths(kept) -> list[tuple[str, ...]]:
    """Each of the pair engine's kept patterns as its firing paths in string order.

    Read off ``kept.names`` and ``kept.codes``; the pattern in which no
    detector fired is ``()``.
    """
    names = kept.names
    return [tuple(names[c] for c in row if 0 <= c < len(names)) for row in kept.codes.tolist()]


def kept_labels(kept) -> list[str]:
    """Each of the pair engine's kept patterns as ``twinbeam clicks`` names it."""
    return list(map(pattern_label, kept_paths(kept)))


def branch_probabilities(branches) -> dict[str, float]:
    """Each detected branch's probability keyed by its pattern's label, in the branches' order."""
    return {pattern_label(b.pattern): b.probability for b in branches}


def pair_probabilities(net: Network, state: FockState) -> dict[str, float]:
    """The pair engine's kept pattern probabilities keyed by label, in its order."""
    kept = _detect_pairs(net, state)
    return dict(zip(kept_labels(kept), kept.probabilities))


def amplitude(state: FockState, modes) -> complex:
    """Amplitude of the canonical monomial built from ``modes``, the sign of its sort folded in.

    Sorting fermion modes into canonical order flips the sign once per
    swapped pair; two fermions in one mode give 0.
    """
    modes = list(modes)
    value = state.terms.get(tuple(sorted(modes)), 0j)
    if state.statistics is Statistics.BOSON:
        return value
    if len(set(modes)) < len(modes):
        return 0j
    swaps = sum(b < a for k, a in enumerate(modes) for b in modes[k + 1:])
    return -value if swaps % 2 else value


def fock_cells(state: FockState) -> dict[tuple, complex]:
    """First-quantized amplitudes of a two-particle state, keyed by ``(label, label, path, path)``.

    The convention the pair engine holds to: a canonical monomial a+_m1 a+_m2
    with m1 < m2 and amplitude a puts a/sqrt(2) on (m1, m2) and a/sqrt(2) on
    (m2, m1), negated there for fermions, and a doubly occupied bosonic mode
    puts a*sqrt(2) on its diagonal.  A label is a (spin, tag) pair.
    """
    sign = -1.0 if state.statistics is Statistics.FERMION else 1.0
    cells = {}
    for (m1, m2), a in state.terms.items():
        if m1 == m2:
            entries = [(m1, m1, a * math.sqrt(2.0))]
        else:
            entries = [(m1, m2, a / math.sqrt(2.0)), (m2, m1, sign * a / math.sqrt(2.0))]
        for x, y, value in entries:
            cells[(x.spin, x.tag), (y.spin, y.tag), x.path, y.path] = value
    return cells


def pair_engine_cells(net: Network, state: FockState) -> dict[str, dict[tuple, complex]]:
    """The pair engine's amplitudes after ``net``, keyed as :func:`fock_cells` keys them.

    Grouped by the label of the pattern each cell fires; not normalized.
    """
    table = net.path_map()
    terminals = sorted({t for p in state.paths() for t, _ in table[p]})
    label_pairs, label, i, j, psi = _pair_cells(state, table, terminals)
    groups: dict[str, dict[tuple, complex]] = {}
    for k, a, b, value in zip(label.tolist(), i.tolist(), j.tolist(), psi.tolist()):
        x, y = terminals[a], terminals[b]
        pattern = pattern_label({x, y}.intersection(net.monitored))
        groups.setdefault(pattern, {})[(*label_pairs[k // 2], x, y)] = value
    return groups


def matches_up_to_phase(x: dict, y: dict) -> bool:
    """Whether amplitude map ``x`` equals ``y`` normalized, up to one global phase.

    Entry by entry within 1e-9; a key missing from one map is a zero there.
    """
    keys = list(set(x) | set(y))
    a = np.array([x.get(k, 0j) for k in keys])
    b = np.array([y.get(k, 0j) for k in keys])
    b /= np.linalg.norm(b)
    overlap = np.vdot(a, b)
    if abs(overlap) < 1e-15:
        return False
    return bool(np.allclose(a * overlap / abs(overlap), b, atol=1e-9, rtol=0.0))


def engine_differences(net: Network, state: FockState) -> list[str]:
    """Where the sparse engine's branches of ``state`` after ``net`` differ from the pair engine's.

    Empty when both give the same patterns in the same order, each
    probability within 1e-9 and each conditional state, bunched ones
    included, equal up to a global phase within 1e-9.
    """
    branches = detect(run_network(net, state), net.monitored)
    kept = _detect_pairs(net, state)
    patterns = [pattern_label(b.pattern) for b in branches]
    if patterns != kept_labels(kept):
        return [f"patterns {patterns} != {kept_labels(kept)}"]
    cells = pair_engine_cells(net, state)
    differences = []
    for branch, pattern, p in zip(branches, patterns, kept.probabilities):
        if not abs(branch.probability - p) < 1e-9:
            differences.append(f"{pattern}: probability {branch.probability} != {p}")
        if not matches_up_to_phase(fock_cells(branch.state), cells[pattern]):
            differences.append(f"{pattern}: conditional states differ")
    return differences


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fidelity(v: np.ndarray, pure: np.ndarray) -> float:
    """Overlap <psi| v v† / |v|^2 |psi> of a ``(4, T)`` spin-tag block with a pure state."""
    return float((np.abs(pure.conj() @ v) ** 2).sum() / (np.abs(v) ** 2).sum())


_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def wootters_concurrences(rho: np.ndarray) -> np.ndarray:
    """The reference concurrence of each 4x4 density matrix of a ``(..., 4, 4)`` stack.

    Wootters' C = max(0, l1 - l2 - l3 - l4), the l_i being the decreasing
    singular values of sqrt(rho) (sy x sy) sqrt(rho)*, which share the
    spectrum of the square roots of rho (sy x sy) rho* (sy x sy).
    """
    rho = np.asarray(rho)
    eigvals, eigvecs = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2.0)
    roots = np.sqrt(np.clip(eigvals, 0.0, None))[..., None, :]
    root = (eigvecs * roots) @ eigvecs.conj().swapaxes(-1, -2)
    lams = np.linalg.svd(root @ _SY_SY @ root.conj(), compute_uv=False)
    c = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    return np.where(c > 0.0, c, 0.0)


def chsh_traces(rho: np.ndarray) -> np.ndarray:
    """The reference CHSH value tr(rho O) of each matrix of a ``(..., 4, 4)`` stack."""
    return np.einsum("...ij,ji->...", rho, CHSH_OPERATOR).real


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
