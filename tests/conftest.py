"""Shared helpers: random states, unitaries, feed-forward networks, the two engines compared,
and the 4x4 references that the block metrics are held to."""

from __future__ import annotations

import functools
import math
import operator
import random

import numpy as np

from twinbeam.fock import PRUNE_THRESHOLD, FockState, Mode, Spin, Statistics
from twinbeam.interferometer import (
    BeamSplitter,
    Network,
    PathTable,
    _checked_path_map,
    _detect_pairs,
    _KeptPatterns,
    build_tree,
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


def reference_pair_cells(state: FockState, table: PathTable, terminals) -> tuple:
    """Pair amplitudes of a two-particle state after the path map, cell by cell.

    The test-side reference of the pair engine's cells, which
    :func:`reference_detect_pairs` groups and :func:`pair_engine_cells`
    reads.  Returns
    ``(label_pairs, label, i, j, psi)``: the internal label pairs, and flat
    arrays with one entry per label pair and (terminal, terminal) position
    ``(terminals[i], terminals[j])``, holding the first-quantized amplitude
    ``psi``.  ``label // 2`` indexes ``label_pairs``, and ``label`` is odd
    when both particles carry the same internal label.  A label pair's
    window holds the terminals that its first and its second particles
    reach, each side in the order that its entries' images first reach
    them.  Each entry ``b`` on paths (p, q) gives the outer product of
    ``b u_p`` and ``u_q`` over the window, zero off their images, and a
    cell adds these left to right in entry order, zero products included;
    the window's cells come row by row.
    """
    sign = -1.0 if state.statistics is Statistics.FERMION else 1.0
    groups: dict[tuple, dict] = {}

    def add(m1: Mode, m2: Mode, value: complex) -> None:
        group = groups.setdefault(((m1.spin, m1.tag), (m2.spin, m2.tag)), {})
        group[m1.path, m2.path] = group.get((m1.path, m2.path), 0j) + value

    for (m1, m2), a in state.terms.items():
        if m1 == m2:
            add(m1, m2, a * math.sqrt(2.0))
        else:
            add(m1, m2, a / math.sqrt(2.0))
            add(m2, m1, sign * a / math.sqrt(2.0))

    index = {t: k for k, t in enumerate(terminals)}
    coefficients = {p: np.array([c for _, c in table[p]]) for p in state.paths()}

    def spread(path: str, window: list, values: np.ndarray) -> np.ndarray:
        at = {t: n for n, t in enumerate(window)}
        vector = np.zeros(len(window), dtype=complex)
        vector[[at[t] for t, _ in table[path]]] = values
        return vector

    parts = []
    for k, ((first, second), group) in enumerate(groups.items()):
        rows, cols = (list(dict.fromkeys(t for path in paths for t, _ in table[path]))
                      for paths in zip(*group))
        products = [spread(p, rows, b * coefficients[p])[:, None] * spread(q, cols, coefficients[q])
                    for (p, q), b in group.items()]
        parts.append((
            np.full(len(rows) * len(cols), 2 * k + (first == second), dtype=np.int32),
            np.repeat([index[t] for t in rows], len(cols)),
            np.tile([index[t] for t in cols], len(rows)),
            functools.reduce(operator.add, products).ravel(),
        ))
    label, i, j, psi = (np.concatenate(x) for x in zip(*parts))
    return list(groups), label, i, j, psi


def reference_detect_pairs(net: Network, state: FockState, coincidences: bool = False):
    """What :func:`_detect_pairs` returns, from :func:`reference_pair_cells` grouped cell by cell.

    Each cell gets the key of the pattern it fires (0: no detector, 1 + m:
    detector m alone, 1 + n + lo * n + hi: a coincidence) and one
    ``np.bincount`` per key adds the cells' squared amplitudes in flat cell
    order: the order of addition the pair engine keeps, bit for bit.
    """
    table = _checked_path_map(net, state)
    # the monitored terminals the pair reaches, sorted, then the unmonitored ones
    # in the order of the inputs' images
    occupied = state.paths()
    reached = dict.fromkeys(t for p in net.inputs if p in occupied for t, _ in table[p])
    monitored = sorted(set(net.monitored).intersection(reached))
    terminals = monitored + [t for t in reached if t not in net.monitored]
    label_pairs, label, i, j, psi = reference_pair_cells(state, table, terminals)
    amp = np.abs(psi) * math.sqrt(2.0)
    amp[(i == j) & (label % 2 == 1)] /= 2.0
    fires = amp > PRUNE_THRESHOLD
    n = len(monitored)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    key = np.where(
        hi < n,
        np.where(lo == hi, hi + 1, 1 + n + lo * np.int64(n) + hi),
        np.where(lo < n, lo + 1, 0),
    )
    probs = np.bincount(key, weights=psi.real ** 2 + psi.imag ** 2)
    keys = np.flatnonzero(np.bincount(key[fires], minlength=probs.size))
    probabilities = probs[keys] / probs[keys].sum()
    empty, first = np.searchsorted(keys, [1, n + 1]).tolist()
    blocks = None
    if coincidences:
        columns = {(0, 0): 0}
        places = np.array([
            (2 * s1 + s2, columns.setdefault((t1, t2), len(columns)))
            for (s1, t1), (s2, t2) in label_pairs
        ])
        blocks = np.zeros((len(keys) - first, 4, len(columns)), dtype=complex)
        at = np.flatnonzero((i < j) & (j < n) & fires)
        block = np.searchsorted(keys[first:], key[at])
        row, col = places[label[at] // 2].T
        blocks[block, row, col] = psi[at]
        blocks /= np.linalg.norm(blocks, axis=(1, 2))[:, None, None]
    codes = np.full((len(keys), 2), -1)
    codes[:empty, 0] = n
    codes[empty:first, 0] = keys[empty:first] - 1
    codes[first:, 0], codes[first:, 1] = np.divmod(keys[first:] - 1 - n, n)
    return _KeptPatterns(monitored, codes, empty, first, probabilities, blocks)


def engine_mismatch(net: Network, state: FockState) -> str | None:
    """Where :func:`_detect_pairs` differs from :func:`reference_detect_pairs`, bit for bit.

    Names, codes, ``empty``, ``first``, probabilities as ``uint64`` views
    and coincidence blocks (signed zeros told apart); ``None`` when all agree.
    """
    new = _detect_pairs(net, state, coincidences=True)
    old = reference_detect_pairs(net, state, coincidences=True)
    for field in ("names", "empty", "first"):
        if getattr(new, field) != getattr(old, field):
            return field
    if not np.array_equal(new.codes, old.codes):
        return "codes"
    if not np.array_equal(new.probabilities.view(np.uint64), old.probabilities.view(np.uint64)):
        return "probabilities"
    if new.blocks.shape != old.blocks.shape or not np.array_equal(
        new.blocks.view(np.uint64), old.blocks.view(np.uint64)
    ):
        return "blocks"
    return None


def pair_engine_cells(net: Network, state: FockState) -> dict[str, dict[tuple, complex]]:
    """The reference pair amplitudes after ``net``, keyed as :func:`fock_cells` keys them.

    Grouped by the label of the pattern each cell fires; not normalized.
    """
    table = net.path_map()
    terminals = sorted({t for p in state.paths() for t, _ in table[p]})
    label_pairs, label, i, j, psi = reference_pair_cells(state, table, terminals)
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


def shuffled_tree(depth: int, seed: int) -> dict:
    """Depth-``depth`` tree as a network dict, its paths renamed to shuffled numbers.

    The benchmark's recipe for its clicks network, with decimal names:
    string order ("10" before "9") differs from both numeric and tree order.
    """
    data = build_tree(depth).to_dict()
    names = sorted({p for quad in data["splitters"] for p in quad})
    numbers = [str(k) for k in range(len(names))]
    random.Random(seed).shuffle(numbers)
    rename = dict(zip(names, numbers))
    return {
        "splitters": [[rename[p] for p in quad] for quad in data["splitters"]],
        "inputs": [rename[p] for p in data["inputs"]],
        "monitored": [rename[p] for p in data["monitored"]],
    }
