"""Beam-splitter networks, which-way detection, and post-selection.

Every splitter is 50:50 with the fixed phase convention

    a+_(in1,s) -> (a+_(out1,s) + i a+_(out2,s)) / sqrt(2)
    a+_(in2,s) -> (a+_(out2,s) + i a+_(out1,s)) / sqrt(2)

(transmission real, reflection i; spin and tag untouched).  With ports
(A, B, D, C) this sends |A up; B down> to
(1/2)(|D up; C down> +- |D down; C up>) + (i/2)(|C up; C down> + |D up; D down>),
the + holding for fermions and the - for bosons.

Detectors are absorptionless and report only whether a path holds one
or more particles, so measurement branches are keyed by excitation
patterns (sets of firing detectors), with full coherence kept inside
each branch and none across branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NetworkError
from .fock import (
    PRUNE_THRESHOLD,
    FockState,
    Mode,
    Spin,
    Statistics,
    Substitution,
    make_product_state,
    ordered_sum,
    substitute_modes,
)
from .reporting import _distinct

_TRANSMIT = 1.0 / math.sqrt(2.0)
_REFLECT = 1j / math.sqrt(2.0)

#: detection patterns are just sets of firing detector paths
ExcitationPattern = frozenset[str]

#: where one particle on a path ends up: ((path, amplitude), ...) per path
PathTable = dict[str, tuple[tuple[str, complex], ...]]

#: most monomials a propagation may expand a state into
MAX_MONOMIALS = 2 ** 20

#: deepest tree whose opposite-spin pair, 4**depth monomials, stays within that limit
MAX_TREE_DEPTH = (MAX_MONOMIALS.bit_length() - 1) // 2

PROBABILITY_TOL = 1e-9

#: most trials :func:`_draw_counts` draws: numpy's multinomial counts are 64-bit
MAX_TRIALS = 2 ** 63 - 1

#: most rounds :func:`feedback_run` takes; it keeps each round's state, about 0.9 KB
MAX_FEEDBACK_ROUNDS = 10


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ValueError(f"{name} must be between {low} and {high}, got {value}")


@dataclass(frozen=True)
class BeamSplitter:
    """One 50:50 splitter, identified by its four port paths."""

    in1: str
    in2: str
    out1: str
    out2: str

    def __post_init__(self):
        ports = (self.in1, self.in2, self.out1, self.out2)
        if len(set(ports)) != 4:
            raise NetworkError(f"splitter ports must be four distinct paths, got {ports}")


@dataclass(frozen=True)
class Network:
    """An ordered, feed-forward arrangement of splitters with detectors.

    ``inputs`` are the only paths a state may occupy on entry; splitter
    input ports that are neither network inputs nor earlier outputs are
    permanently empty vacuum ports.  ``monitored`` paths carry the
    which-way detectors and must be terminal; none may be named ``none``
    or hold a ``+``, the marks of ``twinbeam clicks``' pattern labels.
    """

    splitters: tuple[BeamSplitter, ...]
    inputs: tuple[str, ...]
    monitored: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "splitters", tuple(self.splitters))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "monitored", tuple(self.monitored))
        if len(set(self.inputs)) != len(self.inputs):
            raise NetworkError("network inputs must be distinct")
        produced: dict[str, int] = {}
        consumed: dict[str, int] = {}
        for k, bs in enumerate(self.splitters):
            for p in (bs.out1, bs.out2):
                if p in produced:
                    raise NetworkError(f"path {p!r} is an output of two splitters")
                if p in self.inputs:
                    raise NetworkError(f"network input {p!r} cannot also be a splitter output")
                produced[p] = k
            for p in (bs.in1, bs.in2):
                if p in consumed:
                    raise NetworkError(f"path {p!r} feeds two splitters")
                consumed[p] = k
        for p, k in consumed.items():
            if p in produced and produced[p] >= k:
                raise NetworkError(f"path {p!r} is consumed before it is produced")
        if len(set(self.monitored)) != len(self.monitored):
            raise NetworkError("monitored paths must be distinct")
        known = set(self.inputs) | set(produced) | set(consumed)
        for p in self.monitored:
            if p not in known:
                raise NetworkError(f"monitored path {p!r} does not exist in the network")
            if p in consumed:
                raise NetworkError(f"monitored path {p!r} is not terminal")
            if p == "none" or "+" in p:
                raise NetworkError(f"monitored path {p!r} would make pattern labels ambiguous")

    def path_map(self) -> PathTable:
        """Where one particle entering each network input ends up.

        The splitters are composed in order into
        ``{input path: ((terminal path, amplitude), ...)}``; a splitter
        touches only the images that hold its ports.
        """
        images = {p: {p: 1.0 + 0j} for p in self.inputs}
        holders = {p: [image] for p, image in images.items()}  # the images that hold each path
        for bs in self.splitters:
            held = []
            # each input port transmits to its own output and reflects to the other
            for port, out, other in ((bs.in1, bs.out1, bs.out2), (bs.in2, bs.out2, bs.out1)):
                for image in holders.pop(port, ()):
                    if bs.out1 not in image:
                        held.append(image)
                    amp = image.pop(port)
                    image[out] = image.get(out, 0j) + amp * _TRANSMIT
                    image[other] = image.get(other, 0j) + amp * _REFLECT
            holders[bs.out1] = holders[bs.out2] = held
        return {p: tuple(image.items()) for p, image in images.items()}

    def to_dict(self) -> dict:
        """JSON-ready description: splitters as port 4-tuples plus path lists."""
        return {
            "splitters": [[b.in1, b.in2, b.out1, b.out2] for b in self.splitters],
            "inputs": list(self.inputs),
            "monitored": list(self.monitored),
        }

    @classmethod
    def from_dict(cls, data) -> "Network":
        """Inverse of :meth:`to_dict`; any other JSON value raises :class:`NetworkError`."""
        if not isinstance(data, dict):
            raise NetworkError(f"a network must be a JSON object, got {type(data).__name__}")
        keys = ("splitters", "inputs", "monitored")
        missing = [k for k in keys if k not in data]
        if missing:
            raise NetworkError(f"network document lacks {', '.join(missing)}")
        unexpected = [k for k in data if k not in keys]
        if unexpected:
            names = ", ".join(map(repr, unexpected))
            raise NetworkError(f"network document has unexpected keys {names}")
        quads = data["splitters"]
        if not isinstance(quads, list) or any(
            not isinstance(q, list) or len(q) != 4 for q in quads
        ):
            raise NetworkError("splitters must be a list of [in1, in2, out1, out2] lists")
        splitters = tuple(BeamSplitter(*_path_names(q, "splitter ports")) for q in quads)
        monitored = _path_names(data["monitored"], "monitored")
        if not monitored:
            raise NetworkError("a network needs at least one monitored path")
        return cls(splitters, _path_names(data["inputs"], "inputs"), monitored)


def _path_names(value, what: str) -> tuple[str, ...]:
    # the error names a type, never the value, which may be a document's whole list
    if not isinstance(value, list):
        raise NetworkError(f"{what} must be a list of path-name strings, got {type(value).__name__}")
    for k, p in enumerate(value):
        if not isinstance(p, str):
            raise NetworkError(f"{what} must be a list of path-name strings, "
                               f"got {type(p).__name__} at index {k}")
    return tuple(value)


class Branch(NamedTuple):
    pattern: ExcitationPattern
    state: FockState
    probability: float


@dataclass(frozen=True)
class BranchSet:
    """Decoherent mixture of detector patterns with conditional states."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        total = sum(b.probability for b in self.branches)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"branch probabilities sum to {total}, not 1")
        patterns = [b.pattern for b in self.branches]
        if len(set(patterns)) != len(patterns):
            raise ValueError("branch patterns must be pairwise distinct")

    def __iter__(self) -> Iterator[Branch]:
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)

    def __getitem__(self, pattern: Iterable[str]) -> Branch:
        key = frozenset(pattern)
        for b in self.branches:
            if b.pattern == key:
                return b
        raise KeyError(f"no branch with pattern {sorted(key)}")


def _pattern_sort_key(pattern: ExcitationPattern):
    return (len(pattern), tuple(sorted(pattern)))


def run_network(net: Network, state: FockState) -> FockState:
    """Propagate a state through the whole network; returns it normalized.

    Splitters act on paths alone, so every creation operator is
    replaced once by its image under :meth:`Network.path_map`.  A state
    that would expand into more than :data:`MAX_MONOMIALS` monomials is
    refused with :class:`NetworkError` before any expansion.
    """
    return _apply_path_table(state, _checked_path_map(net, state)).normalized()


def _checked_path_map(net: Network, state: FockState) -> PathTable:
    """The network's path map, once ``state`` is known to enter it and to fit.

    Input on a path outside the network inputs, or a state that would
    expand into more than :data:`MAX_MONOMIALS` monomials, raises
    :class:`NetworkError`.
    """
    stray = state.paths() - set(net.inputs)
    if stray:
        raise NetworkError(f"input occupies paths {sorted(stray)} outside the network inputs")
    table = net.path_map()
    size = sum(math.prod(len(table[m.path]) for m in monomial) for monomial in state.terms)
    if size > MAX_MONOMIALS:
        raise NetworkError(f"propagation would make {size} monomials, over {MAX_MONOMIALS}")
    return table


def _apply_path_table(state: FockState, table: PathTable) -> FockState:
    subs: Substitution = {}
    for mode in state.modes():
        images = table.get(mode.path)
        if images is not None:
            subs[mode] = tuple((Mode(p, mode.spin, mode.tag), c) for p, c in images)
    return substitute_modes(state, subs)


def detect(state: FockState, monitored: Sequence[str]) -> BranchSet:
    """Split a normalized state into decoherent excitation-pattern branches.

    Monomials sharing a pattern stay coherent; each branch state is
    renormalized and weighted by the squared norm of its component.
    """
    monitored_set = set(monitored)
    groups: dict[ExcitationPattern, dict] = {}
    for monomial, amp in state.terms.items():
        pattern = frozenset(m.path for m in monomial if m.path in monitored_set)
        groups.setdefault(pattern, {})[monomial] = amp
    branches = []
    for pattern in sorted(groups, key=_pattern_sort_key):
        # popped, so each group's terms are freed once its branch holds a copy
        component = FockState(state.statistics, groups.pop(pattern))
        n = component.norm()
        branches.append(Branch(pattern, component / n, n * n))
    total = ordered_sum(b.probability for b in branches)
    if abs(math.sqrt(total) - 1.0) > 1e-7:
        raise ValueError("detect requires a normalized state")
    branches = [Branch(b.pattern, b.state, b.probability / total) for b in branches]
    return BranchSet(tuple(branches))


class _KeptPatterns(NamedTuple):
    """The pair engine's kept detector patterns, in :func:`detect`'s order.

    ``names`` are the monitored paths the pair reaches, in string order,
    and row ``r`` of the int64 array ``codes``, shape ``(patterns, 2)``,
    names pattern ``r``'s paths by their indices there.  The pattern in
    which no detector fired comes first when it is kept (``empty`` is then
    1, else 0), coded ``(len(names), -1)``; then one pattern per detector
    that fired alone, ``(m, -1)``; then, from row ``first`` on, the
    coincidences, ``(lo, hi)`` with ``lo < hi``.  Singles and coincidences
    are each in the string order of their paths.  ``probabilities`` is a
    float64 array with one entry per pattern; ``blocks`` holds the
    coincidences' spin-tag blocks when :func:`_detect_pairs` is asked for
    them.
    """

    names: list[str]
    codes: np.ndarray
    empty: int
    first: int
    probabilities: np.ndarray
    blocks: np.ndarray | None = None

    @property
    def coincidence_probability(self) -> float:
        """The coincidences' probabilities added left to right from 0.0, as
        :func:`ordered_sum` adds them: the last running total of one ``np.cumsum``."""
        return np.cumsum(np.concatenate(([0.0], self.probabilities[self.first:])))[-1].item()


def _detect_pairs(net: Network, state: FockState, coincidences: bool = False) -> _KeptPatterns:
    """Kept detector patterns of a two-particle state after ``net``, with their probabilities.

    The patterns of ``detect(run_network(net, state), net.monitored)``, in
    the same order and named by the monitored paths the pair reaches, from
    one matrix ``M = U B U^T`` of first-quantized amplitudes per pair of
    internal (spin, tag) labels (:func:`_pair_windows`) instead of an
    expanded state.  ``M`` is never built: an entry ``b`` on paths (p, q)
    adds ``b u_p u_q^T``, so each cell read is the sum, in entry order and
    left to right, of every entry's fresh product ``f[i] * g[j]`` with
    ``f = b u_p`` and ``g = u_q`` over the terminals, zero off their images.
    Each coincidence ``lo < hi`` of the label pair's window (:func:`_pair_space`)
    adds ``|M[lo, hi]|^2`` and ``|M[hi, lo]|^2``, at its place in the space of
    all windows' coincidences (the first label pair stores their sum: ``0 + u + w``
    is ``0 + w + u``); a single, or no detector, the diagonal and the cells with a
    particle on an unmonitored terminal: label pair by label pair, each one's cells in
    row-major order of its window, as a cell-by-cell sum adds them.  A
    pattern is kept when one of its second-quantized amplitudes exceeds
    ``PRUNE_THRESHOLD``, the sparse engine's rule, and the kept probabilities are
    renormalized; a coincidence's is compared by its square, and by ``np.abs`` where
    that is NaN or within a relative 1e-9 of the bound.  Any particle number but two raises
    ``ValueError``; the checks are those of :func:`run_network`, and more
    than twice :data:`MAX_MONOMIALS` products, entries times window cells
    summed over the label pairs, raise :class:`NetworkError` before any
    cell is read.

    With ``coincidences`` it also returns the normalized 4xT spin-tag block
    ``blocks[k]`` of the ``k``-th coincidence, the paths of ``codes[first + k]``:
    ``v[2 s1 + s2, c]`` is ``sqrt(2) psi`` of the cell with spin and tag
    (s1, t1) on the lower path and (s2, t2) on the upper one, up to
    normalization, ``c`` the column of (t1, t2), 0 for (0, 0): what
    :func:`twinbeam.metrics.reduce_to_spin_dm` reads off a detected branch.
    Each place's column is divided by the blocks' norms, their squares
    ``(x.conj() * x).real`` summed as ``np.linalg.norm(blocks, axis=(1, 2))`` sums them.
    """
    if state.particle_numbers() != {2}:
        raise ValueError("the pair engine requires a two-particle input")
    table = _checked_path_map(net, state)
    occupied = state.paths()
    # monitored terminals first, sorted, so that patterns come in _pattern_sort_key's order
    reached = dict.fromkeys(t for p in net.inputs if p in occupied for t, _ in table[p])
    watched = set(net.monitored)
    monitored = sorted(watched.intersection(reached))
    terminals = monitored + [t for t in reached if t not in watched]
    label_pairs, windows = _pair_windows(state, table, terminals)
    work = sum(len(entries) * rows.size * cols.size for rows, cols, entries in windows)
    if work > 2 * MAX_MONOMIALS:
        raise NetworkError(f"pair amplitudes would take {work} cell products, "
                           f"over {2 * MAX_MONOMIALS}")
    n, root2 = len(monitored), math.sqrt(2.0)
    # squares below, or above, these put sqrt(2) |psi| below, or above, the threshold
    bounds = PRUNE_THRESHOLD ** 2 / 2 * (1 - 1e-9), PRUNE_THRESHOLD ** 2 / 2 * (1 + 1e-9)
    lo, hi, spans = _pair_space(windows, n)
    # 0: no detector fired; 1 + m: detector m alone; 1 + n + k: coincidence k
    probs, fires = np.zeros(1 + n + lo.size), np.zeros(1 + n + lo.size, dtype=bool)
    pair, pair_fires = probs[1 + n:], fires[1 + n:]
    # one entry's b u_p and u_q over the terminals, zero off its images
    f, g = np.zeros((2, len(terminals)), dtype=complex)
    # each terminal's row and column in the current window, len(terminals) off it
    at_row, at_col = np.full((2, len(terminals)), len(terminals))
    upper = []
    for k, ((first_label, second_label), (rows, cols, entries), (a, b, at)) in enumerate(zip(
            label_pairs, windows, spans)):
        stride = cols.size + 1
        at_row[rows], at_col[cols] = np.arange(rows.size), np.arange(cols.size)
        # the other cells, in row-major order: the diagonal and those with a particle
        # on an unmonitored terminal, each firing its monitored terminal or none
        watched_rows = np.flatnonzero(rows < n)
        own = at_col[rows[watched_rows]]
        cells = np.sort(np.concatenate((
            (np.flatnonzero(rows >= n)[:, None] * stride + np.arange(cols.size)).ravel(),
            (watched_rows[:, None] * stride + np.flatnonzero(cols >= n)).ravel(),
            (watched_rows * stride + own)[own < cols.size])))
        r, c = rows[cells // stride], cols[cells % stride]
        # each cell sums its entries' fresh products f[i] * g[j] left to right, from the
        # first entry's: an in-place product may differ in the last bit
        sums = ()
        for (p, u), (q, w), e in entries:
            f[p], g[q] = e * u, w
            terms = f[a] * g[b], f[b] * g[a], f[r] * g[c]
            sums = tuple(map(np.add, sums, terms)) if sums else terms
            f[p] = g[q] = 0
        x, y, v = sums
        wx, wy = x.real ** 2, y.real ** 2
        wx += x.imag ** 2
        wy += y.imag ** 2
        if k:  # the two cells in row-major order, on the whole space or a window's places
            swap = at_row[b] < at_row[a]
            pair[at] += np.where(swap, wy, wx)
            pair[at] += np.where(swap, wx, wy)
            del swap
        else:  # the space is still zero, and 0 + u + w is 0 + w + u, bit for bit
            pair[at] = wx + wy
        at_row[rows] = at_col[cols] = len(terminals)
        # second-quantized amplitude sqrt(2) psi for two distinct modes, over the threshold
        # by its square unless that is NaN or near the bound: there by np.abs
        largest = np.maximum(wx, wy, out=wx)
        over = largest > bounds[1]
        near = np.flatnonzero(~(over | (largest < bounds[0])))
        over[near] = np.maximum(np.abs(x[near]), np.abs(y[near])) * root2 > PRUNE_THRESHOLD
        pair_fires[at] |= over
        upper.append((at, x) if coincidences else None)
        pattern = np.minimum(r, c) + 1
        pattern[pattern > n] = 0
        np.add.at(probs, pattern, v.real ** 2 + v.imag ** 2)
        amp = np.abs(v) * root2
        # psi / sqrt(2) for both particles in one (path, spin, tag) mode
        amp[(r == c) & (first_label == second_label)] /= 2.0
        fires[pattern[amp > PRUNE_THRESHOLD]] = True
        del sums, terms, x, y, wx, wy, largest, over
    kept = np.flatnonzero(fires)
    probabilities = probs[kept]
    probabilities /= probabilities.sum()
    empty, first = np.searchsorted(kept, [1, n + 1]).tolist()
    codes = np.empty((kept.size, 2), dtype=np.int64)
    codes[:first, 0] = np.where(kept[:first], kept[:first] - 1, n)
    codes[:first, 1] = -1
    # the kept coincidences' places in the space: all of it, as a view, when none is pruned
    kept = slice(None) if kept.size - first == lo.size else kept[first:] - (1 + n)
    codes[first:, 0], codes[first:, 1] = lo[kept], hi[kept]
    blocks = None
    if coincidences:
        columns = {(0, 0): 0}
        places = [(2 * s1 + s2, columns.setdefault((t1, t2), len(columns)))  # (spin row, tag column)
                  for (s1, t1), (s2, t2) in label_pairs]
        width = len(columns)
        squares = np.zeros((len(codes) - first, 4 * width))
        for k, (row, col) in enumerate(places):
            at, x = upper[k]
            if not isinstance(at, slice):  # 0 off the window
                cell = np.zeros(lo.size, dtype=complex)
                cell[at] = x
                x = cell
            # the cell with the smaller path first, 0 where the sparse engine prunes it
            x = x[kept]
            # the pruned kept column replaces the label pair's whole one
            upper[k] = x = np.where(np.abs(x) * root2 > PRUNE_THRESHOLD, x, 0)
            squares[:, row * width + col] = (x.conj() * x).real
        norms = np.sqrt(np.add.reduce(squares, axis=1))
        del squares
        blocks = np.zeros((len(norms), 4, width), dtype=complex)
        for (row, col), x in zip(places, upper):
            np.divide(x, norms, out=blocks[:, row, col])
    return _KeptPatterns(monitored, codes, empty, first, probabilities, blocks)


def _pair_windows(state: FockState, table: PathTable, terminals: Sequence[str]) -> tuple:
    """The internal label pairs of a two-particle state and a window of each.

    A canonical monomial a+_m1 a+_m2 (m1 < m2) of amplitude a enters a/sqrt(2)
    on (m1, m2) and, negated for fermions, on (m2, m1); a doubly occupied
    bosonic mode enters a*sqrt(2).  Window ``(rows, cols, entries)`` holds
    the indices into ``terminals`` that the label pair's first and second
    particles reach, each side in the order its entries' images first reach
    them, and per entry ``b`` on ``(p, q)`` the images of ``p`` and ``q`` and ``b``.
    """
    sign = -1.0 if state.statistics is Statistics.FERMION else 1.0
    groups: dict[tuple, dict] = {}
    for (m1, m2), a in state.terms.items():
        halves = ((m1, m2, a / math.sqrt(2.0)), (m2, m1, sign * a / math.sqrt(2.0)))
        for x, y, value in ((m1, m2, a * math.sqrt(2.0)),) if m1 == m2 else halves:
            group = groups.setdefault(((x.spin, x.tag), (y.spin, y.tag)), {})
            group[x.path, y.path] = group.get((x.path, y.path), 0j) + value
    index = {t: k for k, t in enumerate(terminals)}
    reach = {p: [index[t] for t, _ in table[p]] for p in state.paths()}
    images = {p: (np.array(reach[p]), np.array([c for _, c in table[p]])) for p in reach}
    windows = []
    for group in groups.values():
        sides = [np.array(list(dict.fromkeys(t for path in paths for t in reach[path])))
                 for paths in zip(*group)]
        windows.append((*sides, [(images[p], images[q], b) for (p, q), b in group.items()]))
    return list(groups), windows


def _pair_space(windows: list, n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Every coincidence ``(lo, hi)`` of the windows, in ``np.triu`` order, and per window its
    own ``(lo, hi)`` and their places ``at`` in that space, ``slice(None)`` if it spans it.

    A window's coincidences are the cells ``a < b`` with ``a`` on one sorted monitored side
    and ``b`` on the other, so a window and its swapped twin are one.  Window ``k``'s
    terminals are shifted by ``k n`` and read with the others: each ``a`` pairs with every
    larger ``b`` of the other side, or of both sides when it lies on both, a run of one
    sorted array.  Several windows are merged by the distinct keys ``lo * n + hi``.
    """
    sides, index = {}, []
    for rows, cols, _ in windows:
        x, y = np.sort(rows[rows < n]), np.sort(cols[cols < n])
        key = min((x.tobytes(), y.tobytes()), (y.tobytes(), x.tobytes()))
        index.append(sides.setdefault(key, (len(sides), x, y))[0])
    _, xs, ys = zip(*sides.values())
    x, y = (np.concatenate([part + k * n for k, part in enumerate(s)]) for s in (xs, ys))
    z = _distinct(np.concatenate((x, y)))[0]
    parts = (x, y, z)
    # per array: where a would go, where its larger values begin, and where its window ends
    heads, tails, ends = (np.stack([np.searchsorted(part, v, end) for part in parts])
                          for v, end in ((z, "left"), (z, "right"), ((z // n + 1) * n, "left")))
    on_x, on_y = (tails > heads)[:2]
    # which array holds a's partners: y for a on x alone, x for a on y alone, z for a on both
    side, pick = on_x * (1 + on_y), np.arange(z.size)
    offset = np.array([0, x.size, x.size + y.size])[side]
    start = offset + tails[side, pick]
    counts = offset + ends[side, pick] - start
    lo = np.repeat(z, counts)
    take = np.arange(lo.size)
    take += np.repeat(start - np.cumsum(counts) + counts, counts)
    hi = np.concatenate(parts)[take]
    if len(sides) == 1:
        return lo, hi, [(lo, hi, slice(None))] * len(windows)
    bounds = np.searchsorted(lo, np.arange(len(sides) + 1) * n).tolist()
    lo, hi = lo % n, hi % n
    merged, at = _distinct(lo * n + hi)
    spans = [(lo[s:e], hi[s:e], at[s:e]) for s, e in zip(bounds, bounds[1:])]
    return (*np.divmod(merged, n), [spans[k] for k in index])


def build_tree(depth: int) -> Network:
    """Binary splitting tree with detectors on the 2**depth leaf paths.

    The root splitter takes the network inputs A and B; the path named
    by a binary string s is further split into s+"0" (out1) and s+"1"
    (out2), the unused second port of that splitter being the vacuum
    path s+"~".  Depth 1 is the single-splitter setup; depth 2 adds the
    two second-stage splitters.  ``depth`` lies in 1 .. :data:`MAX_TREE_DEPTH`.
    """
    _check_range("depth", depth, 1, MAX_TREE_DEPTH)
    splitters = [BeamSplitter("A", "B", "0", "1")]
    for level in range(1, depth):
        for index in range(2 ** level):
            parent = format(index, f"0{level}b")
            splitters.append(BeamSplitter(parent, parent + "~", parent + "0", parent + "1"))
    leaves = tuple(format(i, f"0{depth}b") for i in range(2 ** depth))
    return Network(tuple(splitters), ("A", "B"), leaves)


def fig1_network() -> Network:
    """Single splitter A,B -> D,C with detectors on C and D."""
    return Network((BeamSplitter("A", "B", "D", "C"),), ("A", "B"), ("D", "C"))


def fig2_network() -> Network:
    """Three-splitter network: C splits into (E, F), D into (G, H)."""
    splitters = (
        BeamSplitter("A", "B", "D", "C"),
        BeamSplitter("D", "D~", "G", "H"),
        BeamSplitter("C", "C~", "E", "F"),
    )
    return Network(splitters, ("A", "B"), ("G", "H", "E", "F"))


def opposite_spin_input(statistics: Statistics, net: Network) -> FockState:
    """|up> in the first network input, |down> in the second; NetworkError below two inputs."""
    if len(net.inputs) < 2:
        raise NetworkError("the network needs two input paths for the opposite-spin pair")
    a, b = net.inputs[0], net.inputs[1]
    return make_product_state(statistics, [Mode(a, Spin.UP), Mode(b, Spin.DOWN)])


def heralded_pair(state: FockState) -> Branch:
    """The C+D branch that :func:`detect` gives for a pair sent through the single splitter.

    A pair that never fires both detectors gets probability 0.0 and the zero state.
    """
    net = fig1_network()
    for branch in detect(run_network(net, state), net.monitored):
        if branch.pattern == {"C", "D"}:
            return branch
    return Branch(frozenset(("C", "D")), FockState(state.statistics, {}), 0.0)


class FeedbackRound(NamedTuple):
    round: int
    success_probability: float
    cumulative_failure: float
    conditional_state: FockState


def feedback_run(depth: int, statistics: Statistics) -> list[FeedbackRound]:
    """Recycle bunched pairs through the single-splitter setup.

    Each round sends the current pair through the A,B -> D,C splitter;
    on coincidence the round succeeds with its conditional spin pair,
    otherwise the bunched pair is re-injected through port A with its
    internal phases intact.  The per-round success probability is 1/2,
    so the failure probability after round k is 2**-k.  ``depth``, the
    number of rounds, lies in 1 .. :data:`MAX_FEEDBACK_ROUNDS`.  The
    re-injected pair ``i |A up; A down>`` bunches back into itself, so its
    branches, detected once, serve every round from the second on.
    """
    _check_range("depth", depth, 1, MAX_FEEDBACK_ROUNDS)
    net = fig1_network()
    branches = detect(run_network(net, opposite_spin_input(statistics, net)), net.monitored)
    rounds = []
    cumulative_failure = 1.0
    for k in range(1, depth + 1):
        if k == 2:
            reinjected = _apply_path_table(branches[{"D"}].state, {"D": (("A", 1.0 + 0j),)})
            branches = detect(run_network(net, reinjected), net.monitored)
        success = branches[{"C", "D"}]
        cumulative_failure *= 1.0 - success.probability
        rounds.append(FeedbackRound(k, success.probability, cumulative_failure, success.state))
    return rounds


def _draw_counts(
    probabilities: Sequence[float] | np.ndarray, trials: int, seed: int
) -> np.ndarray:
    """Seeded multinomial counts of ``trials`` draws, an int64 array with one per probability.

    The draw behind ``twinbeam clicks`` and the feedback scenario's
    sampled trajectories; the probabilities are renormalized, ``trials``
    must lie in 1 .. :data:`MAX_TRIALS` and ``seed`` be nonnegative.
    """
    _check_range("trials", trials, 1, MAX_TRIALS)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    probs = np.asarray(probabilities)
    rng = np.random.default_rng(seed)
    return rng.multinomial(trials, probs / probs.sum())
