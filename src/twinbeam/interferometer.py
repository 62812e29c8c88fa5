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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ImpossiblePostselectionError, NetworkError
from .fock import (
    FockState,
    Mode,
    Spin,
    Statistics,
    Substitution,
    apply_spin_rotation,
    make_product_state,
    substitute_modes,
)

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

    def path_table(self) -> PathTable:
        return {
            self.in1: ((self.out1, _TRANSMIT), (self.out2, _REFLECT)),
            self.in2: ((self.out2, _TRANSMIT), (self.out1, _REFLECT)),
        }


@dataclass(frozen=True)
class Network:
    """An ordered, feed-forward arrangement of splitters with detectors.

    ``inputs`` are the only paths a state may occupy on entry; splitter
    input ports that are neither network inputs nor earlier outputs are
    permanently empty vacuum ports.  ``monitored`` paths carry the
    which-way detectors and must be terminal.
    """

    splitters: tuple[BeamSplitter, ...]
    inputs: tuple[str, ...]
    monitored: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "splitters", tuple(self.splitters))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "monitored", tuple(self.monitored))
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

    def path_map(self) -> PathTable:
        """Where one particle entering each network input ends up.

        The splitters are composed in order into
        ``{input path: ((terminal path, amplitude), ...)}``.
        """
        images = {p: {p: 1.0 + 0j} for p in self.inputs}
        for bs in self.splitters:
            for port, outputs in bs.path_table().items():
                for image in images.values():
                    amp = image.pop(port, None)
                    if amp is not None:
                        for out, c in outputs:
                            image[out] = image.get(out, 0j) + amp * c
        return {p: tuple(image.items()) for p, image in images.items()}

    def to_dict(self) -> dict:
        """JSON-ready description: splitters as port 4-tuples plus path lists."""
        return {
            "splitters": [[b.in1, b.in2, b.out1, b.out2] for b in self.splitters],
            "inputs": list(self.inputs),
            "monitored": list(self.monitored),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        """Inverse of :meth:`to_dict`; every path name must be a JSON string."""
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
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise NetworkError(f"{what} must be a list of path-name strings, got {value!r}")
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

    def probabilities(self) -> dict[ExcitationPattern, float]:
        return {b.pattern: b.probability for b in self.branches}


def _pattern_sort_key(pattern: ExcitationPattern):
    return (len(pattern), tuple(sorted(pattern)))


def run_network(net: Network, state: FockState) -> FockState:
    """Propagate a state through the whole network; returns it normalized.

    Splitters act on paths alone, so every creation operator is
    replaced once by its image under :meth:`Network.path_map`.  A state
    that would expand into more than :data:`MAX_MONOMIALS` monomials is
    refused with :class:`NetworkError` before any expansion.
    """
    stray = state.paths() - set(net.inputs)
    if stray:
        raise NetworkError(f"input occupies paths {sorted(stray)} outside the network inputs")
    table = net.path_map()
    size = sum(math.prod(len(table[m.path]) for m in monomial) for monomial in state.terms)
    if size > MAX_MONOMIALS:
        raise NetworkError(f"propagation would make {size} monomials, over {MAX_MONOMIALS}")
    return _apply_path_table(state, table).normalized()


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
        branches.append(Branch(pattern, component / n, n ** 2))
    total = sum(b.probability for b in branches)
    if abs(math.sqrt(total) - 1.0) > 1e-7:
        raise ValueError("detect requires a normalized state")
    branches = [Branch(b.pattern, b.state, b.probability / total) for b in branches]
    return BranchSet(tuple(branches))


def postselect(
    branches: BranchSet, predicate: Callable[[ExcitationPattern], bool]
) -> tuple[float, BranchSet]:
    """Keep the branches whose pattern satisfies the predicate.

    Returns the total probability of the kept branches and the
    renormalized conditional branch set.  Selecting an outcome of zero
    probability raises :class:`ImpossiblePostselectionError`.
    """
    kept = [b for b in branches if predicate(b.pattern)]
    total = sum(b.probability for b in kept)
    if total <= 0.0:
        raise ImpossiblePostselectionError("post-selection matched no branch of nonzero probability")
    conditional = BranchSet(tuple(Branch(b.pattern, b.state, b.probability / total) for b in kept))
    return total, conditional


def coincidence(pattern: ExcitationPattern) -> bool:
    """True when exactly two distinct detectors fired."""
    return len(pattern) == 2


def build_tree(depth: int) -> Network:
    """Binary splitting tree with detectors on the 2**depth leaf paths.

    The root splitter takes the network inputs A and B; the path named
    by a binary string s is further split into s+"0" (out1) and s+"1"
    (out2), the unused second port of that splitter being the vacuum
    path s+"~".  Depth 1 is the single-splitter setup; depth 2 adds the
    two second-stage splitters.
    """
    if not 1 <= depth <= MAX_TREE_DEPTH:
        raise ValueError(f"tree depth must be between 1 and {MAX_TREE_DEPTH}, got {depth}")
    splitters = [BeamSplitter("A", "B", "0", "1")]
    for level in range(1, depth):
        for index in range(2 ** level):
            parent = format(index, f"0{level}b")
            splitters.append(BeamSplitter(parent, parent + "~", parent + "0", parent + "1"))
    leaves = tuple(format(i, f"0{depth}b") for i in range(2 ** depth))
    return Network(tuple(splitters), ("A", "B"), leaves)


_FIG1_NAMES = {"0": "D", "1": "C"}
_FIG2_NAMES = {"0": "D", "1": "C", "00": "G", "01": "H", "10": "E", "11": "F"}


def _relabel(net: Network, names: dict[str, str]) -> Network:
    def rename(p: str) -> str:
        if p.endswith("~"):
            return names.get(p[:-1], p[:-1]) + "~"
        return names.get(p, p)

    splitters = tuple(
        BeamSplitter(rename(b.in1), rename(b.in2), rename(b.out1), rename(b.out2))
        for b in net.splitters
    )
    return Network(splitters, tuple(rename(p) for p in net.inputs), tuple(rename(p) for p in net.monitored))


def fig1_network() -> Network:
    """Single splitter A,B -> D,C with detectors on C and D."""
    return _relabel(build_tree(1), _FIG1_NAMES)


def fig2_network() -> Network:
    """Three-splitter network: C splits into (E, F), D into (G, H)."""
    return _relabel(build_tree(2), _FIG2_NAMES)


def opposite_spin_input(statistics: Statistics, net: Network) -> FockState:
    """|up> in the first network input, |down> in the second."""
    a, b = net.inputs[0], net.inputs[1]
    return make_product_state(statistics, [Mode(a, Spin.UP), Mode(b, Spin.DOWN)])


def entangled_yield(net: Network, state: FockState) -> float:
    """Total probability of two-detector coincidences at the network output."""
    if state.particle_numbers() != {2}:
        raise ValueError("entangled_yield requires a two-particle input")
    branches = detect(run_network(net, state), net.monitored)
    return sum(b.probability for b in branches if coincidence(b.pattern))


class FeedbackRound(NamedTuple):
    round: int
    success_probability: float
    cumulative_failure: float
    conditional_state: FockState


def feedback_run(max_rounds: int, statistics: Statistics) -> list[FeedbackRound]:
    """Recycle bunched pairs through the single-splitter setup.

    Each round sends the current pair through the A,B -> D,C splitter;
    on coincidence the round succeeds with its conditional spin pair,
    otherwise the bunched pair is re-injected through port A with its
    internal phases intact.  The per-round success probability is 1/2,
    so the failure probability after round k is 2**-k.
    """
    if max_rounds < 1:
        raise ValueError("at least one feedback round is required")
    net = fig1_network()
    state = opposite_spin_input(statistics, net)
    rounds = []
    cumulative_failure = 1.0
    for k in range(1, max_rounds + 1):
        branches = detect(run_network(net, state), net.monitored)
        success = branches[{"C", "D"}]
        cumulative_failure *= 1.0 - success.probability
        rounds.append(FeedbackRound(k, success.probability, cumulative_failure, success.state))
        if k == max_rounds:
            break
        bunched = branches[{"D"}]
        state = _apply_path_table(bunched.state, {"D": (("A", 1.0 + 0j),)})
    return rounds


def correction_for_branch(branch: Branch) -> dict[str, np.ndarray]:
    """Local spin unitaries turning a coincidence branch into psi+.

    Returns only the non-identity per-path 2x2 corrections; composing
    them with the branch state gives the |up down> + |down up> Bell pair
    on the two firing paths, up to global phase.
    """
    if not coincidence(branch.pattern):
        raise NetworkError(f"pattern {sorted(branch.pattern)} is not a two-detector coincidence")
    p1, p2 = sorted(branch.pattern)
    alpha = branch.state.amplitude([Mode(p1, Spin.UP), Mode(p2, Spin.DOWN)])
    beta = branch.state.amplitude([Mode(p1, Spin.DOWN), Mode(p2, Spin.UP)])
    if abs(abs(alpha) - 1 / math.sqrt(2)) > 1e-9 or abs(abs(beta) - 1 / math.sqrt(2)) > 1e-9:
        raise NetworkError(
            f"branch {sorted(branch.pattern)} is not a local-phase image of psi+"
        )
    delta = alpha / beta
    delta /= abs(delta)
    if abs(delta.imag) < 1e-12:
        delta = complex(1.0 if delta.real > 0 else -1.0)
    if delta == 1.0:
        return {}
    return {p1: np.array([[1.0, 0.0], [0.0, delta]], dtype=complex)}


def apply_correction(state: FockState, correction: dict[str, np.ndarray]) -> FockState:
    """Apply a per-path spin correction map to a state."""
    for path, rotation in sorted(correction.items()):
        state = apply_spin_rotation(state, path, rotation)
    return state


def sample_clicks(branches: BranchSet, trials: int, seed: int) -> dict[ExcitationPattern, int]:
    """Sample detector patterns from the exact distribution of detected branches.

    Deterministic for a given seed; patterns that never occur are
    omitted from the histogram.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    probs = np.array([b.probability for b in branches])
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, probs / probs.sum())
    return {b.pattern: int(c) for b, c in zip(branches, counts) if c > 0}
