"""Brute-force first-quantized simulator for exactly two particles.

A dense reference: states are amplitude matrices over ordered pairs of
single-particle labels, evolved one splitter at a time by ``U (x) U``.
It shares no evolution code with :mod:`twinbeam.fock` or the pair
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NotUnitaryError
from .fock import PRUNE_THRESHOLD, Mode, Spin, Statistics

SYMMETRY_TOL = 1e-12
NORM_TOL = 1e-9

#: dense-storage guard: 16 paths x 2 spins x 4 tags
MAX_LABELS = 16 * 2 * 4


@dataclass(frozen=True, eq=False)
class FirstQuantizedState:
    """Two-particle amplitudes over ordered pairs of mode labels."""

    statistics: Statistics
    labels: tuple[Mode, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.labels)
        if n > MAX_LABELS:
            raise ValueError(f"label space of {n} exceeds the dense-storage limit {MAX_LABELS}")
        if len(set(self.labels)) != n:
            raise ValueError("labels are not distinct")
        m = np.asarray(self.amplitudes, dtype=complex)
        if m.shape != (n, n):
            raise ValueError(f"amplitude matrix must be {n}x{n}, got {m.shape}")
        sign = -1.0 if self.statistics is Statistics.FERMION else 1.0
        if not np.allclose(m, sign * m.T, atol=SYMMETRY_TOL, rtol=0.0):
            raise ValueError("amplitudes violate the exchange symmetry for these statistics")
        if abs(np.linalg.norm(m) - 1.0) > NORM_TOL:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", m)


def pair_state(
    statistics: Statistics, labels: Sequence[Mode], one: Mode, two: Mode
) -> FirstQuantizedState:
    """(Anti)symmetrized normalized state of one particle in each given label."""
    labels = tuple(sorted(labels))
    n = len(labels)
    m = np.zeros((n, n), dtype=complex)
    i, j = labels.index(one), labels.index(two)
    if i == j:
        if statistics is Statistics.FERMION:
            raise ValueError("fermions cannot share a label")
        m[i, i] = 1.0
    else:
        sign = -1.0 if statistics is Statistics.FERMION else 1.0
        m[i, j] = 1.0 / math.sqrt(2.0)
        m[j, i] = sign / math.sqrt(2.0)
    return FirstQuantizedState(statistics, labels, m)


def oracle_evolve(state: FirstQuantizedState, u: np.ndarray) -> FirstQuantizedState:
    """Apply a single-particle unitary to both tensor factors."""
    u = np.asarray(u, dtype=complex)
    n = len(state.labels)
    if u.shape != (n, n):
        raise ValueError(f"unitary must be {n}x{n} over the state's label space")
    if not np.allclose(u.conj().T @ u, np.eye(n), atol=1e-9, rtol=0.0):
        raise NotUnitaryError("single-particle map is not unitary within 1e-9")
    return FirstQuantizedState(state.statistics, state.labels, u @ state.amplitudes @ u.T)


def oracle_detect(
    state: FirstQuantizedState, monitored: Sequence[str]
) -> tuple[dict[frozenset[str], float], dict[frozenset[str], FirstQuantizedState]]:
    """Group amplitudes by which monitored paths are occupied.

    Returns the pattern probability distribution and the renormalized
    conditional state for each pattern of nonzero probability.
    Amplitudes at or below the engine's prune threshold count as zero,
    so cancellation dust cannot spawn spurious patterns.
    """
    monitored_set = set(monitored)
    n = len(state.labels)
    groups: dict[frozenset[str], np.ndarray] = {}
    for i in range(n):
        for j in range(n):
            a = state.amplitudes[i, j]
            if abs(a) <= PRUNE_THRESHOLD:
                continue
            pattern = frozenset(
                p for p in (state.labels[i].path, state.labels[j].path) if p in monitored_set
            )
            if pattern not in groups:
                groups[pattern] = np.zeros((n, n), dtype=complex)
            groups[pattern][i, j] = a
    probs: dict[frozenset[str], float] = {}
    conditionals: dict[frozenset[str], FirstQuantizedState] = {}
    for pattern, m in groups.items():
        p = float(np.sum(np.abs(m) ** 2))
        probs[pattern] = p
        conditionals[pattern] = FirstQuantizedState(
            state.statistics, state.labels, m / math.sqrt(p)
        )
    return probs, conditionals


def splitter_unitary(labels: Sequence[Mode], in1: str, in2: str, out1: str, out2: str) -> np.ndarray:
    """Single-particle matrix of one 50:50 splitter over a full label space.

    Input labels map to output labels with the transmit-1, reflect-i
    convention; output labels map back so the matrix stays unitary
    (they are never occupied before the splitter fires).
    """
    labels = tuple(labels)
    index = {m: k for k, m in enumerate(labels)}
    n = len(labels)
    u = np.eye(n, dtype=complex)
    t, r = 1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)
    tags = {m.tag for m in labels}
    for tag in tags:
        for s in (Spin.UP, Spin.DOWN):
            quad = [Mode(p, s, tag) for p in (in1, in2, out1, out2)]
            if not all(q in index for q in quad):
                continue
            i1, i2, o1, o2 = (index[q] for q in quad)
            for k in (i1, i2, o1, o2):
                u[k, k] = 0.0
            u[o1, i1] = t
            u[o2, i1] = r
            u[o2, i2] = t
            u[o1, i2] = r
            u[i1, o1] = t
            u[i2, o1] = r
            u[i2, o2] = t
            u[i1, o2] = r
    return u
