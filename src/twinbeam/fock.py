"""Sparse second-quantized states for a few identical particles.

A state is stored as a complex-weighted sum of creation-operator
monomials acting on the vacuum.  Monomial keys are tuples of modes in
canonical (sorted) order; the sign of the fermionic reordering needed
to reach that order is absorbed into the amplitude when a term is
inserted.  Amplitudes weight *raw* operator products, not normalized
number states, so a mode occupied k times contributes k! to the
squared norm (see :meth:`FockState.norm`).

Modes carry a path label, a spin, and a small integer tag for any
extra internal degree of freedom; modes are totally ordered by
(path, spin, tag), which fixes the global phase convention of every
multi-particle ket.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from enum import Enum, IntEnum
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import PauliExclusionError, StatisticsMismatchError

#: amplitudes below this magnitude are dropped when states are assembled
PRUNE_THRESHOLD = 1e-12


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, which Python 3.12's ``sum`` does not do."""
    return functools.reduce(operator.add, values, 0.0)


class Statistics(Enum):
    """Exchange statistics of the identical particles."""

    BOSON = "boson"
    FERMION = "fermion"

    @classmethod
    def from_name(cls, name: str) -> "Statistics":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown statistics {name!r}; use 'boson' or 'fermion'") from None


class Spin(IntEnum):
    UP = 0
    DOWN = 1

    def __str__(self) -> str:
        return "↑" if self is Spin.UP else "↓"


class Mode(NamedTuple):
    """One second-quantized mode: (path, spin, internal tag)."""

    path: str
    spin: Spin
    tag: int = 0

    def __str__(self) -> str:
        suffix = f"#{self.tag}" if self.tag else ""
        return f"{self.path}{self.spin}{suffix}"


Monomial = tuple[Mode, ...]


def _canonicalize(modes: Sequence[Mode], fermionic: bool) -> tuple[Monomial | None, float]:
    """Sort modes, returning (key, sign); (None, 0) if Pauli-excluded."""
    lst = list(modes)
    sign = 1.0
    # insertion sort; mode counts are tiny, and fermions need the swap parity
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j] < lst[j - 1]:
            lst[j], lst[j - 1] = lst[j - 1], lst[j]
            sign = -sign
            j -= 1
    if fermionic:
        for i in range(1, len(lst)):
            if lst[i] == lst[i - 1]:
                return None, 0.0
        return tuple(lst), sign
    return tuple(lst), 1.0


def _monomial_weight(monomial: Monomial) -> float:
    """Product of multiplicity factorials (the self-overlap of a raw monomial)."""
    weight = 1.0
    run = 1
    for i in range(1, len(monomial)):
        if monomial[i] == monomial[i - 1]:
            run += 1
            weight *= run
        else:
            run = 1
    return weight


class FockState:
    """Immutable sparse superposition of creation-operator monomials.

    Construct states through :func:`make_product_state` and linear
    combinations; the raw constructor expects keys already in canonical
    sorted order and does not re-canonicalize (``FockState(statistics,
    {(): 1.0})`` is the vacuum).
    """

    __slots__ = ("statistics", "_terms")

    def __init__(self, statistics: Statistics, terms: dict[Monomial, complex]):
        # NaN would fail the pruning test below and vanish silently, so non-finite raises first
        if not all(map(cmath.isfinite, terms.values())):
            bad = next(k for k, v in terms.items() if not cmath.isfinite(v))
            raise ValueError(f"amplitude {terms[bad]} of {bad} is not finite")
        self.statistics = statistics
        self._terms = {k: complex(v) for k, v in terms.items() if abs(v) > PRUNE_THRESHOLD}

    @property
    def terms(self) -> Mapping[Monomial, complex]:
        """Read-only view of the canonical monomials and their amplitudes."""
        return MappingProxyType(self._terms)

    def norm(self) -> float:
        # |a| * |a| is the correctly rounded square; ** 2 goes through libm pow
        return math.sqrt(ordered_sum((mag := abs(a)) * mag * _monomial_weight(m)
                                     for m, a in self._terms.items()))

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self / n

    def particle_numbers(self) -> set[int]:
        """Distinct particle counts across monomials (vacuum counts as 0)."""
        if not self._terms:
            return {0}
        return {len(m) for m in self._terms}

    def paths(self) -> set[str]:
        return {mode.path for m in self._terms for mode in m}

    def modes(self) -> set[Mode]:
        return {mode for m in self._terms for mode in m}

    def __add__(self, other: "FockState") -> "FockState":
        if self.statistics is not other.statistics:
            raise StatisticsMismatchError("cannot add states with different statistics")
        merged = dict(self._terms)
        for m, a in other._terms.items():
            merged[m] = merged.get(m, 0j) + a
        return FockState(self.statistics, merged)

    def __mul__(self, scalar: complex) -> "FockState":
        return FockState(self.statistics, {m: a * scalar for m, a in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "FockState":
        return FockState(self.statistics, {m: a / scalar for m, a in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.statistics is other.statistics and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return f"FockState({self.statistics.value}, 0)"
        parts = []
        for m in sorted(self._terms):
            a = self._terms[m]
            ket = ";".join(str(mode) for mode in m) if m else "vac"
            parts.append(f"({a:.6g})|{ket}⟩")
        return " + ".join(parts)


def make_product_state(statistics: Statistics, modes: Sequence[Mode]) -> FockState:
    """Apply the listed creation operators to the vacuum and normalize.

    The amplitude of the canonical monomial carries the sign of the
    fermionic reordering from the given operator order.  Listing a
    fermionic mode twice raises :class:`PauliExclusionError`.
    """
    fermionic = statistics is Statistics.FERMION
    key, sign = _canonicalize(tuple(modes), fermionic)
    if key is None:
        dupes = sorted({m for m in modes if list(modes).count(m) > 1})
        raise PauliExclusionError(f"Pauli exclusion: duplicate fermionic mode(s) {dupes}")
    amp = sign / math.sqrt(_monomial_weight(key))
    return FockState(statistics, {key: amp})


Substitution = dict[Mode, tuple[tuple[Mode, complex], ...]]


def substitute_modes(state: FockState, table: Substitution) -> FockState:
    """Rewrite each creation operator per ``table`` and re-canonicalize.

    Low-level multilinear engine of the beam-splitter networks.  No
    unitarity check is performed here.
    """
    fermionic = state.statistics is Statistics.FERMION
    out: dict[Monomial, complex] = {}
    for monomial, amp in state._terms.items():
        if not any(mode in table for mode in monomial):
            out[monomial] = out.get(monomial, 0j) + amp
            continue
        options = [table.get(mode, ((mode, 1.0 + 0j),)) for mode in monomial]
        for combo in product(*options):
            coeff = amp
            modes = []
            for new_mode, c in combo:
                coeff *= c
                modes.append(new_mode)
            key, sign = _canonicalize(modes, fermionic)
            if key is None:
                continue
            out[key] = out.get(key, 0j) + coeff * sign
    return FockState(state.statistics, out)

