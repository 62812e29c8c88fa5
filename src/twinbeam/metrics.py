"""Two-qubit reductions and entanglement measures on amplitude blocks.

A post-selected two-particle state is a ``(4, T)`` block ``v``: rows
are the two-qubit basis {00, 01, 10, 11}, columns the internal tag
pairs, and its density matrix, tags traced out, is ``v v† / |v|^2``.
Every measure reads a ``(..., 4, T)`` stack of blocks without forming
that matrix; a local spin rotation ``R1 (x) R2`` is ``kron(R1, R2) @ v``
on its rows.  Paths label the particles and spins are the qubits in
:func:`reduce_to_spin_dm`; spins label the particles and paths are the
qubits in :func:`dual_relabel`.  Both order the tag columns by path.
On a coincidence of one up and one down particle the dual block is the
spin block with row 2 (|down up>) times the exchange sign: equal for
bosons, row 2 negated for fermions.  Neither has a uu or dd row, so the
sign is a local Z and the two pictures agree on concurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import OccupancyError
from .fock import FockState, Mode, Monomial, Spin, Statistics, make_product_state

DM_TOL = 1e-9

#: a block is labelled with a Bell state when its fidelity exceeds 1 - BELL_TOL
BELL_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

#: |up down> +- |down up> in the {uu, ud, du, dd} basis
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


# No package code builds one: it stays only because perfbench/tracer.py wraps its methods.
@dataclass(frozen=True, eq=False)
class TwoQubitDM:
    """4x4 density matrix of two qubits, basis {00, 01, 10, 11}."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a private read-only copy: validated once here, it cannot change afterwards
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        self.validate()

    def validate(self) -> None:
        validate_dms(self.matrix)


def validate_dms(rho: np.ndarray) -> None:
    """Check that every matrix of a ``(..., 4, 4)`` stack is a density matrix.

    Hermitian, unit trace and positive semidefinite, each within
    :data:`DM_TOL`, checked in that order over the whole stack: the first
    check that any matrix fails raises its :class:`ValueError`.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape[-2:]}")
    adjoint = rho.conj().swapaxes(-1, -2)
    # np.allclose(m, m†, atol=DM_TOL, rtol=0), equal infinities included
    if not ((np.abs(rho - adjoint) <= DM_TOL) | (rho == adjoint)).all():
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if ((np.abs(trace.real - 1.0) > DM_TOL) | (np.abs(trace.imag) > DM_TOL)).any():
        raise ValueError("density matrix trace is not 1 within tolerance")
    lowest = np.linalg.eigvalsh((rho + adjoint) / 2.0).min(axis=-1).ravel()
    negative = lowest[lowest < -DM_TOL]
    if negative.size:
        raise ValueError(f"density matrix has negative eigenvalue {negative[0]}")


def _pair_blocks(
    states: Sequence[FockState], path_x: str, path_y: str, place: Callable
) -> np.ndarray:
    """4xT amplitude arrays of two-particle states on two paths, stacked as ``(n, 4, T)``.

    ``place(monomial, amp, p1, p2)``, p1 being the smaller path, returns
    a canonical monomial's basis row and amplitude or raises
    :class:`OccupancyError`.  Each tag pair met in any of the states is
    one column, shared by all of them.
    """
    if path_x == path_y:
        raise ValueError("the two paths must differ")
    p1, p2 = sorted((path_x, path_y))
    columns: dict[tuple[int, int], int] = {}
    entries: list[tuple[int, int, int, complex]] = []
    for k, state in enumerate(states):
        for monomial, amp in state.terms.items():
            row, amp = place(monomial, amp, p1, p2)
            col = columns.setdefault((monomial[0].tag, monomial[1].tag), len(columns))
            entries.append((k, row, col, amp))
    if not entries:
        raise OccupancyError("state has no two-particle support on the given paths")
    v = np.zeros((len(states), 4, len(columns)), dtype=complex)
    for k, row, col, amp in entries:
        v[k, row, col] += amp
    return v


def density_matrices(v: np.ndarray) -> np.ndarray:
    """``v v† / tr`` of each 4xT amplitude array in a ``(..., 4, T)`` stack.  Not validated."""
    rho = v @ v.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return rho


def _spin_place(monomial: Monomial, amp: complex, p1: str, p2: str) -> tuple[int, complex]:
    if len(monomial) != 2 or monomial[0].path != p1 or monomial[1].path != p2:
        raise OccupancyError(
            f"monomial {monomial} does not have one particle in each of {p1!r} and {p2!r}"
        )
    m1, m2 = monomial
    return 2 * int(m1.spin) + int(m2.spin), amp


def spin_blocks(states: Sequence[FockState], path_x: str, path_y: str) -> np.ndarray:
    """Spin-tag blocks ``v[k, 2 s1 + s2, (t1, t2)]`` of states with one particle on each path.

    Qubit 1 is the lexicographically smaller path; the ``(n, 4, T)``
    stack shares one tag-pair column set, as :func:`_pair_blocks` builds it.
    """
    return _pair_blocks(states, path_x, path_y, _spin_place)


def _norms_sq(v: np.ndarray) -> np.ndarray:
    """``|v|^2`` of each ``(4, T)`` block of a stack, summed on a float view of ``v``, or 1 if 0."""
    f = np.ascontiguousarray(v, dtype=complex).view(np.float64)
    n = np.einsum("...ij,...ij->...", f, f)
    return np.where(n == 0.0, 1.0, n)


def _unit_block(v: np.ndarray) -> np.ndarray:
    """``v / |v|``; a norm that is not finite (an amplitude overflowed) raises ValueError."""
    norm = math.sqrt(_norms_sq(v))
    if not math.isfinite(norm):
        raise ValueError(f"amplitude block norm {norm} is not finite")
    return v / norm


def reduce_to_spin_dm(state: FockState, path_x: str, path_y: str) -> np.ndarray:
    """Unit spin-tag block, ``(4, T)``, of a state with one particle in each given path.

    Qubit 1 is the lexicographically smaller path.  Canonical monomial
    amplitudes (fermionic reordering signs already folded in) become
    the coefficients ``v[2 s1 + s2, (t1, t2)]`` of |s1 s2> (x) |t1 t2>;
    the spin density matrix is ``v v†``, the tags traced out.
    """
    return _unit_block(spin_blocks([state], path_x, path_y)[0])


def dual_relabel(state: FockState, path_x: str, path_y: str) -> np.ndarray:
    """Unit path-tag block, ``(4, T)``, with the spins used as particle labels.

    Qubit 1 is the up particle's path, qubit 2 the down particle's, in
    the basis {XX, XY, YX, YY} with X the lexicographically smaller of
    the two paths.  Every monomial must hold exactly one up and one
    down particle on the given paths; bunched monomials (both particles
    in one path) are allowed.  Tag slots keep their canonical (path)
    order and are the block's columns.
    """
    eta = -1.0 if state.statistics is Statistics.FERMION else 1.0

    def place(monomial: Monomial, amp: complex, p1: str, p2: str) -> tuple[int, complex]:
        if len(monomial) != 2 or any(m.path not in (p1, p2) for m in monomial):
            raise OccupancyError(f"monomial {monomial} is not supported on {p1!r}, {p2!r}")
        m1, m2 = monomial
        if {m1.spin, m2.spin} != {Spin.UP, Spin.DOWN}:
            raise OccupancyError(f"monomial {monomial} does not hold one up and one down spin")
        if m1.spin is Spin.UP:
            up, down, reorder = m1, m2, 1.0
        else:
            up, down, reorder = m2, m1, eta
        return 2 * int(up.path == p2) + int(down.path == p2), amp * reorder

    return _unit_block(_pair_blocks([state], path_x, path_y, place)[0])


def concurrences(v: np.ndarray) -> np.ndarray:
    """Wootters concurrence of ``v v† / |v|^2`` for each block of a ``(..., 4, T)`` stack.

    C = max(0, l1 - l2 - ... - lT).  The l_i, the decreasing square
    roots of the eigenvalues of rho (sy x sy) rho* (sy x sy), are the
    singular values of the symmetric T x T matrix ``vᵀ (sy x sy) v``
    over ``|v|^2`` (Wootters, PRL 80, 2245, 1998), so no 4x4 matrix is
    formed.  An X state, a block whose rows 0 and 3 (uu, dd) are exactly
    zero, takes ``2 |sum_c v1c conj(v2c)| / |v|^2`` at any tag count, so
    a zero tag column changes no bit.  Only the other blocks, picked
    block by block, go through one batched SVD, so a block gets the same
    value alone as in any stack.  A zero block gives 0.
    """
    v = np.asarray(v)
    # an X state, no uu or dd row: C = 2 |rho_ud,du| (Yu and Eberly, 2007)
    c = 2.0 * np.abs((v[..., 1, :] * v[..., 2, :].conj()).sum(axis=-1))
    rest = v[..., 0, :].any(axis=-1) | v[..., 3, :].any(axis=-1)
    if rest.any():
        w = v[rest]
        # vᵀ (sy x sy) v is a + aᵀ, a[b, c] = v1b v2c - v0b v3c
        a = w[:, 1, :, None] * w[:, 2, None, :] - w[:, 0, :, None] * w[:, 3, None, :]
        lams = np.linalg.svd(a + a.swapaxes(-1, -2), compute_uv=False)
        c = np.array(c)
        c[rest] = np.maximum(lams[..., 0] - lams[..., 1:].sum(axis=-1), 0.0)
    return c / _norms_sq(v)


def _chsh_operator() -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    b, b_p = s * (SIGMA_X + SIGMA_Y), s * (SIGMA_X - SIGMA_Y)
    operator = np.kron(SIGMA_X, b + b_p) + np.kron(SIGMA_Y, b - b_p)
    operator.flags.writeable = False
    return operator


#: a b + a b' + a' b - a' b' with a, a' = x, y on the first qubit and
#: b, b' = (x + y)/sqrt2, (x - y)/sqrt2 on the second
CHSH_OPERATOR = _chsh_operator()


def chsh_values(v: np.ndarray) -> np.ndarray:
    """CHSH value, the expectation of :data:`CHSH_OPERATOR`, of each block of a ``(..., 4, T)`` stack.

    ``sum_c v_c† O v_c / |v|^2`` over the tag columns ``v_c``: ``tr(O rho)`` for the density
    matrix ``rho = v v† / |v|^2``, so no value passes the quantum bound.  A zero block gives 0.
    """
    return (np.conj(v) * (CHSH_OPERATOR @ v)).real.sum(axis=(-2, -1)) / _norms_sq(v)


def distinguishability(overlap: complex) -> float:
    """Best success probability for telling the two internal tags apart, ``1 - |overlap|^2``."""
    mag = abs(overlap)
    if not mag <= 1.0 + 1e-12:  # NaN and inf fail too
        raise ValueError(f"|overlap| = {mag} exceeds 1")
    mag = min(mag, 1.0)
    # mag * mag is the correctly rounded square; mag ** 2 goes through libm pow
    return 1.0 - mag * mag


def gaussian_overlap(velocity: float, delay: float, width: float) -> float:
    """Tag overlap of two equal-width Gaussian packets offset in time.

    Defined so that the squared overlap, and hence the post-selected
    entanglement, equals exp(-v**2 dt**2 / (2 sigma**2)).  The exponent
    is built from the one ratio v dt / sigma; when that ratio is not
    finite or its square overflows, :class:`ValueError` names all three.
    """
    if width <= 0.0:
        raise ValueError("packet width must be positive")
    ratio = velocity * delay / width
    # the correctly rounded square, where ** 2 goes through libm pow; inf once it overflows
    square = ratio * ratio
    if math.isfinite(square):
        return math.exp(-square / 4.0)
    raise ValueError(f"velocity {velocity}, delay {delay} and width {width} leave the float range")


def tagged_opposite_spin_input(statistics: Statistics, overlap: complex) -> FockState:
    """|up> on A with tag 0, |down> on B in a tag state of given overlap with it."""
    residual = math.sqrt(distinguishability(overlap))
    parallel = make_product_state(statistics, [Mode("A", Spin.UP, 0), Mode("B", Spin.DOWN, 0)])
    orthogonal = make_product_state(statistics, [Mode("A", Spin.UP, 0), Mode("B", Spin.DOWN, 1)])
    return complex(overlap) * parallel + residual * orthogonal


def bell_index(v: np.ndarray) -> np.ndarray:
    """Bell state of each 4xT amplitude block of a ``(..., 4, T)`` stack: 0 none, 1 psi+, 2 psi-.

    A block's fidelity with a pure state psi is ``sum_c |<psi|v[:, c]>|^2 / |v|^2``,
    which is ``<psi| v v† / tr |psi>``, so a tag-mixed block is labelled as its spin
    matrix would be.  It is 1 for psi+ (tested first) or 2 for psi- when that
    fidelity exceeds ``1 - BELL_TOL``.  A ``(..., 4, 4)`` matrix reads as T = 4.
    psi+ and psi- have no uu or dd part: their overlaps ``(v1c +- v2c) / sqrt2`` read rows 1, 2.
    """
    v = np.asarray(v)
    ud, du = v[..., 1, :], v[..., 2, :]
    # the fidelity test multiplied out by |v|^2, so that a zero block is no Bell state
    bound = (1.0 - BELL_TOL) * _norms_sq(v)
    plus = (np.abs((ud + du) / math.sqrt(2.0)) ** 2).sum(axis=-1) > bound
    minus = (np.abs((ud - du) / math.sqrt(2.0)) ** 2).sum(axis=-1) > bound
    return np.where(plus, 1, 2 * minus)
