"""Symmetric-matrix toolkit: constraint matrices, Gram embeddings, matrix
exponential, and spectral diagnostics for the primal-dual solver.

All matrices are dense symmetric numpy arrays indexed by the hypergraph's
vertices.  Every constraint matrix built here annihilates the all-ones
vector, which the correctness argument of the solver relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Side",
    "TriangleId",
    "NotPsdError",
    "GramState",
    "squared_distances",
    "k_dot_dist2",
    "mat_A",
    "mat_T",
    "mat_K",
    "directed_distance",
    "cholesky_embed",
    "mat_exp",
    "spectral_norm",
    "min_eigenvalue",
    "variance_form",
    "TOL_PSD_REL",
]

# Default PSD slack relative to ||X||.
TOL_PSD_REL = 1e-8


class Side(enum.Enum):
    """Which side of the designated vertex 0 the cut is searched on.

    ZERO_IN  : solutions contain vertex 0; d(i,j) = |vi-vj|^2 - |vi-v0|^2 + |vj-v0|^2.
    ZERO_OUT : solutions exclude vertex 0; the same formula with the roles of
               the endpoints swapped, i.e. d_out(i,j) = d_in(j,i).  This form
               agrees with d_in on every integral cut embedding and keeps the
               all-ones vector in the kernel of every A matrix, which the
               +v0 variant of the formula would break.
    """

    ZERO_IN = "in"
    ZERO_OUT = "out"


class NotPsdError(ValueError):
    """Matrix is not positive semi-definite within tolerance."""


class TriangleId(NamedTuple):
    """Triple for the l2^2 triangle inequality: endpoints {a,b}, middle mid.

    The associated quadratic form is
    |v_a - v_mid|^2 + |v_mid - v_b|^2 - |v_a - v_b|^2.
    """

    a: int
    b: int
    mid: int

    @staticmethod
    def make(end1: int, end2: int, mid: int) -> "TriangleId":
        if len({end1, end2, mid}) != 3:
            raise ValueError("triangle vertices must be distinct")
        a, b = (end1, end2) if end1 < end2 else (end2, end1)
        return TriangleId(a, b, mid)


def _add_sq_diff(m: np.ndarray, i: int, j: int, coeff: float) -> None:
    # coeff * (e_i - e_j)(e_i - e_j)^T; no-op when i == j
    if i == j:
        return
    m[i, i] += coeff
    m[j, j] += coeff
    m[i, j] -= coeff
    m[j, i] -= coeff


def mat_A(n: int, i: int, j: int, side: Side = Side.ZERO_IN, zero: int = 0) -> np.ndarray:
    """Directed-distance matrix: mat_A(...) . X == d(i, j) for Gram X."""
    if side is Side.ZERO_OUT:
        i, j = j, i
    m = np.zeros((n, n))
    _add_sq_diff(m, i, j, 1.0)
    _add_sq_diff(m, i, zero, -1.0)
    _add_sq_diff(m, j, zero, 1.0)
    return m


def mat_T(n: int, tri: TriangleId) -> np.ndarray:
    """Triangle-slack matrix: mat_T(p) . X is the l2^2 triangle slack of p."""
    m = np.zeros((n, n))
    _add_sq_diff(m, tri.a, tri.mid, 1.0)
    _add_sq_diff(m, tri.mid, tri.b, 1.0)
    _add_sq_diff(m, tri.a, tri.b, -1.0)
    return m


def mat_K(vertex_weights) -> np.ndarray:
    """Weighted complete-graph Laplacian: K . X = sum_ij w_i w_j |v_i-v_j|^2."""
    w = np.asarray(vertex_weights, dtype=float)
    if np.any(w < 1):
        raise ValueError("vertex weights must be >= 1")
    total = w.sum()
    return total * np.diag(w) - np.outer(w, w)


def directed_distance(
    vectors: np.ndarray, i: int, j: int, side: Side = Side.ZERO_IN, zero: int = 0
) -> float:
    """d(i, j) evaluated directly from the embedding vectors."""
    if side is Side.ZERO_OUT:
        i, j = j, i
    vi, vj, v0 = vectors[i], vectors[j], vectors[zero]
    d = vi - vj
    a = vi - v0
    b = vj - v0
    return float(d @ d - a @ a + b @ b)


def cholesky_embed(x: np.ndarray, tol_psd: float | None = None) -> np.ndarray:
    """Vectors v_i (rows) with <v_i, v_j> = X(i, j), via eigendecomposition.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine PSD violation and raises.
    """
    x = np.asarray(x, dtype=float)
    lam, u = np.linalg.eigh((x + x.T) / 2.0)
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    tol = tol_psd if tol_psd is not None else TOL_PSD_REL * scale
    if lam[0] < -tol:
        raise NotPsdError(f"eigenvalue {lam[0]:.3e} below -{tol:.3e}")
    lam = np.clip(lam, 0.0, None)
    return u * np.sqrt(lam)


def squared_distances(vectors: np.ndarray) -> np.ndarray:
    """Read-only matrix of squared distances |v_i - v_j|^2 between rows."""
    # centering removes any common offset (e.g. the large all-ones
    # component of multiplicative-weights iterates) before the norm
    # expansion, which would otherwise cancel catastrophically
    centered = vectors - vectors.mean(axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (centered @ centered.T)
    np.fill_diagonal(d2, 0.0)
    d2 = np.maximum(d2, 0.0)
    d2.flags.writeable = False
    return d2


def k_dot_dist2(d2: np.ndarray, vertex_weights) -> float:
    """K . X from the squared distances of X's embedding."""
    w = np.asarray(vertex_weights, dtype=float)
    return float(0.5 * w @ d2 @ w)


@dataclass(frozen=True)
class GramState:
    """Primal candidate: PSD matrix X with its vector embedding.

    ``vectors[i]`` is the row vector of vertex i; ``side`` selects the
    directed-distance formula used by consumers.  The squared distances
    are computed once, on first use, and shared by every consumer.
    """

    x: np.ndarray
    vectors: np.ndarray
    side: Side = Side.ZERO_IN

    @classmethod
    def from_matrix(cls, x: np.ndarray, side: Side = Side.ZERO_IN) -> "GramState":
        return cls(np.asarray(x, dtype=float), cholesky_embed(x), side)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def dist2(self, i: int, j: int) -> float:
        d = self.vectors[i] - self.vectors[j]
        return float(d @ d)

    def ddist(self, i: int, j: int, zero: int = 0) -> float:
        return directed_distance(self.vectors, i, j, self.side, zero)

    @cached_property
    def _dist2(self) -> np.ndarray:
        return squared_distances(self.vectors)

    def pairwise_dist2(self) -> np.ndarray:
        return self._dist2

    def k_dot(self, vertex_weights) -> float:
        return k_dot_dist2(self.pairwise_dist2(), vertex_weights)


def mat_exp(m: np.ndarray) -> np.ndarray:
    """exp(M) for symmetric M via eigendecomposition; result symmetric PSD."""
    m = np.asarray(m, dtype=float)
    lam, u = np.linalg.eigh((m + m.T) / 2.0)
    out = (u * np.exp(lam)) @ u.T
    return (out + out.T) / 2.0


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    vals = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(max(abs(vals[0]), abs(vals[-1])))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    return float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])


def variance_form(u, delta) -> float:
    """Variance of the values u under the probability masses delta.

    Preconditions: sum(u) = 0, sum(u^2) = 1, delta a positive probability
    vector.  The value always lies in [min(delta), max(delta)].
    """
    u = np.asarray(u, dtype=float)
    d = np.asarray(delta, dtype=float)
    if u.shape != d.shape:
        raise ValueError("u and delta must have equal length")
    if abs(u.sum()) > 1e-9:
        raise ValueError("u must sum to zero")
    if abs(u @ u - 1.0) > 1e-9:
        raise ValueError("u must have unit squared norm")
    if np.any(d <= 0):
        raise ValueError("delta entries must be positive")
    if abs(d.sum() - 1.0) > 1e-9:
        raise ValueError("delta must sum to one")
    mean = float(d @ u)
    return float(d @ (u * u)) - mean * mean
