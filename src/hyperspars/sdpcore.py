"""Symmetric-matrix toolkit: the Laplacian K, Gram states and spectral
diagnostics for the primal-dual solver.

All matrices are dense symmetric numpy arrays indexed by the hypergraph's
vertices.  K annihilates the all-ones vector, as every constraint matrix
does, which the correctness argument of the solver relies on.

The directed distance is taken relative to the designated vertex 0:
d(i, j) = |v_i - v_j|^2 - |v_i - v_0|^2 + |v_j - v_0|^2, the form for cuts
that contain vertex 0.  Cuts that exclude it are searched on the reversed
hypergraph and complemented, so this is the only distance formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "TriangleId",
    "GramState",
    "center_rows",
    "squared_distances",
    "k_dot_dist2",
    "mat_K",
    "directed_distance",
    "spectral_norm",
    "min_eigenvalue",
]

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


def mat_K(vertex_weights) -> np.ndarray:
    """Weighted complete-graph Laplacian: K . X = sum_ij w_i w_j |v_i-v_j|^2."""
    w = np.asarray(vertex_weights, dtype=float)
    if np.any(w < 1):
        raise ValueError("vertex weights must be >= 1")
    total = w.sum()
    return total * np.diag(w) - np.outer(w, w)


def directed_distance(vectors: np.ndarray, i: int, j: int) -> float:
    """d(i, j) evaluated directly from the embedding vectors."""
    vi, vj, v0 = vectors[i], vectors[j], vectors[0]
    d = vi - vj
    a = vi - v0
    b = vj - v0
    return float(d @ d - a @ a + b @ b)


def center_rows(vectors: np.ndarray) -> np.ndarray:
    """The rows minus their mean row.

    The mean is np.mean's for float64, its sum along axis 0 divided by the
    row count, without the wrapper's per-call cost.
    """
    return vectors - np.add.reduce(vectors, axis=0) / len(vectors)


def squared_distances(vectors: np.ndarray) -> np.ndarray:
    """Read-only matrix of squared distances |v_i - v_j|^2 between rows."""
    # centering removes any common offset (e.g. the large all-ones
    # component of multiplicative-weights iterates) before the norm
    # expansion, which would otherwise cancel catastrophically
    centered = center_rows(vectors)
    sq = np.einsum("ij,ij->i", centered, centered)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (centered @ centered.T)
    d2.flat[:: len(d2) + 1] = 0.0  # the diagonal, as np.fill_diagonal sets it
    d2 = np.maximum(d2, 0.0)
    d2.flags.writeable = False
    return d2


def k_dot_dist2(d2: np.ndarray, vertex_weights) -> float:
    """K . X from the squared distances of X's embedding."""
    w = np.asarray(vertex_weights, dtype=float)
    return float(0.5 * w @ d2 @ w)


@dataclass(frozen=True)
class GramState:
    """Primal candidate: the vector embedding of a PSD matrix X = V V^T.

    ``vectors[i]`` is the row vector of vertex i.  X and the squared
    distances are computed once, on first use, and shared by every consumer.
    """

    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def x(self) -> np.ndarray:
        """The Gram matrix V V^T."""
        return self.vectors @ self.vectors.T

    def ddist(self, i: int, j: int) -> float:
        return directed_distance(self.vectors, i, j)

    @cached_property
    def _dist2(self) -> np.ndarray:
        return squared_distances(self.vectors)

    def pairwise_dist2(self) -> np.ndarray:
        return self._dist2

    def k_dot(self, vertex_weights) -> float:
        return k_dot_dist2(self.pairwise_dist2(), vertex_weights)


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    vals = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(max(abs(vals[0]), abs(vals[-1])))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    return float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
