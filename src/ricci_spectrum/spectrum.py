"""Spectrum of the normalized graph Laplacian and the walk-graph transfer.

The operator is Delta f(x) = sum_y f(y) w_xy/d_x - f(x), with eigenvalues
defined by Delta f = -lambda f; they are real and lie in [0, 2], with 0
always present and simple on connected graphs, and 2 present exactly for
bipartite graphs.  Numerically everything is routed through the symmetric
conjugate S = D^{-1/2} W D^{-1/2}: lambda = 1 - spec(S), and eigenvectors
conjugate back by D^{-1/2}, landing mu-orthonormal ((f, f)_mu = 1 with
mu(x) = d_x).

The t-th neighborhood graph satisfies the operator identity
id - (id - Delta)^t = Delta[t], so its spectrum is {1 - (1 - lambda)^t};
verify_transfer_identity measures the deviation of the two computations.

Every float step reads W and the degrees through ``_float_weights``, which
raises OutsideFloatRange when they leave the float64 range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import OutsideFloatRange, ZeroDenominator
from .graph import WeightedGraph
from .walk import neighborhood_graph


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues of the normalized Laplacian."""

    eigenvalues: np.ndarray

    @property
    def lambda_1(self) -> float:
        """First nonzero-index eigenvalue (the spectral gap for connected graphs)."""
        return float(self.eigenvalues[1])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True, eq=False)
class EigenPair:
    eigenvalue: float
    eigenfunction: np.ndarray


def _float_weights(g: WeightedGraph) -> tuple:
    """W and the degrees as float64, from the integer w/s and d/s.

    Each int/int true division is correctly rounded, like float(Fraction).
    Raises OutsideFloatRange unless every degree is a positive float64
    (then every weight is finite, as w_xy <= d_x).
    """
    s = g._scale
    w = np.zeros((g.n_vertices, g.n_vertices))
    try:
        for u, row in enumerate(g._rows):
            w[u, list(row)] = [wt / s for wt in row.values()]
        degrees = np.array([d / s for d in g._degrees])
    except OverflowError:
        raise OutsideFloatRange("a weight or degree is too large for a float64") from None
    if not degrees.all():
        raise OutsideFloatRange("a degree is too small for a float64: it rounds to 0")
    return w, degrees


def _symmetric_conjugate(g: WeightedGraph) -> tuple:
    """S = D^{-1/2} W D^{-1/2} and D^{-1/2}."""
    w, degrees = _float_weights(g)
    dinv = 1.0 / np.sqrt(degrees)
    return dinv[:, None] * w * dinv[None, :], dinv


def spectrum(g: WeightedGraph) -> Spectrum:
    """Eigenvalues of Delta, ascending (float64, LAPACK symmetric solver).

    Computed once per graph object and kept on it, so every caller shares
    one read-only eigenvalue array.
    """
    spec = g._spectrum
    if spec is None:
        eigenvalues = np.sort(1.0 - np.linalg.eigvalsh(_symmetric_conjugate(g)[0]))
        eigenvalues.flags.writeable = False
        spec = g._spectrum = Spectrum(eigenvalues=eigenvalues)
    return spec


def eigenpairs(g: WeightedGraph) -> List[EigenPair]:
    """Full decomposition with mu-orthonormal eigenfunctions, ascending."""
    conjugate, dinv = _symmetric_conjugate(g)
    vals, vecs = np.linalg.eigh(conjugate)
    lams = 1.0 - vals
    order = np.argsort(lams, kind="stable")
    return [
        EigenPair(eigenvalue=float(lams[i]), eigenfunction=dinv * vecs[:, i])
        for i in order
    ]


def laplacian_apply(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    """Delta f = W f / d - f as a float vector (handy for residual checks)."""
    w, degrees = _float_weights(g)
    return w @ f / degrees - f


def verify_transfer_identity(g: WeightedGraph, t: int) -> float:
    """Max deviation between spec(Delta[t]) and {1 - (1 - lambda)^t}.

    Both sides are sorted and compared elementwise, so a multiplicity
    mismatch also surfaces as a large deviation.
    """
    direct = spectrum(neighborhood_graph(g, t)).eigenvalues
    mapped = np.sort(1.0 - (1.0 - spectrum(g).eigenvalues) ** t)
    return float(np.max(np.abs(direct - mapped)))


def _dirichlet_form(g: WeightedGraph, u: np.ndarray) -> float:
    """sum_{x,y} w_xy (u(x) - u(y))^2 over ordered pairs; loops drop out."""
    w, _ = _float_weights(g)
    return float(np.sum(w * np.subtract.outer(u, u) ** 2))


def rayleigh_ratio(g: WeightedGraph, u: np.ndarray) -> float:
    """Ratio of the walk-squared Dirichlet forms, equal to 2 - lambda.

    For an eigenpair (u, lambda) with lambda != 0:

        sum_{x,y} w_xy[2] (u(x) - u(y))^2  /  sum_{x,y} w_xy (u(x) - u(y))^2

    Loops drop out of both sums.  Raises ZeroDenominator when u is constant.
    """
    num = _dirichlet_form(neighborhood_graph(g, 2), u)
    den = _dirichlet_form(g, u)
    if den == 0.0:
        raise ZeroDenominator("eigenfunction is constant on every edge")
    return num / den
