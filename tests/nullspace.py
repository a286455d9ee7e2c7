"""Null densities of an assembled operator by an SVD, for tests that start
from T alone and as the independent reference of the runtime certificate
(bands.certified_null_vectors, which reads the counted spectrum)."""

import numpy as np

from diracwg.errors import DiracWGError
from diracwg.layerops import DensityPair, OperatorMatrix, null_vectors, weighted_svd

KERNEL_THRESHOLD_FACTOR = 1e-4


class NoKernelError(DiracWGError):
    """Requested null vectors but the smallest singular values are not small."""


def svd_null_space(action: np.ndarray, weights: np.ndarray, dim: int):
    """The weighted operator's singular values, descending, and the unit null
    densities (dim, n) of its ``dim`` smallest, ascending, by one SVD."""
    _, s, vh = weighted_svd(action, weights)
    # the right singular vectors of the dim smallest, ascending: columns of V
    return s, null_vectors(np.conj(vh[-dim:][::-1]).T, weights)


def null_space_residual(phis: np.ndarray, ref: np.ndarray, weights: np.ndarray) -> float:
    """Largest weighted distance of the unit densities ``phis`` (k, n) from
    the span of the weighted-orthonormal densities ``ref`` (dim, n)."""
    sq = np.sqrt(weights)
    X, Y = (sq * ref).T, (sq * phis).T
    return float(np.max(np.linalg.norm(Y - X @ (X.conj().T @ Y), axis=0)))


def kernel_vectors(T: OperatorMatrix, dim: int) -> list[DensityPair]:
    """Null densities for the ``dim`` smallest singular directions.

    Requires those singular values to sit below 1e-4 x sigma_max;
    otherwise the operator has no numerical kernel and NoKernelError is
    raised.  Returned densities have unit arc-length-weighted norm.
    """
    s, phis = svd_null_space(T.entries, T.weights, dim)
    sigma_max = s[0]
    small = s[-dim:]
    if np.any(small > KERNEL_THRESHOLD_FACTOR * sigma_max):
        raise NoKernelError(
            f"smallest singular values {small} exceed "
            f"{KERNEL_THRESHOLD_FACTOR:.0e} x sigma_max = {KERNEL_THRESHOLD_FACTOR * sigma_max:.3e}"
        )
    return [DensityPair.from_stacked(v) for v in phis]
