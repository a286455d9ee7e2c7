"""Null densities of an assembled operator, for tests that start from T alone."""

import numpy as np

from diracwg.errors import DiracWGError
from diracwg.layerops import DensityPair, OperatorMatrix, null_vectors, weighted_svd

KERNEL_THRESHOLD_FACTOR = 1e-4


class NoKernelError(DiracWGError):
    """Requested null vectors but the smallest singular values are not small."""


def kernel_vectors(T: OperatorMatrix, dim: int) -> list[DensityPair]:
    """Null densities for the ``dim`` smallest singular directions.

    Requires those singular values to sit below 1e-4 x sigma_max;
    otherwise the operator has no numerical kernel and NoKernelError is
    raised.  Returned densities have unit arc-length-weighted norm.
    """
    _, s, vh = weighted_svd(T.entries, T.weights)
    sigma_max = s[0]
    small = s[-dim:]
    if np.any(small > KERNEL_THRESHOLD_FACTOR * sigma_max):
        raise NoKernelError(
            f"smallest singular values {small} exceed "
            f"{KERNEL_THRESHOLD_FACTOR:.0e} x sigma_max = {KERNEL_THRESHOLD_FACTOR * sigma_max:.3e}"
        )
    return [DensityPair.from_stacked(v) for v in null_vectors(vh, T.weights, dim)]
