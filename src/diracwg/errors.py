"""Exception hierarchy for the waveguide solver."""


class DiracWGError(Exception):
    """Base class for all solver errors."""


class GeometryError(DiracWGError):
    """Invalid obstacle shape or cell layout."""


class KernelError(DiracWGError):
    """Green's-function evaluation rejected (singular-frequency guard, bad parameters)."""


class DomainError(DiracWGError):
    """Evaluation point outside the region an operation supports."""


class AssemblyError(DiracWGError):
    """Operator discretization failed (mismatched nodes, non-finite entries)."""


class LinearAlgebraError(DiracWGError):
    """Dense factorization / SVD failure."""


class NoBandError(DiracWGError):
    """No dispersion-curve crossing inside the given bracket."""


class AmbiguousBracketError(DiracWGError):
    """The count does not isolate the wanted band inside its bracket."""


class StructureViolationError(DiracWGError):
    """Perturbation pairing matrices break the expected sign/zero pattern."""


class SymmetryFailureError(DiracWGError):
    """Odd/even recombination of the degenerate modes did not converge."""


class SwapInconclusiveError(DiracWGError):
    """Band-edge overlap pattern has no dominant entry."""


class TableError(DiracWGError):
    """Bloch table construction failed at some quadrature node."""


class PoleRiskError(DiracWGError):
    """Spectral parameter too close to a dispersion curve for an in-gap evaluation."""


class NoModeError(DiracWGError):
    """No interface resonance found inside the band gap."""


class UniquenessViolationError(DiracWGError):
    """More than one interface resonance found inside the band gap."""


class ReconstructionError(DiracWGError):
    """Reconstructed interface mode violates the matching conditions."""


class OracleError(DiracWGError):
    """Finite-difference reference computation failed."""


class ConfigError(DiracWGError):
    """Malformed run configuration."""
