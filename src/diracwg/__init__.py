"""Boundary-integral study of Dirac points and interface modes in an
obstacle-lined acoustic waveguide."""

import hashlib
from pathlib import Path

__version__ = "0.1.0"


def source_fingerprint() -> str:
    """Short hash of the package sources: it changes with any code change."""
    h = hashlib.sha1()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]
