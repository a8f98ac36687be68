"""Position-based charge qubit simulation in the tight-binding approximation.

``cli`` is left out, so ``python -m posqubit.cli`` does not import it twice.
"""

from . import (  # noqa: F401
    decoherence,
    errors,
    measurement,
    qcore,
    signals,
    single_qubit,
    spectral,
    two_qubit,
)

__version__ = "0.1.0"
