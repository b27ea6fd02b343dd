"""Fast application of the dense kernel matrix ``A`` to vectors.

The paper evaluates residuals and runs unpreconditioned iterations with
an FFT-based matvec (uniform grid => ``A`` is block Toeplitz up to
diagonal scaling).
"""

from repro.matvec.toeplitz import FFTMatVec

__all__ = ["FFTMatVec"]
