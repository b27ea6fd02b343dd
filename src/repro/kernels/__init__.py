"""Kernel matrices for planar integral equations.

A :class:`~repro.kernels.base.KernelMatrix` defines the entries of the
dense system matrix ``A`` over a fixed planar point set, including the
discretization weights and the singular diagonal (self-interaction)
entries, and exposes the raw Green's function needed by the
proxy-compression step (Sec. II-C of the paper).
"""

from repro.kernels.base import KernelMatrix, dense_matrix
from repro.kernels.laplace import LaplaceKernelMatrix, laplace_greens
from repro.kernels.helmholtz import HelmholtzKernelMatrix, helmholtz_greens, plane_wave
from repro.kernels.yukawa import YukawaKernelMatrix
from repro.kernels.gaussian import GaussianKernelMatrix
from repro.kernels.selfquad import square_self_integral

__all__ = [
    "KernelMatrix",
    "dense_matrix",
    "LaplaceKernelMatrix",
    "laplace_greens",
    "HelmholtzKernelMatrix",
    "helmholtz_greens",
    "plane_wave",
    "YukawaKernelMatrix",
    "GaussianKernelMatrix",
    "square_self_integral",
]
