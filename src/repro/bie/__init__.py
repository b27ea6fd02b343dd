"""Boundary integral equations on smooth closed curves.

Curve geometries, periodic-trapezoid Nystrom quadrature with
Kapur--Rokhlin corrections, layer-potential kernel matrices that plug
into the RS-S factorization / GMRES machinery, and
high-level second-kind solvers (interior Laplace Dirichlet, exterior
sound-soft Helmholtz via the combined-field equation).
"""

from repro.bie.curves import (
    BoundaryDiscretization,
    Circle,
    Curve,
    Ellipse,
    Kite,
    StarCurve,
    trapezoid_nodes,
)
from repro.bie.layers import (
    BoundaryKernelMatrix,
    HelmholtzCFIE,
    HelmholtzDLP,
    HelmholtzSLP,
    LaplaceDLP,
    LaplaceSLP,
)
from repro.bie.quadrature import kapur_rokhlin_gamma, kr_weight_factors
from repro.bie.solves import (
    InteriorDirichletProblem,
    SoundSoftScattering,
    harmonic_exponential,
    harmonic_polynomial,
    point_source_field,
)

__all__ = [
    "BoundaryDiscretization",
    "Curve",
    "Circle",
    "Ellipse",
    "StarCurve",
    "Kite",
    "trapezoid_nodes",
    "BoundaryKernelMatrix",
    "LaplaceSLP",
    "LaplaceDLP",
    "HelmholtzSLP",
    "HelmholtzDLP",
    "HelmholtzCFIE",
    "kapur_rokhlin_gamma",
    "kr_weight_factors",
    "InteriorDirichletProblem",
    "SoundSoftScattering",
    "harmonic_exponential",
    "harmonic_polynomial",
    "point_source_field",
]
