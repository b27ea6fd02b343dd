"""Boundary integral equations through the unified ``repro.solve`` facade.

Demonstrates the BIE subsystem end to end:

1. discretize a smooth star curve with the periodic trapezoid rule,
2. assemble the second-kind double-layer operator ``-1/2 I + D``
   implicitly as a KernelMatrix over the curve nodes,
3. solve the interior Laplace Dirichlet problem directly
   (``method="direct"``: RS-S over the bounding-box quadtree) and
   against the dense reference (``method="dense_lu"``),
4. evaluate the harmonic solution inside the domain and compare with
   the exact harmonic function supplying the boundary data,
5. repeat with an exterior sound-soft Helmholtz scattering problem
   solved by RS-S-preconditioned CFIE GMRES (``method="pgmres"``).

Run:  python examples/bie_dirichlet.py [n_nodes]
"""

import sys

import numpy as np

import repro
from repro.bie import harmonic_exponential


def main(n: int = 2048) -> None:
    curve = repro.StarCurve(radius=1.0, amplitude=0.3, arms=5)
    prob = repro.InteriorDirichletProblem(curve, n)
    print(f"Interior Laplace Dirichlet on a 5-armed star, N = {n} Nystrom nodes")
    print(f"tree: {prob.tree}")

    f = prob.boundary_data(harmonic_exponential)
    direct = repro.solve(prob, f, srs=repro.SRSOptions(tol=1e-10))
    targets = prob.interior_targets()
    u = prob.evaluate(direct.x, targets)
    err = np.max(np.abs(u - harmonic_exponential(targets)))
    print(f"direct:   {direct.summary()}")
    print(f"          interior max error = {err:.2e}")

    if n <= 2048:
        dense = repro.solve(prob, f, method="dense_lu")
        print(f"dense LU: {dense.summary()}")
        print(f"          density difference vs RS-S = {np.max(np.abs(direct.x - dense.x)):.2e}")

    print("\nExterior sound-soft Helmholtz (CFIE), kappa = 8")
    scat = repro.SoundSoftScattering(curve, n, kappa=8.0)
    solver = repro.Solver(scat, method="pgmres", tol=1e-10, srs=repro.SRSOptions(tol=1e-8))
    pre = solver.solve(scat.rhs_plane_wave())
    print(f"factorization: {solver.setup_time:.2f} s")
    print(f"point-source validation error: {scat.point_source_error(solver.factorization):.2e}")
    plain = repro.solve(
        scat, scat.rhs_plane_wave(), method="gmres", tol=1e-10, restart=50, maxiter=2000
    )
    print(f"preconditioned GMRES:   {pre.iterations} iterations")
    print(f"unpreconditioned GMRES: {plain.iterations} iterations")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2048)
