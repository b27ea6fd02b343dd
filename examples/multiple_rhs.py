"""Multiple right-hand sides: where a direct solver wins (Sec. I-A).

The paper motivates the direct solver with multi-angle scattering:
incident waves from many directions share one system matrix. This
example binds the Lippmann-Schwinger problem to a ``repro.Solver`` —
the factorization is computed once and cached — solves a sweep of
incoming plane-wave angles as one blocked rhs, and compares against
running unpreconditioned GMRES per angle.

Run:  python examples/multiple_rhs.py [grid_side] [n_angles]
"""

import sys
import time

import numpy as np

import repro
from repro.apps.scattering import plane_wave


def main(m: int = 64, n_angles: int = 8) -> None:
    kappa = 20.0
    prob = repro.ScatteringProblem(m, kappa)
    print(f"N = {prob.n}, kappa = {kappa}, {n_angles} incident angles")

    solver = repro.Solver(
        prob, method="direct", srs=repro.SRSOptions(tol=1e-6, leaf_size=64)
    )

    # all right-hand sides at once: -kappa^2 sqrt(b) uin(angle)
    angles = np.linspace(0, 2 * np.pi, n_angles, endpoint=False)
    rhs = np.column_stack(
        [
            -(kappa**2)
            * np.sqrt(prob.b)
            * plane_wave(prob.points, kappa, (np.cos(a), np.sin(a)))
            for a in angles
        ]
    )

    report = solver.solve(rhs)
    t_fact, t_solve_all = solver.setup_time, report.t_solve
    worst = max(prob.relres(report.x[:, j], rhs[:, j]) for j in range(n_angles))
    print(
        f"direct: factor {t_fact:.2f} s + {n_angles} solves {t_solve_all:.2f} s "
        f"({t_solve_all / n_angles * 1e3:.0f} ms each), worst relres {worst:.1e}"
    )

    # contrast: unpreconditioned GMRES for the first few angles
    t0 = time.perf_counter()
    total_its = 0
    n_probe = min(3, n_angles)
    for j in range(n_probe):
        res = repro.solve(
            prob, rhs[:, j], method="gmres", tol=1e-6, restart=20, maxiter=2000
        )
        total_its += res.iterations
    t_iter = time.perf_counter() - t0
    est_all = t_iter / n_probe * n_angles
    print(
        f"unpreconditioned GMRES(20): {total_its / n_probe:.0f} its/angle, "
        f"{t_iter / n_probe:.2f} s/angle -> ~{est_all:.1f} s for all {n_angles} angles"
    )
    print(
        f"amortized direct-vs-iterative ratio: "
        f"{(t_fact + t_solve_all) / max(est_all, 1e-9):.2f} "
        f"(< 1 means the direct solver wins)"
    )


if __name__ == "__main__":
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    main(m, k)
