"""Quickstart: the unified ``repro.solve`` pipeline on a volume IE.

Demonstrates the facade on the paper's Sec. V-A problem — one problem
object, one config type, four configurations:

1. build the problem (collocation grid + kernel matrix + FFT matvec),
2. ``method="direct"``: one application of the O(N) RS-S compressed
   inverse at eps = 1e-6,
3. ``method="pcg"``: refine to 1e-12 with CG preconditioned by the
   same factorization — cached across solves by ``repro.Solver``,
4. contrast with unpreconditioned CG (~5 sqrt(N) iterations),
5. ``execution="auto"``: the same direct solve distributed over 4
   simulated ranks on the thread or process backend, picked by core
   count.

Run:  python examples/quickstart.py [grid_side]
"""

import sys

import repro


def main(m: int = 64) -> None:
    prob = repro.LaplaceVolumeProblem(m)
    print(f"Problem: first-kind Laplace volume IE, N = {prob.n} (grid {m} x {m})")

    # one factorization, cached by the Solver across every solve below
    solver = repro.Solver(prob, method="direct", srs=repro.SRSOptions(tol=1e-6))
    b = prob.random_rhs()

    direct = solver.solve(b)
    print(f"direct:  {direct.summary()}")
    print(f"         (one-time factorization: {solver.setup_time:.2f} s)")

    pcg = repro.solve(prob, b, method="pcg", tol=1e-12, factorization=solver.factorization)
    print(f"pcg:     {pcg.summary()}  (converged={pcg.converged})")

    plain = repro.solve(prob, b, method="cg", tol=1e-12, maxiter=20 * m)
    status = plain.iterations if plain.converged else f">{plain.iterations}"
    print(f"plain CG: {status} iterations (paper: ~5 sqrt(N) = {5 * m})")

    dist = repro.solve(prob, b, execution="auto", ranks=4)
    print(f"distributed: {dist.summary()}")
    print(f"             {dist.messages} messages, {dist.comm_bytes / 1e6:.2f} MB sent")

    print("\nper-level average skeleton ranks (Fig. 9 style):")
    for level, avg, mx, size in solver.factorization.stats.table():
        print(f"  level {level}: avg rank {avg:6.1f}   max {mx:4d}   box size {size:6.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
