"""Non-uniform point clouds on the perfect quadtree.

The paper presents the algorithm for uniformly distributed points on a
perfect quadtree (Sec. II-A). This example factors a clustered cloud on
that same tree: the leaves fill unevenly (many are empty, a few are
crowded), and the factorization still solves to the requested
tolerance, which a dense residual check confirms for N <= 4000.

Run:  python examples/nonuniform_points.py [n_points]
"""

import sys
import time

import numpy as np

from repro import SRSOptions, srs_factor
from repro.geometry import clustered_points
from repro.kernels import GaussianKernelMatrix, dense_matrix
from repro.tree import QuadTree


def main(n: int = 2000) -> None:
    pts = clustered_points(n, n_clusters=4, spread=0.04, seed=42)
    print(f"{n} points in 4 Gaussian clusters")

    perfect = QuadTree.for_leaf_size(pts, 64)
    occ = [perfect.leaf_points(*c).size for c in perfect.nonempty_leaves()]
    print(
        f"perfect tree: {perfect.nlevels} levels, {len(occ)} nonempty leaves, "
        f"occupancy {min(occ)}..{max(occ)} (uneven, as expected)"
    )

    kernel = GaussianKernelMatrix(pts, h=1.0 / np.sqrt(n), sigma=0.05, shift=1.0)
    t0 = time.perf_counter()
    fact = srs_factor(kernel, tree=perfect, opts=SRSOptions(tol=1e-8, leaf_size=64))
    t_fact = time.perf_counter() - t0

    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    x = fact.solve(b)
    if n <= 4000:
        a = dense_matrix(kernel)
        relres = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        print(f"factor {t_fact:.2f} s, relres vs dense = {relres:.2e}")
    else:
        print(f"factor {t_fact:.2f} s (N too large for a dense check)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
