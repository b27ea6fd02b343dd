"""Stable content fingerprints of problems and kernels.

The serving layer (:mod:`repro.service`) amortizes factorizations
across callers, so it needs an equality notion stronger than object
identity: two requests naming *the same operator* must map to the same
cache key, and any perturbation of the geometry or the kernel
parameters must map elsewhere. The fingerprint is a content hash of
everything that defines the system matrix:

* the kernel class and dtype,
* the point coordinates,
* the diagonal and the row/column weights (which carry ``h``, variable
  coefficients, identity shifts, quadrature corrections, ...),
* any per-point auxiliary data the kernel communicates to remote ranks,
* a deterministic probe block of assembled entries — this catches
  scalar parameters that touch *only* the off-diagonal Green's function
  (e.g. a Gaussian bandwidth leaves the diagonal and weights alone).

Fingerprints are hex digests (BLAKE2b-128): stable across processes and
platforms for identical inputs, cheap (O(N) hashing plus one small
probe block), and safe to use as dictionary keys or URL components.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

#: side of the probe block hashed from every kernel (min(n, this))
PROBE_SIDE = 48


def _update_scalar(h, value: Any) -> None:
    h.update(repr(value).encode())
    h.update(b"\x00")


def _update_array(h, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr)
    _update_scalar(h, (str(a.dtype), a.shape))
    h.update(a.tobytes())


def _new_hash():
    return hashlib.blake2b(digest_size=16)


def fingerprint_kernel(kernel, *, probes: int = PROBE_SIDE) -> str:
    """Content hash of a :class:`~repro.kernels.base.KernelMatrix`.

    Equal-valued kernels (same class, same points, same parameters)
    hash identically; perturbing any point, weight, or kernel scalar
    changes the digest.
    """
    h = _new_hash()
    _update_scalar(h, type(kernel).__qualname__)
    _update_scalar(h, str(np.dtype(kernel.dtype)))
    _update_array(h, kernel.points)
    idx = np.arange(kernel.n, dtype=np.int64)
    _update_array(h, kernel.diagonal())
    _update_array(h, kernel.row_weights(idx))
    _update_array(h, kernel.col_weights(idx))
    per_point = kernel.per_point_data(idx)
    for name in sorted(per_point):
        _update_scalar(h, name)
        _update_array(h, per_point[name])
    # probe block: a deterministic subset of assembled entries, so
    # parameters invisible to the diagonal/weights still reach the hash
    k = min(int(probes), kernel.n)
    if k > 0:
        pid = np.unique(np.linspace(0, kernel.n - 1, k).astype(np.int64))
        _update_array(h, kernel.block(pid, pid))
    return h.hexdigest()


def _square_signature(domain) -> tuple:
    """Hashable geometry of a :class:`~repro.geometry.domain.Square`."""
    if domain is None:
        return ()
    return tuple(
        float(getattr(domain, name))
        for name in ("x0", "y0", "size")
        if hasattr(domain, name)
    )


def _tree_signature(tree) -> tuple:
    """Hashable geometry of a quadtree (depth + root square + N)."""
    if tree is None:
        return ()
    return (int(tree.nlevels), int(tree.N), _square_signature(getattr(tree, "domain", None)))


def fingerprint_problem(problem) -> str:
    """Content hash of a :class:`~repro.api.problem.Problem`.

    Hashes the problem class, the kernel fingerprint, the factorization
    tree geometry, and the parallel root domain — everything a solver
    method's setup reads. Two independently built problems over
    identical geometry/kernel parameters hash identically.
    """
    h = _new_hash()
    _update_scalar(h, type(problem).__qualname__)
    _update_scalar(h, int(problem.n))
    _update_scalar(h, bool(getattr(problem, "is_symmetric", False)))
    _update_scalar(h, fingerprint_kernel(problem.kernel))
    _update_scalar(h, _tree_signature(problem.factor_tree))
    _update_scalar(h, _square_signature(problem.parallel_domain))
    return h.hexdigest()


def problem_fingerprint(problem) -> str:
    """The problem's fingerprint, via its own ``fingerprint()`` if any.

    :class:`~repro.api.problem.ProblemBase` subclasses memoize the
    digest on the instance; bare protocol implementations fall back to
    a fresh :func:`fingerprint_problem` computation.
    """
    method = getattr(problem, "fingerprint", None)
    if callable(method):
        return method()
    return fingerprint_problem(problem)

