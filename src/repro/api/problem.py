"""The :class:`Problem` protocol — what a workload exposes to ``repro.solve``.

Every solve method (direct RS-S, preconditioned Krylov, dense LU,
block-Jacobi) consumes problems through the same narrow surface: a
kernel matrix, its forward operator, rhs helpers, and the geometry
hints (tree/domain) the factorization engines need. The built-in
workloads — :class:`~repro.apps.laplace_volume.LaplaceVolumeProblem`,
:class:`~repro.apps.scattering.ScatteringProblem`,
:class:`~repro.bie.solves.InteriorDirichletProblem`, and
:class:`~repro.bie.solves.SoundSoftScattering` — all implement it, and
any user class that does too plugs straight into
:func:`repro.api.facade.solve`.

:class:`ProblemBase` is an optional mixin supplying sensible defaults
(bounding-box parallel domain, the problem's ``matvec`` as operator,
random right-hand sides, the relative residual) so new problems only
define what is special about them.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Problem(Protocol):
    """Structural interface required by :func:`repro.api.facade.solve`."""

    #: implicit dense system matrix over the collocation/Nystrom points
    kernel: Any

    @property
    def n(self) -> int:
        """Number of unknowns."""
        ...

    #: True when the operator is symmetric (positive definite), enabling CG
    is_symmetric: bool

    @property
    def factor_tree(self):
        """Quadtree for the factorization, or ``None`` to derive one."""
        ...

    @property
    def parallel_domain(self):
        """Root square for the distributed tree, or ``None`` for the default."""
        ...

    def operator(self) -> Callable[[np.ndarray], np.ndarray]:
        """The forward matvec ``x -> A x``: the one operator every Krylov
        method and every residual of this problem applies."""
        ...

    def default_rhs(self) -> np.ndarray:
        """The problem's canonical right-hand side."""
        ...

    def random_rhs(self, seed: int = 0, nrhs: int = 1) -> np.ndarray:
        """Reproducible random right-hand side(s)."""
        ...

    def relres(self, x: np.ndarray, b: np.ndarray) -> float:
        """True relative residual ``||A x - b|| / ||b||`` (``||A x||`` when
        ``b = 0``)."""
        ...

    # Optional: ``fingerprint() -> str`` — a stable content hash of the
    # operator (geometry + kernel + tree), used by the serving layer to
    # key its factorization cache. ProblemBase provides it; bare
    # implementations fall back to
    # :func:`repro.api.fingerprint.fingerprint_problem`.


#: attribute names checked by :func:`check_problem`
_REQUIRED = (
    "kernel",
    "n",
    "is_symmetric",
    "factor_tree",
    "parallel_domain",
    "operator",
    "default_rhs",
    "random_rhs",
    "relres",
)


def check_problem(problem: Any) -> None:
    """Raise a :class:`TypeError` naming every missing protocol member."""
    missing = [name for name in _REQUIRED if not hasattr(problem, name)]
    if missing:
        raise TypeError(
            f"{type(problem).__name__} does not implement the repro.api.Problem "
            f"protocol: missing {', '.join(missing)} "
            "(subclass repro.api.ProblemBase for the defaults)"
        )


class ProblemBase:
    """Mixin with protocol defaults; subclasses set what differs.

    Defaults: non-symmetric operator, factorization tree taken from a
    ``tree`` attribute when present (else derived from the options),
    unit-square parallel domain, the problem's ``matvec`` attribute as
    the forward operator, uniform random right-hand sides (complex when
    the kernel is), and the relative residual on that operator — the
    only ``relres`` a built-in problem has.
    """

    is_symmetric = False

    @property
    def factor_tree(self):
        return getattr(self, "tree", None)

    @property
    def parallel_domain(self):
        return None

    def operator(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.matvec

    def default_rhs(self) -> np.ndarray:
        return self.random_rhs()

    def random_rhs(self, seed: int = 0, nrhs: int = 1) -> np.ndarray:
        if nrhs < 1:
            raise ValueError(f"nrhs must be >= 1, got {nrhs}")
        rng = np.random.default_rng(seed)
        shape = (self.n,) if nrhs == 1 else (self.n, nrhs)
        out = rng.random(shape)
        if np.issubdtype(np.dtype(self.kernel.dtype), np.complexfloating):
            out = out + 1j * rng.random(shape)
        return out

    def relres(self, x: np.ndarray, b: np.ndarray) -> float:
        r = float(np.linalg.norm(self.operator()(x) - b))
        nb = float(np.linalg.norm(b))
        # a zero rhs has no scale: the absolute residual, 0.0 for x = 0
        return r / nb if nb else r

    def fingerprint(self) -> str:
        """Stable content hash of the operator this problem defines.

        Two independently constructed problems over identical geometry
        and kernel parameters return the same digest; perturbing either
        changes it. Memoized per instance (problems are immutable after
        construction).
        """
        fp = getattr(self, "_fingerprint_cache", None)
        if fp is None:
            from repro.api.fingerprint import fingerprint_problem

            fp = fingerprint_problem(self)
            try:
                self._fingerprint_cache = fp
            except (AttributeError, TypeError):  # frozen/slotted subclass
                pass
        return fp
