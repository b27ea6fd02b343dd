"""What every artefact shares: the registry entry and its checks, the
clock columns, the process-count rule and the memoised (N, p) sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import repro
from repro.reporting import format_seconds

#: the paper's default compression: eps = 1e-6, O(r) points per leaf
OPTS = repro.SRSOptions(tol=1e-6, leaf_size=64)


@dataclass
class Artefact:
    """One registry entry.

    ``build(run)`` returns ``(blocks, data)``: the tables (and figure
    renderings, as strings) to print, and the raw numbers the checks
    read. A check is one claim of the paper: ``fn(data)`` returns
    ``(holds, detail)``, ``detail`` naming the numbers compared. An
    *exact* check compares deterministic quantities (ranks, iteration /
    message / byte counts, residuals) and decides the exit code; an
    *observed* one compares measured clocks — wall or simulated, whose
    compute term is measured CPU time — and is only printed. Every
    artefact has one built-in exact check: ``min_rows`` table rows.
    """

    name: str
    reference: str
    min_rows: int
    build: Callable[["Run"], tuple[list, Any]]
    exact_checks: list[Callable] = field(default_factory=list)
    observed_checks: list[Callable] = field(default_factory=list)

    def exact(self, fn):
        self.exact_checks.append(fn)
        return fn

    def observed(self, fn):
        self.observed_checks.append(fn)
        return fn


#: name -> entry, filled by ``@artefact`` as the artefact modules import
REGISTRY: dict[str, Artefact] = {}


def artefact(name: str, reference: str, min_rows: int):
    """Decorator: register ``build`` as the artefact ``name``."""

    def register(build) -> Artefact:
        REGISTRY[name] = Artefact(name, reference, min_rows, build)
        return REGISTRY[name]

    return register


#: SolveReport fields printed as times, simulated clock first
CLOCKS = ("sim_t_fact", "sim_t_comp", "sim_t_other", "sim_t_solve", "t_setup", "t_solve")
WALL = CLOCKS[4:]


def clock_cells(report, names=CLOCKS) -> list[str]:
    return [format_seconds(getattr(report, name)) for name in names]


def rank_counts(report) -> list[tuple[int, int]]:
    """Per rank, ``(messages_sent, bytes_sent)`` over the factorization."""
    return [(r.messages_sent, r.bytes_sent) for r in report.factorization.factor_run.reports]


@dataclass
class Run:
    """One invocation of the runner: sizes, output directory, and the
    distributed solves shared between a table and its figure."""

    scale: int
    results_dir: str
    _cells: dict = field(default_factory=dict)

    def cell(self, kind: str, m: int, p: int) -> SimpleNamespace:
        """Direct solve of the Laplace / Helmholtz problem on an ``m x m``
        grid over ``p`` thread ranks — run once, whichever of Tables II / IV,
        Fig. 6 / 8 or Sec. IV-B asks; keeps ``CLOCKS`` and ``rank_counts``."""
        if (kind, m, p) not in self._cells:
            if kind == "laplace":
                prob = repro.LaplaceVolumeProblem(m)
                b = prob.random_rhs()
            else:
                prob = repro.ScatteringProblem(m, 25.0)  # the fixed kappa of Table IV / Fig. 8
                b = prob.rhs()
            report = repro.solve(prob, b, method="direct", execution="thread", ranks=p, srs=OPTS)
            clocks = {name: getattr(report, name) for name in CLOCKS}
            self._cells[kind, m, p] = SimpleNamespace(rank_counts=rank_counts(report), **clocks)
        return self._cells[kind, m, p]


def fits(m: int, p: int, min_region: int) -> bool:
    """Whether each of ``p`` ranks owns ``min_region x min_region`` leaves
    of the tree over an ``m x m`` grid (leaf size 64).

    2 is what the distributed engine requires; 4 is where interior
    boxes exist (Sec. III-A: "the number of interior boxes dominates"
    only when regions are large), so the runtime tables add ranks only
    once N is large enough — p grows with N exactly as in the paper.
    """
    leaf_side = 2 ** max(2, math.ceil(math.log(m * m / 64, 4)))
    return leaf_side // math.isqrt(p) >= min_region
