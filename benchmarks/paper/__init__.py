"""Paper-artefact runner: one command per table and figure of the paper.

``python -m benchmarks.paper [--list] [NAME ...]`` from the repo root
(``PYTHONPATH=src``) regenerates Tables II-VII, Fig. 6-11, the Sec. IV-B
message / word counts and the ablations through ``repro.solve`` /
``repro.Solver``, at the sizes ``REPRO_BENCH_SCALE`` picks, and writes
one text file per artefact under ``benchmarks/results/`` (gitignored).

Every time printed is read off the :class:`repro.SolveReport`: ``wall``
columns are ``t_setup`` / ``t_solve``, ``sim`` columns are ``sim_t_*``
(the simulated rank clock); the two are never summed or compared.
Each artefact carries the paper's claims as named checks: *exact* ones
(ranks, iteration and message counts, residuals) decide the exit code,
ones that compare measured clocks are printed as ``observed`` and never
fail the run. Wall-time *claims* live in the perf ledger
(``python -m benchmarks.ledger``), not here.
"""
