"""The distributed artefacts: Tables II, IV, VI, VII, Fig. 6, 8, 10, 11
and the Sec. IV-B communication counts."""

import math

import numpy as np

import repro
from repro.reporting import ScalingSeries, Table, ascii_loglog, format_sci, format_seconds

# engine-level: the facade has no cost-model argument, and Table VII
# varies exactly that (the product is handed back to repro.solve); the
# box-colouring comparator is a measurement Table VI compares against,
# not a way repro.solve executes
from repro.parallel import parallel_srs_factor, shared_memory_factor
from repro.vmpi import INTER_NODE, INTRA_NODE, process_backend_available

from .core import OPTS, Run, artefact, clock_cells, fits, rank_counts

NO_PROCESS = "process backend unavailable on this platform, not compared"


def runtime_table(run: Run, kind: str, title: str, sides: list[int]):
    """The layout of Tables II and IV: one row per (N, p), ranks added
    only where interior boxes exist."""
    sim = ["sim t_fact", "sim t_comp", "sim t_other", "sim t_solve"]
    table = Table(title, ["N", "p", *sim, "wall t_setup", "wall t_solve"])
    cells = []
    for m in sides:
        for p in (p for p in (1, 4, 16, 64) if fits(m, p, 4)):
            cells.append((m, p, run.cell(kind, m, p)))
            table.add_row(f"{m}^2", p, *clock_cells(cells[-1][2]))
    return [table], {"cells": cells}


@artefact("table2", "Table II", min_rows=4)
def table2(run: Run):
    sides = {0: [64, 128], 1: [64, 128, 256], 2: [128, 256, 512]}[run.scale]
    return runtime_table(run, "laplace", "Table II: 2D Laplace runtime (eps=1e-6)", sides)


@artefact("table4", "Table IV", min_rows=3)
def table4(run: Run):
    sides = {0: [32, 64], 1: [64, 96], 2: [96, 128, 192]}[run.scale]
    title = "Table IV: 2D Helmholtz runtime (kappa=25, eps=1e-6)"
    blocks, d = runtime_table(run, "helmholtz", title, sides)
    d["t_setup"] = {kind: run.cell(kind, sides[0], 1).t_setup for kind in ("laplace", "helmholtz")}
    return blocks, d


@table2.observed
@table4.observed
def largest_n_strong_scaling(d):
    """sim t_fact falls from the fewest to the most ranks at the largest
    N (small-N rows are latency-bound at these sizes — the paper's
    smallest parallel run is N = 2048^2)."""
    largest = d["cells"][-1][0]
    times = [c.sim_t_fact for m, _p, c in d["cells"] if m == largest]
    detail = f"N={largest}^2: sim t_fact {times[0]:.3f} s -> {times[-1]:.3f} s"
    return len(times) < 2 or times[-1] < times[0], detail


@table4.observed
def helmholtz_slower_than_laplace(d):
    """Complex Hankel evaluation makes the factor slower than Laplace at equal N."""
    t, m0 = d["t_setup"], d["cells"][0][0]
    detail = f"N={m0}^2 p=1: wall t_setup {t['helmholtz']:.3f} s, laplace {t['laplace']:.3f} s"
    return t["helmholtz"] > t["laplace"], detail


def weak_scaling(p_sweep, base: int, label: str, title: str, t_fact):
    """``t_fact(m, p)`` at fixed N/p = base^2, for the p the tree allows."""
    weak = ScalingSeries(label)
    table = Table(title, ["series", "p", "N", "sim t_fact"])
    for p in p_sweep:
        m = base * math.isqrt(p)
        if fits(m, p, 2):
            weak.add(p, t_fact(m, p))
            table.add_row(label, p, f"{m}^2", format_seconds(weak.times[-1]))
    return weak, table


def scaling_figure(run: Run, kind: str, fig: str, sides, base: int, min_region: int):
    """The layout of Fig. 6 and 8: strong and weak scaling of sim t_fact."""

    def t_fact(m, p):
        return run.cell(kind, m, p).sim_t_fact

    p_sweep = {0: [1, 4, 16], 1: [1, 4, 16], 2: [1, 4, 16, 64]}[run.scale]
    strong = []
    table = Table(f"{fig}a: {kind} strong scaling", ["series", "p", "sim t_fact", "efficiency"])
    for m in sides:
        series = ScalingSeries(f"N={m}^2")
        for p in p_sweep:
            if fits(m, p, min_region):
                series.add(p, t_fact(m, p))
        for p, t, eff in zip(series.p_values, series.times, series.parallel_efficiency()):
            table.add_row(series.label, p, format_seconds(t), f"{eff:.2f}")
        strong.append(series)
    weak, weak_table = weak_scaling(
        p_sweep, base, f"N/p={base}^2", f"{fig}b: {kind} weak scaling", t_fact
    )
    blocks = [table, weak_table, ascii_loglog(strong + [weak])]
    return blocks, {"strong": strong, "weak": weak, "scale": run.scale}


@artefact("fig6", "Fig. 6", min_rows=5)
def fig6(run: Run):
    sides = {0: [64, 128], 1: [128, 256], 2: [128, 256]}[run.scale]
    base = {0: 32, 1: 64, 2: 128}[run.scale]
    return scaling_figure(run, "laplace", "Figure 6", sides, base, min_region=4)


@artefact("fig8", "Fig. 8", min_rows=4)
def fig8(run: Run):
    sides = {0: [48], 1: [64, 96], 2: [128, 192]}[run.scale]
    base = {0: 24, 1: 48, 2: 96}[run.scale]
    blocks, d = scaling_figure(run, "helmholtz", "Figure 8", sides, base, min_region=2)
    d["m0"] = sides[0]
    d["speedup"] = {
        kind: run.cell(kind, sides[0], 1).sim_t_fact / run.cell(kind, sides[0], 4).sim_t_fact
        for kind in ("laplace", "helmholtz")
    }
    return blocks, d


@fig6.observed
@fig8.observed
def strong_scaling_monotone(d):
    """The largest-N series gains from more ranks."""
    label, t = d["strong"][-1].label, d["strong"][-1].times
    return t[-1] < t[0], f"{label}: sim t_fact {t[0]:.3f} s -> {t[-1]:.3f} s"


@fig6.observed
def weak_scaling_bounded(d):
    """Weak-scaled t_fact grows far slower than the 4x-per-step work; at
    scale 0 (N/p = 32^2, latency-bound) only positivity is claimed."""
    t = d["weak"].times
    holds = all(x > 0 for x in t)
    if d["scale"] >= 1 and len(t) >= 2:
        holds = holds and t[-1] < t[0] * len(t) * 2.5
    return holds, f"sim t_fact {[round(x, 3) for x in t]} s over p = {d['weak'].p_values}"


@fig8.observed
def speedup_better_than_laplace(d):
    """Helmholtz reaches greater parallel speedups than Laplace (more
    compute per byte communicated); at least comparable here."""
    helmholtz, laplace = d["speedup"]["helmholtz"], d["speedup"]["laplace"]
    detail = f"N={d['m0']}^2, p=1 -> 4: sim speedup {helmholtz:.2f}x, laplace {laplace:.2f}x"
    return helmholtz > 0.8 * laplace, detail


@artefact("table6", "Table VI + Fig. 10", min_rows=4)
def table6(run: Run):
    """Box colouring (shared memory) vs process colouring (distributed) on one simulated node."""
    m = {0: 64, 1: 96, 2: 128}[run.scale]
    kappa = {0: 10.0, 1: 25.0, 2: 25.0}[run.scale]
    eps_sweep = {0: [1e-3, 1e-6], 1: [1e-3, 1e-6, 1e-9], 2: [1e-3, 1e-6, 1e-9, 1e-12]}[run.scale]
    p_sweep = {0: [1, 4], 1: [1, 4, 16], 2: [1, 4, 16, 64]}[run.scale]
    prob = repro.ScatteringProblem(m, kappa)
    b = prob.rhs()

    table = Table(
        f"Table VI: box colouring (shared) vs process colouring (distributed), N={m}^2",
        ["eps", "p", "sim shared t_fact", "sim shared t_solve", "sim dist t_fact",
         "sim dist t_solve", "wall dist t_setup", "relres", "nit"],
    )
    series, rows = {}, []
    for eps in eps_sweep:
        opts = repro.SRSOptions(tol=eps, leaf_size=64)
        # one measurement per eps; every p schedules the same task durations
        measured = shared_memory_factor(prob.kernel, 1, opts, tree=prob.factor_tree)
        for p in p_sweep:
            shared = measured.schedule(p)
            dist = repro.solve(prob, b, execution="thread", ranks=p, srs=opts)
            nit = repro.solve(
                prob, b, method="pgmres", tol=1e-12, restart=50, maxiter=500,
                execution="thread", ranks=p, srs=opts, factorization=dist.factorization,
            ).iterations
            table.add_row(
                format_sci(eps), p, *clock_cells(shared, ("t_fact", "t_solve")),
                *clock_cells(dist, ("sim_t_fact", "sim_t_solve", "t_setup")),
                format_sci(dist.relres), nit,
            )
            for name, t_fact in (("shared", shared.t_fact), ("dist", dist.sim_t_fact)):
                label = f"{name} eps={eps:g}"
                series.setdefault(label, ScalingSeries(label)).add(p, t_fact)
            rows.append((eps, dist.relres, nit))
            if (eps, p) == (OPTS.tol, p_sweep[-1]):
                by_backend = {"thread": dist}
    # the eps=1e-6 run on the most ranks, again on process ranks: wall
    # time may differ (the ledger's dist_* rows own that), nothing else may
    if process_backend_available():
        ranks = p_sweep[-1]
        by_backend["process"] = repro.solve(prob, b, execution="process", ranks=ranks, srs=OPTS)
    blocks = [table, "Figure 10:\n" + ascii_loglog(list(series.values()))]
    return blocks, {"rows": rows, "series": series, "backends": by_backend}


@table6.observed
def both_strategies_scale(d):
    """Both gain from p; the distributed run gains less at this scale
    (boundary-heavy regions) and must not degrade materially."""
    holds, parts = True, []
    for label, series in d["series"].items():
        t, slack = series.times, 1.05 if label.startswith("dist") else 1.0
        holds = holds and t[-1] < t[0] * slack
        parts.append(f"{label}: {t[0]:.3f} -> {t[-1]:.3f} s")
    return holds, "sim t_fact, " + "; ".join(parts)


@table6.exact
def accuracy_tracks_eps(d):
    """relres improves with eps whatever the strategy and p."""
    sweep = sorted({eps for eps, _r, _n in d["rows"]}, reverse=True)
    best = [min(r for e, r, _n in d["rows"] if e == eps) for eps in sweep]
    return all(b < a for a, b in zip(best, best[1:])), f"best relres per eps {best}"


@table6.exact
def nit_small(d):
    nits = [n for *_rest, n in d["rows"]]
    return max(nits) <= 12, f"nit {nits}"


@table6.exact
def backends_agree(d):
    """Wall time aside, the execution backend is unobservable: same
    bits, same residual, same message and byte counts."""
    if "process" not in d["backends"]:
        return True, NO_PROCESS
    t, q = d["backends"]["thread"], d["backends"]["process"]
    seen = [(r.relres, r.messages, r.comm_bytes) for r in (t, q)]
    bitwise = bool(np.array_equal(t.x, q.x))
    detail = f"x bitwise equal: {bitwise}; (relres, msgs, bytes) {seen[0]} on thread, {seen[1]}"
    return bitwise and seen[0] == seen[1], detail


@artefact("table7", "Table VII + Fig. 11", min_rows=6)
def table7(run: Run):
    """One process per compute node: the same runs under network pricing."""
    kappa = {0: 10.0, 1: 25.0, 2: 25.0}[run.scale]
    cases = {  # (m, p)
        0: [(32, 4), (48, 4), (48, 16)],
        1: [(64, 4), (64, 16), (96, 16)],
        2: [(128, 16), (128, 64), (192, 64)],
    }[run.scale]
    base = {0: 24, 1: 48, 2: 96}[run.scale]

    def solve(m, p, model):
        """Same algorithm and bytes, ``model`` pricing on every message."""
        prob = repro.ScatteringProblem(m, kappa)
        fact = parallel_srs_factor(prob.kernel, p, opts=OPTS, cost_model=model)
        return repro.solve(
            prob, prob.rhs(), execution="thread", ranks=p, srs=OPTS, factorization=fact
        )

    clocks = ("sim_t_fact", "sim_t_other")
    table = Table(
        "Table VII: 1 process per node (inter-node) vs packed (intra-node)",
        ["N", "p", "sim intra t_fact", "sim intra t_other", "sim inter t_fact", "sim inter t_other",
         "overhead %", "msgs/rank", "bytes/rank", "model delta (s)"],
    )
    rows = []
    for m, p in cases:
        intra, inter = solve(m, p, INTRA_NODE), solve(m, p, INTER_NODE)
        counts = rank_counts(intra)
        msgs, nbytes = max(c[0] for c in counts), max(c[1] for c in counts)
        # what the dearer model adds on the busiest rank, from counts alone
        d_alpha, d_beta = INTER_NODE.alpha - INTRA_NODE.alpha, INTER_NODE.beta - INTRA_NODE.beta
        delta = d_alpha * msgs + d_beta * nbytes
        overhead = (inter.sim_t_fact - intra.sim_t_fact) / intra.sim_t_fact * 100.0
        table.add_row(
            f"{m}^2", p, *clock_cells(intra, clocks), *clock_cells(inter, clocks),
            f"{overhead:.1f}", msgs, nbytes, format_sci(delta),
        )
        rows.append(dict(
            case=f"N={m}^2 p={p}", intra=intra.sim_t_fact, inter=inter.sim_t_fact,
            counts_equal=counts == rank_counts(inter), delta=delta,
        ))
    weak, weak_table = weak_scaling(
        (1, 4, 16), base, f"N/p={base}^2 (inter-node)", "Figure 11: weak scaling, 1 process / node",
        lambda m, p: solve(m, p, INTER_NODE).sim_t_fact,
    )
    return [table, weak_table, ascii_loglog([weak])], {"rows": rows, "weak": weak}


@table7.exact
def counts_equal_across_cost_models(d):
    """The cost model prices messages; it must not change them."""
    differ = [r["case"] for r in d["rows"] if not r["counts_equal"]]
    return not differ, f"per-rank (msgs, bytes) differ between the models at: {differ or 'no case'}"


@table7.exact
def cost_model_delta_small(d):
    """The paper's headline, from deterministic counts: pricing the
    busiest rank's messages at network rates adds little to t_fact,
    because the solver communicates little."""
    parts = [f"{r['case']}: {r['delta']:.2e} s vs sim t_fact {r['intra']:.3f} s" for r in d["rows"]]
    return all(r["delta"] < 0.5 * r["intra"] for r in d["rows"]), "; ".join(parts)


@table7.observed
def network_overhead_two_runs(d):
    """inter within [0.99, 1.5] x intra — two separate runs of a clock
    whose compute term is measured CPU time."""
    parts = [f"{r['case']}: intra {r['intra']:.3f} s, inter {r['inter']:.3f} s" for r in d["rows"]]
    holds = all(0.99 * r["intra"] <= r["inter"] <= 1.5 * r["intra"] for r in d["rows"])
    return holds, "sim t_fact, " + "; ".join(parts)


@table7.observed
def fig11_weak_scaling_flatish(d):
    """Weak-scaled time grows far slower than total work (the p = 1
    point has no boundary work, so only the overall growth is bounded)."""
    w = d["weak"]
    growth, work = w.times[-1] / w.times[0], w.p_values[-1] / w.p_values[0]
    return len(w.times) < 2 or growth < work, f"sim t_fact x{growth:.1f} for x{work:.0f} work"


@artefact("comm", "Sec. IV-B", min_rows=3)
def comm(run: Run):
    """Every process sends O(log N + log p) messages and
    O(sqrt(N/p) + log p) words; the vmpi counters give exact counts."""
    sides = {0: [32, 64, 128], 1: [64, 128, 256], 2: [128, 256, 512]}[run.scale]
    p = 4
    table = Table(
        f"Communication counters (p = {p}): per-rank maxima over the factorization",
        ["N", "msgs/rank", "words/rank (8B)", "sqrt(N/p)", "words per sqrt(N/p)"],
    )
    rows = []
    for m in sides:
        counts = run.cell("laplace", m, p).rank_counts
        msgs, words = max(c[0] for c in counts), max(c[1] for c in counts) / 8.0
        root = (m * m / p) ** 0.5
        table.add_row(f"{m}^2", msgs, f"{words:.0f}", f"{root:.0f}", f"{words / root:.0f}")
        rows.append((msgs, words))
    backends = {"thread": run.cell("laplace", sides[0], p).rank_counts}
    if process_backend_available():
        prob = repro.LaplaceVolumeProblem(sides[0])
        on_process = repro.solve(prob, prob.random_rhs(), execution="process", ranks=p, srs=OPTS)
        backends["process"] = rank_counts(on_process)
    return [table], {"rows": rows, "backends": backends}


@comm.exact
def messages_grow_logarithmically(d):
    """Messages per rank ~ a + b log N: the increment per 4x step in N
    is bounded and does not grow (polynomial growth would multiply it
    by ~4 a step)."""
    msgs = [msg for msg, _w in d["rows"]]
    inc = [b - a for a, b in zip(msgs, msgs[1:])]
    return all(i <= 40 for i in inc) and inc[-1] <= inc[0] + 8, f"msgs/rank {msgs}, steps {inc}"


@comm.exact
def words_grow_like_sqrt_n(d):
    """Words per rank ~ sqrt(N): the ratio across a 4x step in N is ~2."""
    words = [w for _msg, w in d["rows"]]
    ratios = [round(b / a, 2) for a, b in zip(words, words[1:])]
    return all(1.2 < r < 3.5 for r in ratios), f"ratios {ratios}"


@comm.exact
def counters_backend_independent(d):
    """The counters these claims rest on do not depend on how ranks run."""
    if "process" not in d["backends"]:
        return True, NO_PROCESS
    thread, process = d["backends"]["thread"], d["backends"]["process"]
    return thread == process, f"per-rank (msgs, bytes): thread {thread}, process {process}"
