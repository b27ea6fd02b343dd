"""The sequential artefacts: Tables III and V, Fig. 7 and 9, the four
ablations and the BIE star-curve comparison."""

import math
import os
from dataclasses import replace

import numpy as np

import repro
from repro.bie import harmonic_exponential
from repro.reporting import Table, format_sci, write_pgm

# engine-level: the admissibility ablation compresses two hand-built
# blocks and solves nothing, so there is no facade call to make
from repro.linalg import interp_decomp

from .core import OPTS, WALL, Run, artefact, clock_cells


def pcg_nit(prob, b, direct) -> int:
    """PCG iterations to the paper's 1e-12 on ``direct``'s factorization."""
    return repro.solve(
        prob, b, method="pcg", tol=1e-12, maxiter=500, factorization=direct.factorization
    ).iterations


def pgmres(prob, b, direct):
    """Preconditioned GMRES(50) to 1e-12 on ``direct``'s factorization."""
    return repro.solve(
        prob, b, method="pgmres", tol=1e-12, restart=50, maxiter=500,
        factorization=direct.factorization,
    )


@artefact("table3", "Table III", min_rows=4)
def table3(run: Run):
    tols = {0: [1e-6, 1e-9], 1: [1e-6, 1e-9, 1e-12], 2: [1e-3, 1e-6, 1e-9, 1e-12]}[run.scale]
    sides = {0: [32, 64], 1: [32, 64, 128], 2: [64, 128, 256]}[run.scale]
    table = Table(
        "Table III: Laplace accuracy (sequential)",
        ["eps", "N", "wall t_setup", "wall t_solve", "relres", "nit"],
    )
    rows = []
    for tol in tols:
        for m in sides:
            prob = repro.LaplaceVolumeProblem(m)
            b = prob.random_rhs()
            direct = repro.solve(prob, b, method="direct", srs=replace(OPTS, tol=tol))
            rows.append((tol, m, direct.relres, pcg_nit(prob, b, direct)))
            table.add_row(
                format_sci(tol), f"{m}^2", *clock_cells(direct, WALL),
                format_sci(direct.relres), rows[-1][3],
            )
    return [table], rows


@table3.exact
def relres_tracks_tolerance(rows):
    """Tighter eps gives (much) smaller relres at every N."""
    holds, parts = True, []
    for m in sorted({m for _t, m, _r, _n in rows}):
        res = [r for _tol, mm, r, _n in sorted(rows, reverse=True) if mm == m]
        holds = holds and res == sorted(res, reverse=True) and res[-1] < res[0] / 100
        parts.append(f"N={m}^2: {res[0]:.2e} -> {res[-1]:.2e}")
    return holds, "; ".join(parts)


@table3.exact
def nit_small_and_stable(rows):
    nits = [n for *_rest, n in rows]
    return max(nits) <= 12, f"nit {nits}"


@artefact("table5", "Table V", min_rows=3)
def table5(run: Run):
    sides = {0: [16, 32, 48], 1: [32, 64, 96], 2: [64, 128, 192]}[run.scale]
    cap = {0: 3000, 1: 5000, 2: 8000}[run.scale]
    table = Table(
        "Table V: Helmholtz, increasing frequency (32 points per wavelength)",
        ["N", "kappa/2pi", "wall t_setup", "wall t_solve", "nit", "~nit (GMRES(20))"],
    )
    rows = []
    for m in sides:
        prob = repro.ScatteringProblem.increasing_frequency(m)
        b = prob.rhs()
        direct = repro.solve(prob, b, method="direct", srs=OPTS)
        pre = pgmres(prob, b, direct)
        plain = repro.solve(prob, b, method="gmres", tol=1e-12, restart=20, maxiter=cap)
        table.add_row(
            f"{m}^2", f"{prob.kappa / (2 * np.pi):.2f}", *clock_cells(direct, WALL),
            pre.iterations, plain.iterations if plain.converged else f"> {cap}",
        )
        rows.append((m, direct.t_setup, pre.iterations, plain.iterations))
    return [table], rows


@table5.exact
def preconditioned_iterations_stay_small(rows):
    nits = [nit for _m, _t, nit, _pn in rows]
    return max(nits) <= 15, f"nit {nits}"


@table5.exact
def unpreconditioned_grows_fast(rows):
    """~nit grows with frequency and sits far above the preconditioned count."""
    plain, nit = [pn for _m, _t, _nit, pn in rows], rows[-1][2]
    return plain[-1] > plain[0] and plain[-1] > 5 * nit, f"~nit {plain}, nit {nit}"


@table5.observed
def factor_time_grows_superlinearly(rows):
    """Factor time per point grows with kappa (rank growth, Fig. 9 right)."""
    per_point = [t / (m * m) for m, t, _n, _pn in rows]
    detail = f"wall t_setup / N: {per_point[0]:.2e} s -> {per_point[-1]:.2e} s"
    return per_point[-1] > per_point[0], detail


def ascii_image(img: np.ndarray, width: int = 48) -> str:
    shades = " .:-=+*#%@"
    step = max(1, img.shape[0] // width)
    sub = img[::step, ::step]
    norm = (sub - sub.min()) / (sub.max() - sub.min() + 1e-300)
    # x horizontal, y vertical, top row = max y
    return "\n".join(
        "".join(shades[int(v * 9.999)] for v in norm[:, j])
        for j in range(norm.shape[1] - 1, -1, -1)
    )


@artefact("fig7", "Fig. 7", min_rows=0)
def fig7(run: Run):
    m = {0: 48, 1: 96, 2: 192}[run.scale]
    prob = repro.ScatteringProblem(m, 25.0)
    b = prob.rhs()
    res = pgmres(prob, b, repro.solve(prob, b, method="direct", srs=OPTS))
    pot, mag = prob.potential_grid(), prob.field_magnitude_grid(res.x)
    write_pgm(os.path.join(run.results_dir, "fig7a_potential.pgm"), pot)
    write_pgm(os.path.join(run.results_dir, "fig7b_total_field.pgm"), mag)
    blocks = [
        f"Figure 7 (kappa=25, N={m}^2): fig7a_potential.pgm, fig7b_total_field.pgm",
        f"(a) scattering potential b(x):\n{ascii_image(pot)}",
        f"(b) total field |u|:\n{ascii_image(mag)}",
    ]
    sigma = prob.sigma_from_mu(res.x)
    u = prob.total_field(res.x)
    resid = np.linalg.norm(sigma + prob.kappa**2 * prob.b * u) / np.linalg.norm(sigma)
    return blocks, {"converged": res.converged, "mag": mag, "resid": float(resid)}


@fig7.exact
def field_solve_converged(d):
    return d["converged"], f"preconditioned GMRES converged: {d['converged']}"


@fig7.exact
def field_physics(d):
    """Incident |u| = 1; scattering creates interference above and below
    it, and the field stays ~1 near the inflow corner."""
    mag = d["mag"]
    holds = mag.max() > 1.05 and mag.min() < 0.95 and abs(mag[2, 2] - 1.0) < 0.5
    return holds, f"|u| in [{mag.min():.3f}, {mag.max():.3f}], inflow corner {mag[2, 2]:.3f}"


@fig7.exact
def equation_residual(d):
    """sigma = -kappa^2 b u holds for the computed total field."""
    return d["resid"] < 1e-6, f"residual {d['resid']:.2e}"


@artefact("fig9", "Fig. 9", min_rows=3)
def fig9(run: Run):
    sides = {0: [32, 64], 1: [64, 128], 2: [128, 256]}[run.scale]
    families = {
        "laplace": repro.LaplaceVolumeProblem,
        "helmholtz_fixed": lambda m: repro.ScatteringProblem(m, 25.0),
        "helmholtz_growing": repro.ScatteringProblem.increasing_frequency,
    }
    profiles, tables = {}, []
    for name, make in families.items():
        profiles[name] = {}
        for m in sides:
            stats = repro.Solver(make(m), srs=OPTS).factorization.stats
            profiles[name][m] = {lvl: stats.average_rank(lvl) for lvl in stats.levels()}
        table = Table(
            f"Figure 9 ({name}): average skeleton rank per level",
            ["level"] + [f"N={m}^2" for m in sides],
        )
        for lvl in sorted({lvl for prof in profiles[name].values() for lvl in prof}, reverse=True):
            table.add_row(lvl, *(f"{profiles[name][m].get(lvl, float('nan')):.0f}" for m in sides))
        tables.append(table)
    kappa = repro.ScatteringProblem.increasing_frequency(sides[-1]).kappa
    return tables, {"profiles": profiles, "sides": sides, "kappa_growing": kappa}


@fig9.exact
def laplace_rank_saturates(d):
    """Rank at a given box size is ~independent of N (the O(1) rank
    claim): level l at m against level l + log2(ratio) at the larger m."""
    prof, small, big = d["profiles"]["laplace"], d["sides"][0], d["sides"][-1]
    shift = int(math.log2(big // small))
    ratios = [
        round(prof[big][lvl + shift] / rank, 2)
        for lvl, rank in prof[small].items()
        if lvl + shift in prof[big] and rank > 0
    ]
    return all(0.5 < r < 2.0 for r in ratios), f"ratios {ratios}"


@fig9.exact
def helmholtz_growing_exceeds_fixed(d):
    """kappa ~ sqrt(N): coarse-level ranks outgrow the fixed-kappa
    profile — claimed only once the growing kappa exceeds the fixed 25."""
    m, kappa = d["sides"][-1], d["kappa_growing"]
    fixed, growing = d["profiles"]["helmholtz_fixed"][m], d["profiles"]["helmholtz_growing"][m]
    lvl = min(lvl for lvl in fixed if fixed[lvl] > 0)
    detail = f"level {lvl}: rank {growing[lvl]:.1f} at kappa {kappa:.1f}, {fixed[lvl]:.1f} at 25"
    return kappa <= 25.0 or growing[lvl] > fixed[lvl], detail


@fig9.exact
def rank_increases_towards_coarse_levels(d):
    """Within one factorization, coarser boxes have larger skeletons."""
    prof = d["profiles"]["laplace"][d["sides"][-1]]
    levels = sorted(lvl for lvl in prof if prof[lvl] > 0)
    detail = f"levels {levels}: ranks {[round(prof[lvl], 1) for lvl in levels]}"
    return len(levels) < 3 or prof[levels[0]] >= prof[levels[-1]], detail


@artefact("ablation_admissibility", "related work (HSS / HODLR rank growth)", min_rows=3)
def ablation_admissibility(run: Run):
    """Weak-admissibility blocks (HSS / HODLR) touch along an edge and
    have rank O(sqrt(N)) in 2D; the strongly admissible blocks RS-S
    compresses stay O(1)."""
    # m >= 32: the central box then holds >= 64 points, the population a
    # leaf has when the factorization compresses it; below that the
    # "strong" rank is capped by the box's own point count (4 at m = 8,
    # 12 at m = 16) and says nothing about saturation
    sides = {0: [32, 48, 64], 1: [32, 64, 96], 2: [32, 64, 96]}[run.scale]
    tol = 1e-6
    table = Table(
        "Ablation: weak vs strong admissibility ranks (Laplace, tol=1e-06)",
        ["N", "weak rank (halves)", "strong rank (far field)", "box points", "weak / sqrt(N)"],
    )
    rows = []
    for m in sides:
        pts = repro.uniform_grid(m)
        kernel = repro.LaplaceKernelMatrix(pts, 1.0 / m)
        # weak: the interface block between the domain halves
        left, right = np.flatnonzero(pts[:, 0] < 0.5), np.flatnonzero(pts[:, 0] >= 0.5)
        weak = interp_decomp(kernel.block(left, right), tol).rank
        # strong: the central box of side 1/4 against its distance >= 2 far field
        dist = np.maximum(np.abs(pts[:, 0] - 0.5), np.abs(pts[:, 1] - 0.5))
        box, far = np.flatnonzero(dist < 0.125), np.flatnonzero(dist > 0.375)
        strong = interp_decomp(kernel.block(far, box), tol).rank
        table.add_row(f"{m}^2", weak, strong, len(box), f"{weak / m:.2f}")
        rows.append((m, weak, strong, len(box)))
    return [table], rows


@ablation_admissibility.exact
def weak_ranks_grow(rows):
    weak = [w for _m, w, _s, _n in rows]
    return weak[-1] > 1.5 * weak[0], f"weak ranks {weak}"


@ablation_admissibility.exact
def strong_ranks_saturate(rows):
    """Strong-admissibility rank is essentially N-independent (O(1)),
    measured on boxes that hold at least a leaf's 64 points."""
    strong, points = [s for _m, _w, s, _n in rows], [n for *_r, n in rows]
    saturates = max(strong) <= min(strong) + 10 and max(strong) < 2.5 * min(strong)
    return min(points) >= 64 and saturates, f"strong ranks {strong} on boxes of {points} points"


@ablation_admissibility.exact
def weak_scales_like_sqrt_n(rows):
    """weak rank / sqrt(N) stays bounded — the 1D-interface signature."""
    ratios = [round(w / m, 2) for m, w, _s, _n in rows]
    return max(ratios) < 4.0 and max(ratios) / min(ratios) < 3.0, f"weak / sqrt(N) {ratios}"


def option_sweep(run: Run, option: str, values, fixed: str, extra: str, extra_cell):
    """Direct solves of one Laplace problem with ``option`` swept; the
    last column is ``extra_cell(prob, b, report)``. Returns the table
    and, keyed by value, the relres and the extra column."""
    m = {0: 32, 1: 64, 2: 128}[run.scale]
    prob = repro.LaplaceVolumeProblem(m)
    b = prob.random_rhs()
    table = Table(
        f"Ablation: {option} (N={m}^2, eps=1e-6, {fixed})",
        [option, "wall t_setup", "relres", extra],
    )
    relres, extras = {}, {}
    for value in values:
        r = repro.solve(prob, b, method="direct", srs=replace(OPTS, **{option: value}))
        relres[value], extras[value] = r.relres, extra_cell(prob, b, r)
        table.add_row(value, *clock_cells(r, ("t_setup",)), format_sci(r.relres), extras[value])
    return table, relres, extras


def leaf_rank(prob, b, report) -> str:
    stats = report.factorization.stats
    return f"{stats.average_rank(max(stats.levels())):.1f}"


def levels_and_memory(prob, b, report) -> str:
    return f"{len(report.factorization.stats.levels())} / {report.memory_bytes / 1e6:.1f}"


@artefact("ablation_algorithm", "Sec. II-B (leaf size)", min_rows=4)
def ablation_algorithm(run: Run):
    """Leaf size against setup time, accuracy, depth and memory.

    The ID is the paper's column-pivoted QR alone. A randomized
    row-sketch ID (Dong-Martinsson 2021) was swept here too and removed
    because it never won. On 2 cores with ``OPENBLAS_NUM_THREADS=1``,
    over three alternating ``repro.solve`` runs per cell, CPQR -> sketch
    ``t_setup`` and relres were:

    - Laplace volume N = 9216: strict 0.92-1.13 -> 1.25-1.38 s, batched
      0.74-0.90 -> 0.75-0.94 s; relres 3.31e-3 -> 3.44e-3 strict,
      2.91e-3 -> 3.80e-3 batched;
    - scattering m = 48, kappa = 25: strict 0.68-0.86 -> 0.81-0.88 s,
      batched 0.47-0.65 -> 0.54-0.79 s; relres 3.5e-8 -> 8.5e-8;
    - sound-soft kite n = 2048: strict 1.29-1.58 -> 1.31-1.36 s,
      batched 1.20-1.67 -> 1.22-1.68 s; relres 4.7e-7 -> 1.1e-6;
    - Laplace volume m = 64: strict 0.238-0.247 -> 0.262-0.341 s,
      batched 0.247-0.262 -> 0.249-0.280 s; relres about equal.

    The sketch never won on time, and it lost ~2.4x in accuracy on the
    two-sided kernels.
    """
    by_leaf, relres, _ = option_sweep(
        run, "leaf_size", (16, 32, 64, 128), "cpqr", "levels / memory MB", levels_and_memory
    )
    return [by_leaf], {"relres": list(relres.values())}


@ablation_algorithm.exact
def accuracy_insensitive_to_leaf_size(d):
    rr = d["relres"]
    return max(rr) < 100 * min(rr), f"relres in [{min(rr):.2e}, {max(rr):.2e}]"


@artefact("ablation_proxy", "Sec. II-C (proxy circle)", min_rows=8)
def ablation_proxy(run: Run):
    by_radius, radius, _ = option_sweep(
        run, "proxy_radius_factor", (1.8, 2.0, 2.5, 3.0), "n_proxy=64", "avg leaf rank", leaf_rank
    )
    by_count, count, _ = option_sweep(
        run, "n_proxy", (16, 32, 64, 128), "radius=2.5L", "avg leaf rank", leaf_rank
    )
    return [by_radius, by_count], {"radius": radius, "count": count}


@ablation_proxy.exact
def papers_radius_choice_is_accurate(relres):
    """Radius 2.5L lands within ~an order of the best radius."""
    rr = relres["radius"]
    return rr[2.5] <= 50 * min(rr.values()), f"2.5L {rr[2.5]:.2e}, best {min(rr.values()):.2e}"


@ablation_proxy.exact
def point_count_within_half_decade(relres):
    """What the code does: 16 points already resolve the circle, and
    more points cost a little accuracy — relres drifts *up* with the
    count (1.4e-4 at 16 to 3.3e-4 at 128 at scale 0, on every rhs seed):
    the proxy rows are stacked unweighted, so their growing norm loosens
    the relative truncation of the near-field rows. Flat to within 5x."""
    rr = relres["count"]
    detail = ", ".join(f"{n}: {r:.2e}" for n, r in rr.items())
    return max(rr.values()) <= 5 * min(rr.values()) and rr[64] < 1e-1, detail


@artefact("ablation_preconditioners", "Sec. I-A (preconditioner quality)", min_rows=3)
def ablation_preconditioners(run: Run):
    """What compressing the far field buys: RS-S vs block-Jacobi (drop
    the far field) vs no preconditioner."""
    sides = {0: [16, 32, 64], 1: [32, 64, 128], 2: [64, 128, 256]}[run.scale]
    tol = 1e-10
    table = Table(
        "Ablation: preconditioner quality (Laplace, Krylov to 1e-10)",
        ["N", "RS-S nit", "wall RS-S t_setup", "BJ nit", "wall BJ t_setup", "plain CG nit"],
    )
    rows = []
    for m in sides:
        prob = repro.LaplaceVolumeProblem(m)
        b = prob.random_rhs()
        srs = repro.solve(prob, b, method="pcg", tol=tol, maxiter=20000, srs=OPTS)
        jac = repro.solve(prob, b, method="block_jacobi", tol=tol, maxiter=20000)
        plain = repro.solve(prob, b, method="cg", tol=tol, maxiter=50000)
        table.add_row(
            f"{m}^2", srs.iterations, *clock_cells(srs, ("t_setup",)),
            jac.iterations, *clock_cells(jac, ("t_setup",)), plain.iterations,
        )
        rows.append((srs.iterations, jac.iterations, plain.iterations))
    return [table], rows


@ablation_preconditioners.exact
def srs_nit_constant(rows):
    nits = [s for s, _j, _p in rows]
    return max(nits) - min(nits) <= 3, f"RS-S nit {nits}"


@ablation_preconditioners.exact
def jacobi_nit_grows(rows):
    nits = [j for _s, j, _p in rows]
    return nits[-1] > nits[0], f"block-Jacobi nit {nits}"


@ablation_preconditioners.exact
def ordering_srs_jacobi_plain(rows):
    return all(s < j < p for s, j, p in rows), f"(RS-S, block-Jacobi, plain) nit {rows}"


@artefact("bie_star", "Sec. I (boundary integral equations)", min_rows=2)
def bie_star(run: Run):
    sizes = {0: [512, 1024], 1: [512, 1024, 2048], 2: [1024, 2048, 4096, 8192]}[run.scale]
    opts = repro.SRSOptions(tol=1e-10)
    table = Table(
        "BIE star curve: dense LU vs RS-S vs RS-S on 4 ranks (interior Laplace Dirichlet)",
        ["N", "wall LU t_setup", "wall LU t_solve", "wall RS-S t_setup", "wall RS-S t_solve",
         "wall dist t_setup", "sim dist t_fact", "err_lu", "err_rss", "err_dist"],
    )
    rows = []
    for n in sizes:
        prob = repro.InteriorDirichletProblem(repro.StarCurve(1.0, 0.3, 5), n)
        f = prob.default_rhs()  # the trace of harmonic_exponential
        lu = repro.solve(prob, f, method="dense_lu")
        rss = repro.solve(prob, f, method="direct", srs=opts)
        dist = repro.solve(prob, f, method="direct", execution="auto", ranks=4, srs=opts)
        # interior max-norm error against the analytic harmonic data
        rows.append([
            prob.solve_error(harmonic_exponential, r.factorization) for r in (lu, rss, dist)
        ])
        table.add_row(
            n, *clock_cells(lu, WALL), *clock_cells(rss, WALL),
            *clock_cells(dist, ("t_setup", "sim_t_fact")), *(format_sci(e) for e in rows[-1]),
        )
    return [table], rows


@bie_star.exact
def rss_matches_lu_accuracy(rows):
    """The RS-S errors stay within a decade of dense LU (or below 1e-8)."""
    holds = all(max(rss, dist) < max(10.0 * lu, 1e-8) for lu, rss, dist in rows)
    return holds, "; ".join(f"lu {lu:.1e} rss {rss:.1e} dist {dist:.1e}" for lu, rss, dist in rows)
