"""Command line front end emitting machine-readable reports.

Every subcommand runs one family of checks and writes a single report,
JSON by default::

    {"check": <name>, "config": {...}, "columns": [...], "rows": [[...]]}

CSV output mirrors the columns/rows (config embedded as ``#`` comment
lines).  Rows contain numbers only; where a table mixes several defect
sequences an integer ``axiom_id`` column keys into the label map stored
in the config.  The config also embeds the package version and the
normalization conventions that were fixed against independent oracles,
so a report is self-describing.

Exit codes: 0 on success, 1 when a numerical pass/fail predicate fails,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, replace
from math import gcd

import numpy as np

from . import CONVENTIONS, __version__
from .core import Grid1D, Grid2D, HbarSchedule, record_warnings, sample, tagged_warnings
from .gaussian import GaussianObservable, positivity_verdict
from .symbols import gaussian_field, poisson_field
from . import asymptotics
from . import groupoid as groupoid_mod
from . import landsman as landsman_mod
from . import prequant
from . import rotation
from . import weyl

__all__ = ["main", "RunConfig"]

AXIOM_LABELS = {
    0: "dirac",
    1: "vonneumann",
    2: "norm_limit",
    3: "norm_continuity",
    4: "star_product",
    5: "star_bracket",
}


@dataclass(frozen=True)
class RunConfig:
    """Grid, schedule and output options shared by the subcommands."""

    n: int
    box: float
    hbar_start: float
    hbar_ratio: float
    hbar_count: int
    seed: int
    out: str
    format: str

    def __post_init__(self):
        if self.n < 2 or self.box <= 0 or self.hbar_start <= 0:
            raise ValueError("grid and schedule parameters must be positive")
        if not 0 < self.hbar_ratio < 1:
            raise ValueError("hbar ratio must lie in (0, 1)")
        if self.hbar_count < 1:
            raise ValueError("hbar count must be at least 1")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")

    def grid(self) -> Grid2D:
        axis = Grid1D(-self.box, self.box, self.n)
        return Grid2D(axis, axis)

    def schedule(self) -> HbarSchedule:
        return HbarSchedule(self.hbar_start, self.hbar_ratio, self.hbar_count)


def write_report(check: str, config: dict, columns: list, rows: list, path: str,
                 fmt: str) -> None:
    config = dict(config)
    config["version"] = __version__
    config["conventions"] = CONVENTIONS
    rows = [[float(x) for x in row] for row in rows]
    if fmt == "json":
        payload = {"check": check, "config": config, "columns": columns, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(f"# check: {check}\n")
            for key in sorted(config):
                fh.write(f"# {key}: {json.dumps(config[key], sort_keys=True)}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)


def parse_gaussian_spec(spec: str) -> GaussianObservable:
    """Parse ``gaussian:q0=..,p0=..,alpha=..,beta=..`` observable specs."""
    name, _, rest = spec.partition(":")
    if name != "gaussian":
        raise ValueError(f"unknown symbol name {name!r} (supported: gaussian)")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if key not in ("q0", "p0", "alpha", "beta"):
                raise ValueError(f"unknown gaussian parameter {key!r}")
            kwargs[key] = float(value)
    return GaussianObservable(**kwargs)


def _config_dict(cfg: RunConfig, **extra) -> dict:
    out = asdict(cfg)
    out.update(extra)
    return out


def _exit_code(check: str, failed: list, warnings: list | None = None) -> int:
    """0 if no check failed; else 1, with one stderr line naming the failed
    checks and, where the report has them, the report's warnings."""
    if not failed:
        return 0
    why = "" if warnings is None else f"; warnings: {'; '.join(warnings) or 'none'}"
    print(f"strictq {check}: failed {', '.join(failed)}{why}", file=sys.stderr)
    return 1


def cmd_axioms(args) -> int:
    cfg = _runconfig(args)
    f_obs = parse_gaussian_spec(args.f_spec)
    g_obs = parse_gaussian_spec(args.g_spec)
    grid = cfg.grid()
    f = sample(gaussian_field(f_obs), grid)
    g = sample(gaussian_field(g_obs), grid)
    reports = asymptotics.axiom_sweep(f, g, cfg.schedule())

    ids = {"dirac": 0, "vonneumann": 1, "norm_limit": 2, "norm_continuity": 3}
    rows, notes, warnings, failed = [], [], [], []
    for rep in reports:
        axiom_id = ids.get(rep.axiom, 4 if rep.detail == "product" else 5)
        for hbar, defect in zip(rep.hbars, rep.defects):
            rows.append([axiom_id, hbar, defect, rep.classical_ref])
        notes.extend(rep.notes)
        warnings.extend(rep.warnings)
        if rep.axiom != "norm_continuity" and not rep.passes():
            failed.append(AXIOM_LABELS[axiom_id])
    rows.sort(key=lambda r: (r[0], -r[1]))
    warnings = sorted(set(warnings))
    write_report(
        "axioms",
        _config_dict(cfg, f_spec=args.f_spec, g_spec=args.g_spec,
                     axiom_labels=AXIOM_LABELS, notes=sorted(set(notes)),
                     warnings=warnings),
        ["axiom_id", "hbar", "defect", "classical_ref"],
        rows,
        cfg.out,
        cfg.format,
    )
    return _exit_code("axioms", failed, warnings)


def cmd_positivity(args) -> int:
    cfg = _runconfig(args)
    hbar = args.hbar
    if args.alphas is not None or args.betas is not None:
        alphas = _parse_floats(args.alphas)
        betas = _parse_floats(args.betas)
        cells = [(a, b) for a in alphas for b in betas]
    else:
        ratios = _parse_floats(args.ratios)
        side = [float(np.sqrt(r) * hbar / 2.0) for r in ratios]
        cells = [(a, a) for a in side]
    qgrid = Grid1D(-cfg.box, cfg.box, cfg.n)
    rows, failed = [], []
    for a, b in cells:
        verdict = positivity_verdict(GaussianObservable(alpha=a, beta=b), hbar, qgrid)
        rows.append([a, b, hbar, verdict["min_eigenvalue"], float(verdict["positive"])])
        expected = a * b >= (hbar / 2.0) ** 2 * (1.0 - 1e-12)
        if bool(verdict["positive"]) != expected:
            failed.append(f"threshold at alpha={a:g}, beta={b:g}")
    write_report(
        "positivity",
        _config_dict(cfg, hbar=hbar,
                     cells=[[a, b] for a, b in cells]),
        ["alpha", "beta", "hbar", "min_eig", "positive"],
        rows,
        cfg.out,
        cfg.format,
    )
    return _exit_code("positivity", failed)


def cmd_torus(args) -> int:
    cfg = _runconfig(args)
    m, k = args.m, args.k
    n_values = _parse_int_range(args.n_range)
    K = args.K
    for N in n_values:
        if gcd(K, N) != 1:
            raise ValueError(f"K={K} and N={N} are not coprime")
    rows = []
    for N in n_values:
        rep = rotation.rep_matrices(N, K)
        defect = rotation.dirac_defect(m, k, N)
        direct_err = float(np.max(np.abs(defect["direct"] - defect["matrix"])))
        comm = float(np.max(np.abs(
            rep.V @ rep.U - np.exp(2j * np.pi * K / N) * rep.U @ rep.V)))
        rng = np.random.default_rng(cfg.seed + N)
        homo = star = 0.0
        for _ in range(3):
            a = _random_element(rng, rep.theta)
            b = _random_element(rng, rep.theta)
            ra, rb = rotation.represent(a, rep), rotation.represent(b, rep)
            homo = max(homo, float(np.max(np.abs(
                rotation.represent(rotation.convolve(a, b), rep) - ra @ rb))))
            star = max(star, float(np.max(np.abs(
                rotation.represent(rotation.involution(a), rep) - ra.conj().T))))
        center = rotation.center_check(N, 0, N, K)
        center_err = abs(abs(center["scalar"]) - 1.0) if center["is_central"] else 1.0
        scaled = abs(defect["scalar"]) * N**3
        rows.append([N, K, abs(defect["scalar"]), scaled, direct_err, homo, star, comm,
                     center_err])
    columns = ["N", "K", "defect_abs", "defect_times_N3", "direct_vs_closed",
               "homomorphism_err", "involution_err", "commutation_err", "center_err"]
    gates = {4: 1e-12, 5: 1e-12, 6: 1e-12, 7: 1e-12, 8: 1e-13}
    failed = [columns[c] for c, tol in gates.items() if not all(r[c] <= tol for r in rows)]
    write_report(
        "torus",
        _config_dict(cfg, m=m, k=k, K=K, n_values=list(map(int, n_values))),
        columns,
        rows,
        cfg.out,
        cfg.format,
    )
    return _exit_code("torus", failed)


def _random_element(rng, theta):
    terms = {}
    for _ in range(4):
        key = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        re, im = rng.normal(size=2)
        terms[key] = complex(re, im)
    return rotation.rot_element(theta, terms)


def cmd_landsman(args) -> int:
    cfg = _runconfig(args)
    name = args.metric
    schedule, notes = cfg.schedule(), ()
    seen: dict = {}
    if name == "flat":
        metric = landsman_mod.metric_flat()
        axis = Grid1D(-cfg.box, cfg.box, cfg.n)
        grid = Grid2D(axis, axis)
        obs = GaussianObservable(0.2, -0.3, 1.0, 0.8)
        f = sample(gaussian_field(obs), grid)
        fiber = landsman_mod.fiber_fourier(f, metric).fiber
        fsym = landsman_mod.gaussian_fiber_symbol(obs, metric, axis, fiber)
        schedule, notes = asymptotics.clip_schedule(f, schedule)
        rows = []
        ok = True
        for hbar in schedule.values:
            kl = landsman_mod.landsman_kernel(fsym, hbar, metric)
            kw = weyl.weyl_kernel(f, hbar, axis)
            record_warnings(seen, hbar, kl, kw)
            gap = float(np.max(np.abs(kl.matrix - kw.matrix)))
            scale = float(np.max(np.abs(kw.matrix)))
            rows.append([hbar, gap, scale])
            ok = ok and gap <= 1e-5 * max(scale, 1.0)
        columns = ["hbar", "sup_gap_vs_weyl", "kernel_scale"]
    elif name == "exp2q":
        metric = landsman_mod.metric_exp2q()
        base = Grid1D(-2.0, 2.0, cfg.n)
        pax = Grid1D(-12.0, 12.0, cfg.n)
        grid = Grid2D(base, pax)
        gA = GaussianObservable(0.0, -0.2, 0.05, 1.0)
        gB = GaussianObservable(0.1, 0.3, 0.06, 0.9)
        fA = sample(gaussian_field(gA), grid)
        fB = sample(gaussian_field(gB), grid)
        br = sample(poisson_field(fA.symbol, fB.symbol), grid)
        fiber = landsman_mod.fiber_fourier(fA, metric).fiber
        sA = landsman_mod.gaussian_fiber_symbol(gA, metric, base, fiber)
        sB = landsman_mod.gaussian_fiber_symbol(gB, metric, base, fiber)
        sBr = landsman_mod.fiber_fourier(br, metric)
        adm = min(landsman_mod.hbar_admissible(s, metric) for s in (sA, sB, sBr))
        rows = []
        for hbar in _landsman_hbars(schedule, min(0.9 * adm, 0.16)):
            ka = landsman_mod.landsman_kernel(sA, hbar, metric)
            kb = landsman_mod.landsman_kernel(sB, hbar, metric)
            kbr = landsman_mod.landsman_kernel(sBr, hbar, metric)
            record_warnings(seen, hbar, ka, kb, kbr)
            bracket = asymptotics.quantum_bracket(ka, kb, hbar)
            diff = weyl.OperatorKernel(grid=base, matrix=kbr.matrix - bracket.matrix,
                                       hbar=hbar)
            rows.append([hbar, weyl.op_norm(diff), weyl.op_norm(ka)])
        defects = [r[1] for r in rows]
        ok = all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))
        columns = ["hbar", "dirac_defect", "weighted_norm_f"]
    else:  # circle
        metric = landsman_mod.metric_circle(1.0)
        axis = Grid1D(0.0, 1.0, cfg.n)
        vax = Grid1D(-8.0, 8.0, cfg.n)

        def ft(q, v):
            return (1.0 + 0.3 * np.cos(2 * np.pi * np.asarray(q))) * np.exp(
                -np.asarray(v) ** 2)

        values = ft(axis.points[:, None], vax.points[None, :]).astype(complex)
        fsym = landsman_mod.FiberSymbol(base=axis, fiber=vax, values=values,
                                        support_radius=6.0, symbol=ft)
        adm = landsman_mod.hbar_admissible(fsym, metric)
        rows = []
        ok = True
        for hbar in _landsman_hbars(schedule, 0.9 * adm):
            kernel = landsman_mod.landsman_kernel(fsym, hbar, metric)
            record_warnings(seen, hbar, kernel)
            herm = float(np.max(np.abs(kernel.matrix - kernel.matrix.conj().T)))
            scale = float(np.max(np.abs(kernel.matrix)))
            rows.append([hbar, herm, scale])
            ok = ok and herm <= 1e-10 * max(scale, 1.0)
        columns = ["hbar", "hermiticity_gap", "kernel_scale"]
    warnings = list(tagged_warnings(seen))
    write_report(
        "landsman",
        _config_dict(cfg, metric=name, notes=list(notes), warnings=warnings),
        columns,
        rows,
        cfg.out,
        cfg.format,
    )
    return _exit_code("landsman", [] if ok else [f"{name} {columns[1]}"], warnings)


def _landsman_hbars(schedule: HbarSchedule, cap: float) -> np.ndarray:
    """The schedule started at min(cap, its start), with at least two values."""
    return replace(schedule, start=min(cap, schedule.start),
                   count=max(schedule.count, 2)).values


def cmd_groupoid(args) -> int:
    cfg = _runconfig(args)
    obs = GaussianObservable(0.2, -0.3, 1.0, 0.8)
    f = sample(gaussian_field(obs), cfg.grid())
    schedule = cfg.schedule()
    rows = []
    wm_ok = True
    seen: dict = {}
    for hbar in schedule.values:
        res = groupoid_mod.wm_correspondence(f, hbar)
        rows.append([hbar, res["defect"], res["weyl_norm"]])
        wm_ok = wm_ok and res["defect"] <= 1e-5 * max(res["weyl_norm"], 1.0)
        record_warnings(seen, hbar, res["rep"], res["weyl"])
    family = groupoid_mod.canonical_family(f, schedule.values)
    boundary = groupoid_mod.tangent_boundary_check(family)
    for hbar, defect, raw in zip(boundary.hbars, boundary.defects, boundary.raw):
        rows.append([hbar, defect, raw])
    sections = ["wm_correspondence", "tangent_boundary"]
    failed = [s for s, ok in zip(sections, (wm_ok, all(boundary.defects <= 1e-6))) if not ok]
    warnings = sorted(set(tagged_warnings(seen)) | set(boundary.warnings))
    write_report(
        "groupoid",
        _config_dict(cfg, sections=sections, boundary_notes=list(boundary.notes),
                     warnings=warnings),
        ["hbar", "defect", "scale_or_raw"],
        rows,
        cfg.out,
        cfg.format,
    )
    return _exit_code("groupoid", failed, warnings)


def cmd_star(args) -> int:
    cfg = _runconfig(args)
    f_obs = parse_gaussian_spec(args.f_spec)
    g_obs = parse_gaussian_spec(args.g_spec)
    grid = cfg.grid()
    f = sample(gaussian_field(f_obs), grid)
    g = sample(gaussian_field(g_obs), grid)
    prod_rep, br_rep = asymptotics.check_star_limits(f, g, cfg.schedule())
    rows = [
        [hbar, dp, db]
        for hbar, dp, db in zip(prod_rep.hbars, prod_rep.defects, br_rep.defects)
    ]
    failed = [label for label, rep in (("product", prod_rep), ("bracket", br_rep))
              if not rep.passes()]
    warnings = sorted(set(prod_rep.warnings))
    write_report(
        "star",
        _config_dict(cfg, f_spec=args.f_spec, g_spec=args.g_spec,
                     classical_refs={"product": prod_rep.classical_ref,
                                     "bracket": br_rep.classical_ref},
                     notes=sorted(set(prod_rep.notes)),
                     warnings=warnings),
        ["hbar", "product_defect", "bracket_defect"],
        rows,
        cfg.out,
        cfg.format,
    )
    return _exit_code("star", failed, warnings)


def _parse_floats(text: str) -> list:
    if text is None or not text.strip():
        return []
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_range(text: str) -> list:
    if ":" in text:
        lo, _, hi = text.partition(":")
        return list(range(int(lo), int(hi)))
    return [int(x) for x in text.split(",") if x.strip()]


def _runconfig(args) -> RunConfig:
    return RunConfig(
        n=args.n,
        box=args.box,
        hbar_start=args.hbar_start,
        hbar_ratio=args.hbar_ratio,
        hbar_count=args.hbar_count,
        seed=args.seed,
        out=args.out,
        format=args.format,
    )


def _add_common(parser, n=768, box=6.0, count=7):
    parser.add_argument("--n", type=int, default=n, help="points per axis")
    parser.add_argument("--box", type=float, default=box, help="half-width of the box")
    parser.add_argument("--hbar-start", type=float, default=1.0)
    parser.add_argument("--hbar-ratio", type=float, default=0.5)
    parser.add_argument("--hbar-count", type=int, default=count)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="report.json", help="output path")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictq",
        description="Numerical checks for strict deformation quantization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="strict-quantization axiom defect tables")
    _add_common(p)
    p.add_argument("--f-spec", default="gaussian:q0=0.4,p0=-0.2,alpha=0.7,beta=0.5")
    p.add_argument("--g-spec", default="gaussian:q0=-0.3,p0=0.3,alpha=0.6,beta=0.55")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("positivity", help="Gaussian positivity threshold scan")
    _add_common(p, n=512, box=16.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--alphas", default=None, help="comma list of alpha values")
    p.add_argument("--betas", default=None, help="comma list of beta values")
    p.add_argument("--ratios", default="0.25,0.5,0.75,1.0,1.5,2.0",
                   help="alpha beta / (hbar/2)^2 ratios (alpha = beta)")
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("torus", help="rotation-algebra and fuzzy-torus checks")
    _add_common(p)
    p.add_argument("--n-range", default="2:33", help="N range, lo:hi or comma list")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--K", type=int, default=1, help="twist K of the representation")
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("landsman", help="Riemannian quantization checks")
    _add_common(p, n=384, box=12.0, count=4)
    p.add_argument("--metric", choices=["flat", "circle", "exp2q"], required=True)
    p.set_defaults(func=cmd_landsman)

    p = sub.add_parser("groupoid", help="semidirect correspondence and boundary checks")
    _add_common(p, n=384, box=12.0, count=4)
    p.set_defaults(func=cmd_groupoid)

    p = sub.add_parser("star", help="star-product limit defect tables")
    _add_common(p)
    p.add_argument("--f-spec", default="gaussian:q0=0.4,p0=-0.2,alpha=0.7,beta=0.5")
    p.add_argument("--g-spec", default="gaussian:q0=-0.3,p0=0.3,alpha=0.6,beta=0.55")
    p.set_defaults(func=cmd_star)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"strictq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
