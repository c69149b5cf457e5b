"""Command line front end emitting machine-readable reports.

Every subcommand runs one family of checks and writes a single report,
JSON by default::

    {"check": <name>, "config": {...}, "columns": [...], "rows": [[...]]}

A subcommand parses its options, calls the library, formats the report
and sets the exit code.

CSV output mirrors the columns/rows (config embedded as ``#`` comment
lines).  Rows contain numbers only; where a table mixes several defect
sequences an integer ``axiom_id`` column keys into the label map stored
in the config.  The config also embeds the package version and the
normalization conventions that were fixed against independent oracles,
so a report is self-describing.

Each subcommand takes only the options it reads, plus ``--out PATH`` and
``--format {json,csv}``:

- ``axioms``, ``star``: ``--n --box --hbar-start --hbar-ratio --hbar-count
  --f-spec --g-spec``
- ``positivity``: ``--n --box --hbar --ratios`` or ``--alphas --betas``
- ``torus``: ``--n-range --m --k --K --seed``
- ``landsman``: ``--metric --n --box --hbar-start --hbar-ratio --hbar-count``
  (``--box`` sizes the flat metric's box; the circle and exp2q grids are
  fixed)
- ``groupoid``: ``--n --box --hbar-start --hbar-ratio --hbar-count``

A report's config is the subcommand's options, what it derived from them
(cells, ``n_values``, ``axiom_labels``, notes, warnings), the version and
the conventions.

Exit codes: 0 on success, 1 when a numerical pass/fail predicate fails,
2 on usage errors, with a reason that names the option at fault.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from math import gcd

import numpy as np

from . import CONVENTIONS, __version__
from .core import DecayError, Grid1D, Grid2D, HbarSchedule, record_warnings, sample
from .core import tagged_warnings
from .gaussian import GaussianObservable, positivity_verdict
from .symbols import gaussian_field
from . import asymptotics
from . import groupoid as groupoid_mod
from . import landsman as landsman_mod
from . import prequant  # noqa: F401  (importing the CLI loads every layer)
from . import rotation
from . import weyl

__all__ = ["main"]

#: The range of every numeric grid and schedule option, checked before any
#: subcommand that declares the option runs: (rule, predicate).
OPTION_RANGES = {
    "n": (">= 2", lambda v: v >= 2),
    "box": ("finite and > 0", lambda v: np.isfinite(v) and v > 0),
    "hbar": ("finite and > 0", lambda v: np.isfinite(v) and v > 0),
    "hbar_start": ("finite and > 0", lambda v: np.isfinite(v) and v > 0),
    "hbar_ratio": ("in (0, 1)", lambda v: 0 < v < 1),
    "hbar_count": (">= 1", lambda v: v >= 1),
}

#: The observable of the flat ``landsman`` and the ``groupoid`` reports.
OBSERVABLE = GaussianObservable(0.2, -0.3, 1.0, 0.8)

AXIOM_LABELS = {
    0: "dirac",
    1: "vonneumann",
    2: "norm_limit",
    3: "norm_continuity",
    4: "star_product",
    5: "star_bracket",
}


def write_report(check: str, config: dict, columns: list, rows: list, path: str,
                 fmt: str) -> None:
    config = dict(config)
    config["version"] = __version__
    config["conventions"] = CONVENTIONS
    config["threads"] = weyl.thread_budget()
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
    """Parse ``gaussian:q0=..,p0=..,alpha=..,beta=..`` observable specs,
    each parameter at most once and with a value."""
    name, _, rest = spec.partition(":")
    if name != "gaussian":
        raise ValueError(f"unknown symbol name {name!r} (supported: gaussian)")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if key not in ("q0", "p0", "alpha", "beta"):
                raise ValueError(f"unknown gaussian parameter {key!r}")
            if key in kwargs:
                raise ValueError(f"gaussian parameter {key!r} given twice")
            if not value.strip():
                raise ValueError(f"gaussian parameter {key!r} has no value")
            kwargs[key] = float(value)
    return GaussianObservable(**kwargs)


def _grid(args) -> Grid2D:
    """The square (q, p) grid of ``--n`` points per axis on ``[-box, box)``."""
    axis = Grid1D(-args.box, args.box, args.n)
    return Grid2D(axis, axis)


def _schedule(args) -> HbarSchedule:
    return HbarSchedule(args.hbar_start, args.hbar_ratio, args.hbar_count)


def _sampled_specs(args):
    """The ``--f-spec`` and ``--g-spec`` observables sampled on the grid; a
    spec that does not parse is a usage error naming its option."""
    observables = []
    for option, spec in (("--f-spec", args.f_spec), ("--g-spec", args.g_spec)):
        try:
            observables.append(parse_gaussian_spec(spec))
        except ValueError as err:
            raise ValueError(f"{option} {spec!r}: {err}") from None
    grid = _grid(args)
    return [sample(gaussian_field(obs), grid) for obs in observables]


def _report(args, columns: list, rows: list, **derived) -> None:
    """Write the subcommand's report; its config is the parsed options plus
    what the subcommand derived from them."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    write_report(args.command, {**options, **derived}, columns, rows, args.out, args.format)


def _exit_code(check: str, failed: list, warnings: list | None = None) -> int:
    """0 if no check failed; else 1, with one stderr line naming the failed
    checks and, where the report has them, the report's warnings."""
    if not failed:
        return 0
    why = "" if warnings is None else f"; warnings: {'; '.join(warnings) or 'none'}"
    print(f"strictq {check}: failed {', '.join(failed)}{why}", file=sys.stderr)
    return 1


def cmd_axioms(args) -> int:
    schedule = _schedule(args)
    reports = asymptotics.axiom_sweep(*_sampled_specs(args), schedule)

    ids = {label: axiom_id for axiom_id, label in AXIOM_LABELS.items()}
    rows, notes, warnings, failed = [], [], [], []
    for rep in reports:
        axiom_id = ids[rep.axiom]
        for hbar, defect in zip(rep.hbars, rep.defects):
            rows.append([axiom_id, hbar, defect, rep.classical_ref])
        notes.extend(rep.notes)
        warnings.extend(rep.warnings)
        if rep.axiom != "norm_continuity" and not rep.passes():
            failed.append(rep.axiom)
    rows.sort(key=lambda r: (r[0], -r[1]))
    warnings = sorted(set(warnings))
    _report(args, ["axiom_id", "hbar", "defect", "classical_ref"], rows,
            axiom_labels=AXIOM_LABELS, notes=sorted(set(notes)), warnings=warnings)
    return _exit_code("axioms", failed, warnings)


def cmd_positivity(args) -> int:
    qgrid = Grid1D(-args.box, args.box, args.n)
    hbar = args.hbar
    if (args.alphas is None) != (args.betas is None):
        raise ValueError("give both --alphas and --betas, or neither")
    if args.alphas is not None:
        alphas = _parse_floats("--alphas", args.alphas)
        betas = _parse_floats("--betas", args.betas)
        cells = [(a, b) for a in alphas for b in betas]
    else:
        ratios = _parse_floats("--ratios", args.ratios)
        for r in ratios:
            if not (np.isfinite(r) and r > 0):
                raise ValueError(f"need every --ratios value finite and > 0, got {r}")
        side = [float(np.sqrt(r) * hbar / 2.0) for r in ratios]
        cells = [(a, a) for a in side]
    rows, failed = [], []
    half = hbar / 2.0
    for a, b in cells:
        try:
            verdict = positivity_verdict(GaussianObservable(alpha=a, beta=b), hbar, qgrid)
        except weyl.AliasingError as err:
            raise ValueError(f"--hbar {hbar:g} at alpha={a:g}, beta={b:g}: {err}") from None
        except DecayError as err:
            raise ValueError(f"--box {args.box:g} at alpha={a:g}, beta={b:g}: {err}") from None
        rows.append([a, b, hbar, verdict["min_eigenvalue"], float(verdict["positive"])])
        expected = a / half * (b / half) >= 1.0 - 1e-12
        if bool(verdict["positive"]) != expected:
            failed.append(f"threshold at alpha={a:g}, beta={b:g}")
    _report(args, ["alpha", "beta", "hbar", "min_eig", "positive"], rows,
            cells=[[a, b] for a, b in cells])
    return _exit_code("positivity", failed)


def cmd_torus(args) -> int:
    m, k = args.m, args.k
    n_values = _parse_int_range(args.n_range)
    if not n_values:
        raise ValueError(f"--n-range {args.n_range!r} holds no N")
    K = args.K
    for N in n_values:
        if gcd(K, N) != 1:
            raise ValueError(f"K={K} and N={N} are not coprime")
    rows = []
    for N in n_values:
        rep = rotation.rep_matrices(N, K)
        defect = rotation.dirac_defect(m, k, N, K)
        direct_err = float(np.max(np.abs(defect["direct"] - defect["matrix"])))
        comm = float(np.max(np.abs(
            rep.V @ rep.U - np.exp(2j * np.pi * K / N) * rep.U @ rep.V)))
        rng = np.random.default_rng(args.seed + N)
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
    _report(args, columns, rows, n_values=list(map(int, n_values)))
    return _exit_code("torus", failed)


def _random_element(rng, theta):
    terms = {}
    for _ in range(4):
        key = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        re, im = rng.normal(size=2)
        terms[key] = complex(re, im)
    return rotation.rot_element(theta, terms)


#: ``landsman --metric``: the experiment run on the parsed options, the
#: report's columns, and the rule its rows must pass.
LANDSMAN_METRICS = {
    "flat": (lambda args: landsman_mod.flat_transfer(OBSERVABLE, _grid(args), _schedule(args)),
             ["hbar", "sup_gap_vs_weyl", "kernel_scale"],
             lambda rows: all(gap <= 1e-5 * max(scale, 1.0) for _, gap, scale in rows)),
    "circle": (lambda args: landsman_mod.circle_hermiticity(args.n, _schedule(args)),
               ["hbar", "hermiticity_gap", "kernel_scale"],
               lambda rows: all(herm <= 1e-10 * max(scale, 1.0) for _, herm, scale in rows)),
    "exp2q": (lambda args: landsman_mod.exp2q_dirac(args.n, _schedule(args)),
              ["hbar", "dirac_defect", "weighted_norm_f"],
              lambda rows: all(b[1] < a[1] for a, b in zip(rows, rows[1:]))),
}


def cmd_landsman(args) -> int:
    experiment, columns, passes = LANDSMAN_METRICS[args.metric]
    rows, notes, warnings = experiment(args)
    _report(args, columns, rows, notes=list(notes), warnings=list(warnings))
    failed = [] if passes(rows) else [f"{args.metric} {columns[1]}"]
    return _exit_code("landsman", failed, list(warnings))


def cmd_groupoid(args) -> int:
    schedule = _schedule(args)
    f = sample(gaussian_field(OBSERVABLE), _grid(args))
    rows = []
    wm_ok = True
    seen: dict = {}
    # one Weyl kernel per hbar, shared by both sections
    family = groupoid_mod.canonical_family(f, schedule.values)
    for hbar, kernel in zip(family.hbars, family.kernels):
        res = groupoid_mod.wm_correspondence(f, kernel)
        rows.append([hbar, res["defect"], res["weyl_norm"]])
        wm_ok = wm_ok and res["defect"] <= 1e-5 * max(res["weyl_norm"], 1.0)
        record_warnings(seen, hbar, res["rep"], res["weyl"])
    boundary = groupoid_mod.tangent_boundary_check(family)
    for hbar, defect, raw in zip(boundary.hbars, boundary.defects, boundary.raw):
        rows.append([hbar, defect, raw])
    sections = ["wm_correspondence", "tangent_boundary"]
    failed = [s for s, ok in zip(sections, (wm_ok, all(boundary.defects <= 1e-6))) if not ok]
    warnings = sorted(set(tagged_warnings(seen)) | set(boundary.warnings))
    _report(args, ["hbar", "defect", "scale_or_raw"], rows, sections=sections,
            boundary_notes=list(boundary.notes), warnings=warnings)
    return _exit_code("groupoid", failed, warnings)


def cmd_star(args) -> int:
    schedule = _schedule(args)
    prod_rep, br_rep = asymptotics.check_star_limits(*_sampled_specs(args), schedule)
    rows = [
        [hbar, dp, db]
        for hbar, dp, db in zip(prod_rep.hbars, prod_rep.defects, br_rep.defects)
    ]
    failed = [rep.axiom.removeprefix("star_") for rep in (prod_rep, br_rep) if not rep.passes()]
    warnings = sorted(set(prod_rep.warnings))
    _report(args, ["hbar", "product_defect", "bracket_defect"], rows,
            classical_refs={"product": prod_rep.classical_ref,
                            "bracket": br_rep.classical_ref},
            notes=sorted(set(prod_rep.notes)), warnings=warnings)
    return _exit_code("star", failed, warnings)


def _parse_floats(option: str, text: str) -> list:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{option} {text!r} holds no value")
    return values


def _parse_int_range(text: str) -> list:
    if ":" in text:
        lo, _, hi = text.partition(":")
        return list(range(int(lo), int(hi)))
    return [int(x) for x in text.split(",") if x.strip()]


def _add_grid(parser, n=768, box=6.0, box_help="half-width of the (q, p) box"):
    parser.add_argument("--n", type=int, default=n, help="points per axis")
    parser.add_argument("--box", type=float, default=box, help=box_help)


def _add_schedule(parser, count=7):
    parser.add_argument("--hbar-start", type=float, default=1.0)
    parser.add_argument("--hbar-ratio", type=float, default=0.5)
    parser.add_argument("--hbar-count", type=int, default=count)


def _add_specs(parser):
    parser.add_argument("--f-spec", default="gaussian:q0=0.4,p0=-0.2,alpha=0.7,beta=0.5")
    parser.add_argument("--g-spec", default="gaussian:q0=-0.3,p0=0.3,alpha=0.6,beta=0.55")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictq",
        description="Numerical checks for strict deformation quantization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="report.json", help="output path")
    output.add_argument("--format", choices=["json", "csv"], default="json")

    def command(name, func, summary):
        # no prefix matching: ``torus --n 64`` must not read as ``--n-range 64``
        p = sub.add_parser(name, parents=[output], allow_abbrev=False, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("axioms", cmd_axioms, "strict-quantization axiom defect tables")
    _add_grid(p)
    _add_schedule(p)
    _add_specs(p)

    p = command("positivity", cmd_positivity, "Gaussian positivity threshold scan")
    _add_grid(p, n=512, box=16.0, box_help="half-width of the q-axis")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--alphas", default=None, help="comma list of alpha values (with --betas)")
    p.add_argument("--betas", default=None, help="comma list of beta values (with --alphas)")
    p.add_argument("--ratios", default="0.25,0.5,0.75,1.0,1.5,2.0",
                   help="alpha beta / (hbar/2)^2 ratios (alpha = beta)")

    p = command("torus", cmd_torus, "rotation-algebra and fuzzy-torus checks")
    p.add_argument("--n-range", default="2:33", help="N range, lo:hi or comma list")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--K", type=int, default=1, help="twist K of the representation")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random algebra elements (offset by N)")

    p = command("landsman", cmd_landsman, "Riemannian quantization checks")
    p.add_argument("--metric", choices=["flat", "circle", "exp2q"], required=True)
    _add_grid(p, n=384, box=12.0,
              box_help="half-width of the flat metric's box (the circle and exp2q "
                       "grids are fixed)")
    _add_schedule(p, count=4)

    p = command("groupoid", cmd_groupoid, "semidirect correspondence and boundary checks")
    _add_grid(p, n=384, box=12.0)
    _add_schedule(p, count=4)

    p = command("star", cmd_star, "star-product limit defect tables")
    _add_grid(p)
    _add_schedule(p)
    _add_specs(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = vars(args)
        for dest, (rule, ok) in OPTION_RANGES.items():
            if dest in options and not ok(options[dest]):
                raise ValueError(f"need --{dest.replace('_', '-')} {rule}, got {options[dest]}")
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"strictq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
