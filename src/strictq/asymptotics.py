"""Executable checks of the strict-quantization axioms over hbar schedules.

All axiom reports for a pair of observables f, g come from one shared
quantization pass, :func:`axiom_sweep`.  At each scheduled hbar the pass
builds the Weyl kernels Q(f), Q(g), Q({f, g}) and Q(fg) and the operator
products AB = Q(f)Q(g) and BA = Q(g)Q(f), each exactly once, and every
report draws its defect from them:

* ``dirac``: operator norm of Q({f, g}) minus the quantum bracket
  (AB - BA) / (i hbar);
* ``vonneumann``: operator norm of Q(fg) minus the Jordan product
  (AB + BA) / 2;
* ``norm_limit``: |  ||Q(f)|| - sup|f|  |;
* ``norm_continuity``: gaps between the same norms ||Q(f)|| at
  successive scheduled hbar values.  The report is omitted when the
  clipped schedule has fewer than two entries;
* ``star_limit``: sup norms of (f * g - fg) and of the rescaled star
  commutator minus the Poisson bracket, where f * g and g * f are the
  dequantizations of AB and BA.

Q({f, g}) and Q(fg) are built one at a time and released, as are Q(f)
and Q(g), before AB and BA are dequantized, so AB and BA are the only
kernels the pass keeps across the steps of one hbar.

:func:`check_dirac` and :func:`check_vonneumann` are views of one report
of the pass.  :func:`check_star_limits` runs the pass's star step on its
own Q(f)Q(g) and Q(g)Q(f), and :func:`check_norm_limit` and
:func:`check_norm_continuity` quantize f alone.

Limits are reported as sampled sequences together with a pass predicate
(final defect at or below 5% of the classical scale); no rates are
fitted.  The family cannot be evaluated at hbar = 0, so every report
carries a note that only the limiting behaviour along the schedule is
checked.  Schedules are clipped, with an explicit note, when the
aliasing guard of the kernel builder rejects their smallest entries.
Every report also carries the warnings raised by the kernels and
dequantizations it drew from, each once, tagged with the first hbar at
which it appeared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    HbarSchedule,
    SampledFunction,
    record_warnings,
    sample,
    tagged_warnings,
)
from .symbols import SymbolField, poisson_field
from .weyl import (
    OperatorKernel,
    compose,
    dequantize,
    hbar_floor,
    op_norm,
    weyl_kernel,
)

__all__ = [
    "AxiomReport",
    "jordan",
    "quantum_bracket",
    "axiom_sweep",
    "check_dirac",
    "check_vonneumann",
    "check_norm_limit",
    "check_norm_continuity",
    "check_star_limits",
    "PASS_FRACTION",
]

#: A limit claim passes when the last defect is at most this fraction of scale.
PASS_FRACTION = 0.05

_LIMIT_NOTE = "hbar=0 not evaluable; limiting behaviour sampled along the schedule"


@dataclass(frozen=True)
class AxiomReport:
    """Defect sequence of one axiom along a decreasing hbar schedule."""

    axiom: str
    hbars: np.ndarray
    defects: np.ndarray
    classical_ref: float
    detail: str = ""
    notes: tuple = field(default_factory=lambda: (_LIMIT_NOTE,))
    warnings: tuple = ()

    def __post_init__(self):
        if len(self.hbars) != len(self.defects):
            raise ValueError("hbars and defects must have equal length")
        if np.any(np.diff(self.hbars) >= 0):
            raise ValueError("hbars must be strictly decreasing")
        if np.any(np.asarray(self.defects) < 0):
            raise ValueError("defects must be nonnegative")

    def passes(self, fraction: float = PASS_FRACTION) -> bool:
        scale = self.classical_ref if self.classical_ref > 0 else 1.0
        return bool(self.defects[-1] <= fraction * scale)


def _jordan_of(ab: OperatorKernel, ba: OperatorKernel) -> OperatorKernel:
    return OperatorKernel(
        grid=ab.grid, matrix=0.5 * (ab.matrix + ba.matrix), hbar=ab.hbar,
        warnings=ab.warnings,
    )


def _bracket_of(ab: OperatorKernel, ba: OperatorKernel, hbar: float) -> OperatorKernel:
    return OperatorKernel(
        grid=ab.grid, matrix=(ab.matrix - ba.matrix) / (1j * hbar), hbar=ab.hbar,
        warnings=ab.warnings,
    )


def jordan(a: OperatorKernel, b: OperatorKernel) -> OperatorKernel:
    """Symmetrized product (AB + BA)/2."""
    return _jordan_of(compose(a, b), compose(b, a))


def quantum_bracket(a: OperatorKernel, b: OperatorKernel, hbar: float) -> OperatorKernel:
    """Quantum Lie bracket (AB - BA)/(i hbar)."""
    return _bracket_of(compose(a, b), compose(b, a), hbar)


def _defect(exact: OperatorKernel, approx: OperatorKernel) -> float:
    """Operator norm of ``exact - approx``."""
    return op_norm(OperatorKernel(
        grid=exact.grid, matrix=exact.matrix - approx.matrix, hbar=exact.hbar))


def _clip_schedule(f: SampledFunction, schedule: HbarSchedule):
    qgrid = f.grid.qaxis
    floor = hbar_floor(qgrid, f.grid.paxis)
    clipped = schedule.clipped(floor)
    notes = [_LIMIT_NOTE]
    if clipped.count < schedule.count:
        notes.append(
            f"schedule clipped from {schedule.count} to {clipped.count} entries "
            f"by the aliasing guard (hbar_min = {floor:g})"
        )
    return qgrid, clipped, tuple(notes)


def _require_fields(*fs: SampledFunction):
    for f in fs:
        if not isinstance(f.symbol, SymbolField):
            raise TypeError(
                "axiom checks need SymbolField oracles (products and brackets "
                "must be evaluable at kernel midpoints)"
            )


def _classical(f: SampledFunction, g: SampledFunction):
    """The classical limits fg and {f, g}, sampled on f's grid."""
    return (sample(f.symbol * g.symbol, f.grid),
            sample(poisson_field(f.symbol, g.symbol), f.grid))


def _star_step(ab: OperatorKernel, ba: OperatorKernel, product: SampledFunction,
               bracket: SampledFunction, seen: dict):
    """Star-limit defects at one hbar from the products AB and BA."""
    hbar = ab.hbar
    fg = dequantize(ab, product.grid)
    gf = dequantize(ba, product.grid)
    record_warnings(seen, hbar, fg, gf)
    comm = (fg.values - gf.values) / (1j * hbar)
    return (float(np.max(np.abs(fg.values - product.values))),
            float(np.max(np.abs(comm - bracket.values))))


def _star_reports(hbars, defects, product, bracket, notes, seen):
    prod_defects, br_defects = (np.array(d) for d in zip(*defects))
    common = dict(axiom="star_limit", hbars=hbars, notes=notes, warnings=tagged_warnings(seen))
    return (
        AxiomReport(defects=prod_defects, classical_ref=product.sup_norm(),
                    detail="product", **common),
        AxiomReport(defects=br_defects, classical_ref=bracket.sup_norm(),
                    detail="bracket", **common),
    )


def _norm_limit_report(f, hbars, norms, notes, seen) -> AxiomReport:
    ref = f.sup_norm()
    return AxiomReport(
        axiom="norm_limit",
        hbars=hbars,
        defects=np.array([abs(norm - ref) for norm in norms]),
        classical_ref=ref,
        notes=notes,
        warnings=tagged_warnings(seen),
    )


def _norm_continuity_report(f, hbars, norms, notes, seen) -> AxiomReport:
    return AxiomReport(
        axiom="norm_continuity",
        hbars=hbars[:-1],
        defects=np.abs(np.diff(norms)),
        classical_ref=f.sup_norm(),
        notes=notes,
        warnings=tagged_warnings(seen),
    )


def axiom_sweep(f: SampledFunction, g: SampledFunction, schedule: HbarSchedule) -> list:
    """Every axiom report of (f, g) from one quantization pass per clipped hbar.

    Returns ``[dirac, vonneumann, norm_limit, norm_continuity,
    star product, star bracket]``, without ``norm_continuity`` when the
    clipped schedule has fewer than two entries.
    """
    _require_fields(f, g)
    qgrid, clipped, notes = _clip_schedule(f, schedule)
    product, bracket = _classical(f, g)
    dirac, vonneumann, norms, star = [], [], [], []
    seen_dirac, seen_vonneumann, seen_norm, seen_star = {}, {}, {}, {}
    for hbar in clipped.values:
        ka = weyl_kernel(f, hbar, qgrid)
        kb = weyl_kernel(g, hbar, qgrid)
        record_warnings(seen_norm, hbar, ka)
        norms.append(op_norm(ka))
        ab, ba = compose(ka, kb), compose(kb, ka)
        del ka, kb
        kbr = weyl_kernel(bracket, hbar, qgrid)
        record_warnings(seen_dirac, hbar, ab, kbr)
        dirac.append(_defect(kbr, _bracket_of(ab, ba, hbar)))
        del kbr
        kpr = weyl_kernel(product, hbar, qgrid)
        record_warnings(seen_vonneumann, hbar, ab, kpr)
        vonneumann.append(_defect(kpr, _jordan_of(ab, ba)))
        del kpr
        star.append(_star_step(ab, ba, product, bracket, seen_star))

    hbars = clipped.values
    reports = [
        AxiomReport(axiom="dirac", hbars=hbars, defects=np.array(dirac),
                    classical_ref=bracket.sup_norm(), notes=notes,
                    warnings=tagged_warnings(seen_dirac)),
        AxiomReport(axiom="vonneumann", hbars=hbars, defects=np.array(vonneumann),
                    classical_ref=product.sup_norm(), notes=notes,
                    warnings=tagged_warnings(seen_vonneumann)),
        _norm_limit_report(f, hbars, norms, notes, seen_norm),
    ]
    if clipped.count >= 2:
        reports.append(_norm_continuity_report(f, hbars, norms, notes, seen_norm))
    reports.extend(_star_reports(hbars, star, product, bracket, notes, seen_star))
    return reports


def check_dirac(f: SampledFunction, g: SampledFunction, schedule: HbarSchedule) -> AxiomReport:
    """Defect of Dirac's condition, Q({f,g}) vs [Q(f), Q(g)]_hbar.

    The first report of :func:`axiom_sweep`, which runs the whole pass.
    """
    return axiom_sweep(f, g, schedule)[0]


def check_vonneumann(f: SampledFunction, g: SampledFunction, schedule: HbarSchedule) -> AxiomReport:
    """Defect of the von Neumann condition, Q(fg) vs the Jordan product.

    The second report of :func:`axiom_sweep`, which runs the whole pass.
    """
    return axiom_sweep(f, g, schedule)[1]


def _norms(f: SampledFunction, qgrid, hbars, seen: dict) -> list:
    norms = []
    for hbar in hbars:
        kernel = weyl_kernel(f, hbar, qgrid)
        record_warnings(seen, hbar, kernel)
        norms.append(op_norm(kernel))
    return norms


def check_norm_limit(f: SampledFunction, schedule: HbarSchedule) -> AxiomReport:
    """Defect of the norm limit ||Q(f)|| -> sup|f|."""
    qgrid, clipped, notes = _clip_schedule(f, schedule)
    seen = {}
    norms = _norms(f, qgrid, clipped.values, seen)
    return _norm_limit_report(f, clipped.values, norms, notes, seen)


def check_norm_continuity(f: SampledFunction, schedule: HbarSchedule) -> AxiomReport:
    """Gaps of ||Q(f)|| between successive scheduled hbar values."""
    qgrid, clipped, notes = _clip_schedule(f, schedule)
    if clipped.count < 2:
        raise ValueError("norm continuity needs at least two scheduled values")
    seen = {}
    norms = _norms(f, qgrid, clipped.values, seen)
    return _norm_continuity_report(f, clipped.values, norms, notes, seen)


def check_star_limits(f: SampledFunction, g: SampledFunction, schedule: HbarSchedule):
    """Star-product limits: returns (product report, bracket report).

    The product report tracks sup|f * g - fg|; the bracket report tracks
    sup|(f * g - g * f)/(i hbar) - {f, g}|.
    """
    _require_fields(f, g)
    qgrid, clipped, notes = _clip_schedule(f, schedule)
    product, bracket = _classical(f, g)
    seen, star = {}, []
    for hbar in clipped.values:
        ka = weyl_kernel(f, hbar, qgrid)
        kb = weyl_kernel(g, hbar, qgrid)
        star.append(_star_step(compose(ka, kb), compose(kb, ka), product, bracket, seen))
    return _star_reports(clipped.values, star, product, bracket, notes, seen)
