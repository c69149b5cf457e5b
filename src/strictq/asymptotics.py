"""Executable checks of the strict-quantization axioms over hbar schedules.

All axiom reports for a pair of real observables f, g come from one
shared quantization pass, :func:`axiom_sweep`.  At each scheduled hbar
the pass builds the Weyl kernels Q(f), Q(g), Q({f, g}) and Q(fg) and the
operator product AB = Q(f)Q(g), each exactly once.  Real observables
quantize to self-adjoint operators, Q(f)* = Q(f) (kernels of real
symbols are exactly Hermitian by construction), so the reversed product
is the adjoint, BA = Q(g)Q(f) = (AB)*, and its Weyl symbol is the
complex conjugate, g * f = conj(f * g).  Every report draws its defect
from AB, and each report is named by one label, its ``axiom``:

* ``dirac``: operator norm of Q({f, g}) minus the quantum bracket
  (AB - AB*) / (i hbar);
* ``vonneumann``: operator norm of Q(fg) minus the Jordan product
  (AB + AB*) / 2;
* ``norm_limit``: |  ||Q(f)|| - sup|f|  |;
* ``norm_continuity``: gaps between the same norms ||Q(f)|| at
  successive scheduled hbar values.  The report is omitted when the
  clipped schedule has fewer than two entries;
* ``star_product``: sup norm of f * g - fg, where f * g is the
  dequantization of AB;
* ``star_bracket``: sup norm of the rescaled star commutator minus the
  Poisson bracket, where the commutator
  (f * g - g * f) / (i hbar) = 2 Im(f * g) / hbar is exactly real.

Memory.  f, g, fg and {f, g} are real, so their samples are float64
(:func:`strictq.core.sample`).  Q({f, g}) and Q(fg) are built one at a
time and released, as are Q(f) and Q(g), before AB is dequantized, so AB
is the only product the pass keeps across the steps of one hbar.  Each
defect is formed in one n x n buffer beside AB and its kernel: AB*, then
the bracket or the Jordan product, then the difference.  A step peaks in
the dequantization of AB, which holds, besides AB and the four samples,
the symbol f * g, the (n, 2n + 1) coefficient table of the chart and the
lanes' workspaces.  Observables whose Q(f) or Q(g) is
not exactly Hermitian (non-real symbols) are refused with a
``ValueError``; :func:`jordan` and :func:`quantum_bracket` stay generic
and compose both orders.

:func:`check_dirac` and :func:`check_vonneumann` are views of one report
of the pass.  :func:`check_star_limits` runs the pass's star step on its
own Q(f)Q(g), and :func:`check_norm_limit` and
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

from dataclasses import dataclass, field, replace

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
    adjoint,
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
    "clip_schedule",
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
    notes: tuple = field(default_factory=lambda: (_LIMIT_NOTE,))
    warnings: tuple = ()

    def __post_init__(self):
        if len(self.hbars) != len(self.defects):
            raise ValueError("hbars and defects must have equal length")
        if np.any(np.diff(self.hbars) >= 0):
            raise ValueError("hbars must be strictly decreasing")
        if np.any(np.asarray(self.defects) < 0):
            raise ValueError("defects must be nonnegative")

    def passes(self) -> bool:
        scale = self.classical_ref if self.classical_ref > 0 else 1.0
        return bool(self.defects[-1] <= PASS_FRACTION * scale)


def _jordan_of(ab: OperatorKernel, ba: OperatorKernel) -> OperatorKernel:
    """(AB + BA)/2, written into the matrix of ``ba``."""
    m = ba.matrix
    return replace(ab, matrix=np.multiply(0.5, np.add(ab.matrix, m, out=m), out=m))


def _bracket_of(ab: OperatorKernel, ba: OperatorKernel, hbar: float) -> OperatorKernel:
    """(AB - BA)/(i hbar), written into the matrix of ``ba``."""
    m = ba.matrix
    return replace(ab, matrix=np.divide(np.subtract(ab.matrix, m, out=m), 1j * hbar, out=m))


def jordan(a: OperatorKernel, b: OperatorKernel) -> OperatorKernel:
    """Symmetrized product (AB + BA)/2."""
    return _jordan_of(compose(a, b), compose(b, a))


def quantum_bracket(a: OperatorKernel, b: OperatorKernel, hbar: float) -> OperatorKernel:
    """Quantum Lie bracket (AB - BA)/(i hbar)."""
    return _bracket_of(compose(a, b), compose(b, a), hbar)


def _defect(exact: OperatorKernel, approx: OperatorKernel) -> float:
    """Operator norm of ``exact - approx``, written into the matrix of ``approx``."""
    m = approx.matrix
    return op_norm(OperatorKernel(
        grid=exact.grid, matrix=np.subtract(exact.matrix, m, out=m), hbar=exact.hbar))


def clip_schedule(f: SampledFunction, schedule: HbarSchedule, *notes: str):
    """The schedule without the entries that the aliasing guard of ``weyl_kernel``
    rejects on f's grids, and ``notes`` with one more if any were dropped."""
    floor = hbar_floor(f.grid.qaxis, f.grid.paxis)
    clipped = schedule.clipped(floor)
    if clipped.count < schedule.count:
        notes += (f"schedule clipped from {schedule.count} to {clipped.count} entries "
                  f"by the aliasing guard (hbar_min = {floor:g})",)
    return clipped, notes


def _require_fields(*fs: SampledFunction):
    for f in fs:
        if not isinstance(f.symbol, SymbolField):
            raise TypeError(
                "axiom checks need SymbolField oracles (products and brackets "
                "must be evaluable at kernel midpoints)"
            )


def _quantize_real(f: SampledFunction, g: SampledFunction, hbar: float):
    """Q(f) and Q(g) at hbar, refusing either unless it is exactly Hermitian."""
    kernels = weyl_kernel(f, hbar, f.grid.qaxis), weyl_kernel(g, hbar, f.grid.qaxis)
    for name, kernel in zip("fg", kernels):
        if not np.array_equal(kernel.matrix, kernel.matrix.conj().T):
            raise ValueError(
                f"Q({name}) at hbar={hbar:g} is not exactly Hermitian: the axiom pass "
                f"takes Q(g)Q(f) as (Q(f)Q(g))* and needs a real observable {name}"
            )
    return kernels


def _classical(f: SampledFunction, g: SampledFunction):
    """The classical limits fg and {f, g}, sampled on f's grid."""
    return (sample(f.symbol * g.symbol, f.grid),
            sample(poisson_field(f.symbol, g.symbol), f.grid))


def _star_step(ab: OperatorKernel, product: SampledFunction, bracket: SampledFunction,
               seen: dict):
    """Star-limit defects at one hbar from the product AB = Q(f)Q(g) of real f, g.

    g * f = conj(f * g), so the star commutator (f * g - g * f)/(i hbar)
    is 2 Im(f * g)/hbar.
    """
    hbar = ab.hbar
    fg = dequantize(ab, product.grid)
    record_warnings(seen, hbar, fg)
    comm = 2.0 * fg.values.imag / hbar
    return (float(np.max(np.abs(fg.values - product.values))),
            float(np.max(np.abs(comm - bracket.values))))


def _report(axiom, hbars, defects, classical_ref, notes, seen) -> AxiomReport:
    return AxiomReport(axiom=axiom, hbars=hbars, defects=np.array(defects),
                       classical_ref=classical_ref, notes=notes,
                       warnings=tagged_warnings(seen))


def _star_reports(hbars, defects, product, bracket, notes, seen):
    prod_defects, br_defects = zip(*defects)
    return (_report("star_product", hbars, prod_defects, product.sup_norm(), notes, seen),
            _report("star_bracket", hbars, br_defects, bracket.sup_norm(), notes, seen))


def _norm_reports(f, hbars, norms, notes, seen) -> list:
    """``[norm_limit, norm_continuity]``, without continuity for a single hbar."""
    ref = f.sup_norm()
    reports = [_report("norm_limit", hbars, [abs(norm - ref) for norm in norms], ref,
                       notes, seen)]
    if len(hbars) >= 2:
        reports.append(_report("norm_continuity", hbars[:-1], np.abs(np.diff(norms)), ref,
                               notes, seen))
    return reports


def axiom_sweep(f: SampledFunction, g: SampledFunction, schedule: HbarSchedule) -> list:
    """Every axiom report of (f, g) from one quantization pass per clipped hbar.

    f and g must be real observables: Q(g)Q(f) is taken as the adjoint of
    Q(f)Q(g), so a Q(f) or Q(g) that is not exactly Hermitian raises
    ``ValueError``.  Returns the reports ``[dirac, vonneumann, norm_limit,
    norm_continuity, star_product, star_bracket]``, without ``norm_continuity``
    when the clipped schedule has fewer than two entries.
    """
    _require_fields(f, g)
    qgrid = f.grid.qaxis
    clipped, notes = clip_schedule(f, schedule, _LIMIT_NOTE)
    product, bracket = _classical(f, g)
    dirac, vonneumann, norms, star = [], [], [], []
    seen_dirac, seen_vonneumann, seen_norm, seen_star = {}, {}, {}, {}
    for hbar in clipped.values:
        ka, kb = _quantize_real(f, g, hbar)
        record_warnings(seen_norm, hbar, ka)
        norms.append(op_norm(ka))
        ab = compose(ka, kb)
        del ka, kb
        kbr = weyl_kernel(bracket, hbar, qgrid)
        record_warnings(seen_dirac, hbar, ab, kbr)
        dirac.append(_defect(kbr, _bracket_of(ab, adjoint(ab), hbar)))
        del kbr
        kpr = weyl_kernel(product, hbar, qgrid)
        record_warnings(seen_vonneumann, hbar, ab, kpr)
        vonneumann.append(_defect(kpr, _jordan_of(ab, adjoint(ab))))
        del kpr
        star.append(_star_step(ab, product, bracket, seen_star))

    hbars = clipped.values
    return [
        _report("dirac", hbars, dirac, bracket.sup_norm(), notes, seen_dirac),
        _report("vonneumann", hbars, vonneumann, product.sup_norm(), notes, seen_vonneumann),
        *_norm_reports(f, hbars, norms, notes, seen_norm),
        *_star_reports(hbars, star, product, bracket, notes, seen_star),
    ]


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


def _norm_check(f: SampledFunction, schedule: HbarSchedule) -> list:
    """The norm reports of f alone, from one Q(f) per clipped hbar."""
    clipped, notes = clip_schedule(f, schedule, _LIMIT_NOTE)
    seen, norms = {}, []
    for hbar in clipped.values:
        kernel = weyl_kernel(f, hbar, f.grid.qaxis)
        record_warnings(seen, hbar, kernel)
        norms.append(op_norm(kernel))
    return _norm_reports(f, clipped.values, norms, notes, seen)


def check_norm_limit(f: SampledFunction, schedule: HbarSchedule) -> AxiomReport:
    """Defect of the norm limit ||Q(f)|| -> sup|f|."""
    return _norm_check(f, schedule)[0]


def check_norm_continuity(f: SampledFunction, schedule: HbarSchedule) -> AxiomReport:
    """Gaps of ||Q(f)|| between successive scheduled hbar values."""
    reports = _norm_check(f, schedule)
    if len(reports) < 2:
        raise ValueError("norm continuity needs at least two scheduled values")
    return reports[1]


def check_star_limits(f: SampledFunction, g: SampledFunction, schedule: HbarSchedule):
    """Star-product limits: returns (product report, bracket report).

    The product report tracks sup|f * g - fg|; the bracket report tracks
    sup|(f * g - g * f)/(i hbar) - {f, g}|.  f and g must be real
    observables: g * f is taken as conj(f * g), so a Q(f) or Q(g) that is
    not exactly Hermitian raises ``ValueError``.
    """
    _require_fields(f, g)
    clipped, notes = clip_schedule(f, schedule, _LIMIT_NOTE)
    product, bracket = _classical(f, g)
    seen, star = {}, []
    for hbar in clipped.values:
        ka, kb = _quantize_real(f, g, hbar)
        star.append(_star_step(compose(ka, kb), product, bracket, seen))
    return _star_reports(clipped.values, star, product, bracket, notes, seen)
