"""strictq: a numerical and symbolic laboratory for strict deformation quantization.

The package provides desk-scale, fully deterministic implementations of

* phase-space grids, fiber Fourier transforms and the canonical Poisson
  bracket (:mod:`strictq.core`);
* the Weyl-Moyal quantization map, its kernel calculus and the induced
  star product (:mod:`strictq.weyl`);
* closed-form Gaussian quantization and its positivity threshold
  (:mod:`strictq.gaussian`);
* asymptotic checks of the strict-quantization axioms over hbar
  schedules (:mod:`strictq.asymptotics`);
* the universal rotation algebra A_theta and its finite-dimensional
  representations (:mod:`strictq.rotation`); classical torus observables
  are its theta = 0 elements, and the fuzzy-torus map Q_N is the
  symmetrized map from them into the theta = K/N representation;
* the exact symbolic prequantization operator on the torus
  (:mod:`strictq.prequant`);
* semidirect-product groupoid convolution and the tangent-groupoid
  boundary continuity check (:mod:`strictq.groupoid`);
* one-dimensional Riemannian quantization via geodesic midpoint charts
  (:mod:`strictq.landsman`).

Reports produced by the command line front end embed :data:`CONVENTIONS`,
the record of normalization choices that were fixed empirically (each is
validated by the test suite against an independent quadrature or
symbolic oracle).
"""

__version__ = "0.1.0"

#: Normalization conventions resolved against independent oracles.
CONVENTIONS = {
    # Expectation value of a quantized Gaussian in the probe family psi_sigma:
    # (2 beta / pi hbar^2)**gaussian_prefactor_exponent * 2 pi * Theta
    # / D**gaussian_det_power, validated against double quadrature.
    "gaussian_prefactor_exponent": 0.5,
    "gaussian_det_power": 1.5,
    # Torus units: Planck constant h = 1, hbar = 1/(2 pi); the area-N torus
    # bracket carries 1/N.  Closes both the symbolic Dirac identity and the
    # fuzzy-torus defect formula exactly.
    "torus_hbar": 1.0 / (2.0 * 3.141592653589793),
    "torus_bracket_scale": "1/N",
    # Tangent-groupoid boundary check compares hbar * K(q + hbar v/2,
    # q - hbar v/2) against the fiber transform, absorbing the 1/hbar
    # prefactor of the quantization map; the raw sequence is also reported.
    "tangent_boundary_factor": "hbar",
    # The interpolant that reads kernels off grid (dequantize, boundary check)
    # takes an even-n Nyquist row or column at w = -n/2 and +n/2, half each,
    # as core.trig_shift does; the corner takes four readings of 1/4.
    "even_n_nyquist": "cosine split on both axes",
}
