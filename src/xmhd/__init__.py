"""Matrix-free exponential time integration for 2.5D resistive MHD.

The package bundles three layers:

* matrix-function machinery: the phi functions' divided differences and
  the dense exponential (:mod:`xmhd.phi`), their action
  on vectors via real Leja interpolation (:mod:`xmhd.leja`) and via
  Arnoldi/Krylov projection (:mod:`xmhd.krylov`), glued to the problem
  through finite-difference Jacobian actions and an Arnoldi (Ritz value)
  spectral estimate (:mod:`xmhd.linearize`);
* time integrators and step-size control: exponential Rosenbrock and EPIRK
  single-step schemes plus explicit embedded Runge-Kutta baselines
  (:mod:`xmhd.integrators`), with traditional and combined (cost-gradient,
  capped by traditional) controllers (:mod:`xmhd.controllers`);
* the application: a finite-difference resistive MHD right-hand side
  (:mod:`xmhd.mhd`), Kelvin-Helmholtz / magnetic-reconnection scenario
  presets (:mod:`xmhd.scenarios`) and a benchmark harness with CLI
  (:mod:`xmhd.harness`, :mod:`xmhd.cli`).
"""

from xmhd.leja import leja_points, shift_and_scale, apply_phi_leja
from xmhd.krylov import apply_phi_krylov
from xmhd.linearize import RhsOperator, FrozenLinearization, jvp, estimate_alpha
from xmhd.integrators import Scheme, step, error_norm
from xmhd.controllers import traditional_next, cost_next, accept
from xmhd.mhd import StateGrid, MHDParams, Boundary, RhsWorkspace, mhd_rhs, discrete_div_b, conserved_totals
from xmhd.scenarios import make_scenario, initialize
from xmhd.harness import RunConfig, run, make_reference, work_precision

__version__ = "0.1.0"
