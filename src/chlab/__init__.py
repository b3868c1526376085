"""chlab: a pseudospectral workbench for the Camassa-Holm equation.

The package turns three families of qualitative statements about the
nonlocal form u_t + u u_x + (G * F(u))_x = 0 into runnable checks:

* persistence of spatial decay, measured in weighted L^p norms against
  certified moderate weights;
* wave breaking forecast from the initial datum (decay rate, slope size,
  momentum sign pattern) and confirmed by the adaptive solver;
* large-|x| tail asymptotics u ~ u0 -/+ t e^{-|x|} (amplitude + residual).

Layering, bottom up: :mod:`chlab.field` (grid, transforms, Helmholtz
kernel), :mod:`chlab.weights` (moderate weights and their certificates),
:mod:`chlab.initial_data` (closed-form data), :mod:`chlab.solver`
(adaptive RK4 with breakdown detection), :mod:`chlab.diagnostics`
(persistence traces, breakdown predictors), :mod:`chlab.profiles`
(tail-amplitude extraction), then the harness: :mod:`chlab.config`,
:mod:`chlab.scenarios`, :mod:`chlab.runner`, :mod:`chlab.io`,
:mod:`chlab.cli`, and the executable claim suite :mod:`chlab.acceptance`.
"""

__version__ = "0.1.0"
