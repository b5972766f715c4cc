#!/usr/bin/env python3
"""Cross-checking the closed forms against the finite-difference eigensolver.

The eigensolver shares no code with the closed-form ladder: it only sees
a sampled potential.  The demo calibrates it on two exactly solvable
problems, then compares both the energies and the wavefunctions of the
full model across the reference parameter sets.
"""

from laserplasma import (
    ModelParams,
    RadialGrid,
    overlap,
    solve_ground_state,
    taylor_coefficients,
    total_energy,
    veff_series_eval,
    wavefunction_eval,
)

GRID = RadialGrid(0.0, 20.0, 8000)
CAL = ModelParams(lambda_d=100.0)

print("Solver calibration on exactly solvable problems:")
res = solve_ground_state(lambda r: -2.0 / r, GRID, CAL)
print(f"  doubled Coulomb -2/r : E = {res.energy:+.9f}  (exact -2, "
      f"error estimate {res.error_estimate:.1e})")
res = solve_ground_state(lambda r: 0.5 * r * r, GRID, CAL)
print(f"  isotropic oscillator : E = {res.energy:+.9f}  (exact +1.5)")

print("\nModel potential, reference parameter sets:")
print(f"{'lambda_d':>9}{'F':>9}{'closed form':>14}{'eigensolver':>14}"
      f"{'|dE|':>10}{'overlap':>10}")
cases = [(100.0, f) for f in (0.0001, 0.001, 0.01, 0.04)]
cases += [(lam, 0.01) for lam in (5.0, 10.0, 40.0)]
for lam, f in cases:
    p = ModelParams(lambda_d=lam, alpha0=1e-4, field=f)
    coeffs = taylor_coefficients(p)
    result = solve_ground_state(lambda r: veff_series_eval(r, coeffs), GRID, p)
    ov = overlap(result, lambda r: wavefunction_eval(r, p))
    total = total_energy(p).total
    print(f"{lam:>9.0f}{f:>9.4f}{total:>14.7f}{result.energy:>14.7f}"
          f"{abs(total - result.energy):>10.1e}{ov:>10.6f}")

print("\nThe residual |dE| stays below 1e-4 across the table, and the wavefunction")
print("overlaps stay above 0.999.  Its cause depends on the screening.  At")
print("lambda_d = 5 it is the truncation of the correction ladder at third order:")
print("the total built on the consistent third order (e3_hierarchy) is off by")
print("1.35e-5, more than the printed 4.8e-6.  From lambda_d = 40 up it is the F^2")
print("error of the paper's Table-1 third order, which every printed energy uses:")
print("3.9e-5 at lambda_d = 100, F = 0.04, against 1.2e-7 for the hierarchy's.")
print("At lambda_d = 10 the two are comparable.  See README, 'Known limitations'.")
