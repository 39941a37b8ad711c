"""Why the *distinguished* root matters, on an exact characteristic function.

The cf of a Gamma(6, 3) variable is (1 - iu/3)^-6.  Its argument runs far
past -pi as u grows, so the principal-branch 6th root (np.power) jumps to a
wrong branch once the argument wraps.  The distinguished root follows the
continuous logarithm and lands exactly on the Gamma(1, 3) cf, which is what
a 6-fold convolution identity demands.
"""
import numpy as np

from groupdeconv import CfEvaluation, Gamma, UGrid, distinguished_root

law = Gamma(6.0, 3.0)          # cf of Y = X_1 + ... + X_6 with X ~ Gamma(1, 3)
target = Gamma(1.0, 3.0)       # what the 6th root must recover

grid = UGrid(u_max=8.0, step=1e-3)
cf = CfEvaluation.from_function(law.cf, law.cf_prime, grid, group_size=6.0)
root = distinguished_root(cf, 8.0)

u = grid.points
principal = law.cf(u) ** (1.0 / 6.0)   # naive branch choice
exact = target.cf(u)

err_distinguished = np.abs(root.values() - exact).max()
err_principal = np.abs(principal - exact).max()

print(f"max |distinguished root - Gamma(1,3) cf| = {err_distinguished:.2e}")
print(f"max |principal-branch root - Gamma(1,3) cf| = {err_principal:.2e}")

# locate where the principal branch first goes wrong
bad = np.flatnonzero(np.abs(principal - exact) > 1e-3)
if bad.size:
    print(f"principal branch diverges from u = {u[bad[0]]:.3f} "
          f"(argument of (1-iu/3)^-6 wraps past -pi there)")

# the phase the integral produced is the continuous one
print(f"root phase at u=8: {root.phase[-1]:.4f} rad "
      f"vs continuous arctan form {np.arctan(8.0 / 3.0):.4f} rad")
