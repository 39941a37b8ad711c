"""How the data-driven spectral cutoff behaves.

Three empirical facts, each demonstrated on simulated grouped data:

* the cutoff grows with the sample size (the threshold shrinks like
  sqrt(log n / n), so more spectrum becomes trustworthy),
* the cutoff shrinks as the group size K grows (|phi_Y| = |phi_X|^K decays
  faster, so the threshold is crossed earlier),
* the selected cutoff tracks the frequency where the *exact* |phi_Y| meets
  the theoretical level, which is what the risk analysis says it should do.
"""
import numpy as np

from groupdeconv import (
    Laplace,
    adaptive_cutoff,
    cap_spread,
    diagnostic_threshold_u,
    generate_grouped,
    threshold_value,
)
from groupdeconv.bandwidth import diagnostic_level

law = Laplace(0.5, 1.0 / 3.0)

print("cutoff vs sample size (K = 5, median over 20 replications)")
for n in (500, 2000, 10000):
    vals = [
        adaptive_cutoff(cap_spread(generate_grouped(law, n, 5, seed=(1, n, r)))).value
        for r in range(20)
    ]
    t = threshold_value(n, 5.0, 1.1)
    print(f"  n={n:6d}: median m_hat = {np.median(vals):.3f}   threshold = {t:.4f}")

print("\ncutoff vs group size (n = 2000)")
for k in (5, 10, 20, 50):
    vals = [
        adaptive_cutoff(cap_spread(generate_grouped(law, 2000, k, seed=(2, k, r)))).value
        for r in range(20)
    ]
    print(f"  K={k:3d}: median m_hat = {np.median(vals):.3f}")

print("\nadaptive cutoff vs the theoretical crossing (n = 2000, K = 5)")
u_theory = diagnostic_threshold_u(law, 5.0, diagnostic_level(2000, 5.0)[1])
vals = [
    adaptive_cutoff(cap_spread(generate_grouped(law, 2000, 5, seed=(3, r)))).value
    for r in range(20)
]
print(f"  theoretical u at the (gamma, eps) level: {u_theory:.3f}")
print(f"  median adaptive cutoff:                  {np.median(vals):.3f}")

print("\nsensitivity to eta (one sample, n = 2000, K = 5)")
ecf = cap_spread(generate_grouped(law, 2000, 5, seed=99))  # spread once, scan per eta
for eta in (1.05, 1.1, 1.5, 2.5):
    print(f"  eta={eta:4.2f}: m_hat = {adaptive_cutoff(ecf, eta=eta).value:.3f}")
