"""
A zoo of target states on the exchange chain
============================================

The exchange-coupled chain of the `fig6` preset produces a sequence of
high concurrence peaks whose closest catalog states differ from peak to
peak: the tilde Bell states (relative phase +-i), a plain Phi-, and one
peak best described by the balanced combination (Phi- - i Psi-)/sqrt(2).
This prints every peak at or above 0.9 with its full fidelity profile.
"""

import numpy as np

from collisim import (
    bell_catalog,
    fidelity,
    pair_label,
    preset,
    reduced_pair,
    run_experiment,
)

result = run_experiment(preset("fig6"))
catalog = bell_catalog()

print(f"{len(result.peaks)} peaks at or above 0.9 over {result.config.steps} steps\n")
for peak in sorted(result.peaks, key=lambda p: p.n):
    state = reduced_pair(result.trajectory[peak.n], peak.pair, 3)
    profile = {t.label: fidelity(state, t.state) for t in catalog}
    ranked = sorted(profile.items(), key=lambda kv: -kv[1])[:3]
    shown = ", ".join(f"{lab}: {f:.3f}" for lab, f in ranked)
    print(
        f"n={peak.n:>3} C_{pair_label(peak.pair)}={peak.concurrence:.4f} -> "
        f"{peak.best_target:<9} top fidelities {shown}"
    )

# The n=78 AC peak is the interesting one: neither a plain nor a tilde
# Bell state alone describes it, but the balanced combination does.
odd = [p for p in result.peaks if abs(p.n - 78) <= 1 and pair_label(p.pair) == "AC"]
if odd:
    state = reduced_pair(result.trajectory[odd[0].n], odd[0].pair, 3)
    amp = np.linalg.eigh(state)[1][:, -1]
    amp = amp * np.exp(-1j * np.angle(amp[0]))
    print("\ndominant eigenvector of the n=78 AC state (global phase fixed):")
    print(np.round(amp, 3))
