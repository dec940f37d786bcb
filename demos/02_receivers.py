"""RAKE versus linear MMSE at a loaded relay.

Detects one user's packet at a relay observing all six users, first
with the matched filter and then with the interference-aware MMSE
filter, and compares output SINR and bit errors.
"""
import numpy as np

from plnc_sim import (ReceiverKind, SystemConfig, draw_channel,
                      generate_codebook, hard_decision,
                      synthesize_first_phase)
from plnc_sim.receivers import source_relay_filter_bank

cfg = SystemConfig(snr_db=8.0, rng_seed=3)
codes = generate_codebook(cfg)
rng = np.random.default_rng(4)
state = draw_channel(cfg, codes, rng)

P = 20_000
symbols = np.where(rng.standard_normal((cfg.num_users, P)) >= 0, 1.0, -1.0)
_, (y,) = synthesize_first_phase(symbols, state, cfg.noise_var, rng, relays=[0])

for kind in (ReceiverKind.RAKE, ReceiverKind.MMSE):
    W = source_relay_filter_bank(state, cfg.noise_var, kind)
    w = W[0, 0]
    soft = np.conj(w) @ y
    errors = int(np.sum(hard_decision(soft) != symbols[0]))
    gains = np.abs(state.h_eff_sr[:, 0, :].conj() @ w) ** 2
    sinr = gains[0] / (gains[1:].sum() + cfg.noise_var * np.vdot(w, w).real)
    print(f"{kind.value:4s}: output SINR {10 * np.log10(sinr):5.2f} dB, "
          f"bit errors {errors}/{P} (ber {errors / P:.4f})")

print("the MMSE filter trades a little noise enhancement for multiuser")
print("interference suppression, which dominates at this load")
