"""Walkthrough of the chip-rate signal model.

Builds the codebook and a fading realization for the default scenario,
then synthesizes both transmission phases at chip rate, checks the
received energy against the link budget, and shows that the second
phase's filter output depends on the relay-destination gains alone.
"""
import numpy as np

from plnc_sim import (SystemConfig, draw_channel, generate_codebook,
                      synthesize_first_phase, synthesize_second_phase)

cfg = SystemConfig(snr_db=10.0, rng_seed=1)
print(f"scenario: K={cfg.num_users} users, L={cfg.num_relays} relays, "
      f"N={cfg.spreading_gain} chips/symbol, sigma2={cfg.noise_var:.3f}")

codes = generate_codebook(cfg)
print(f"codebook: {codes.shape[0]} user codes, all unit norm "
      f"(max deviation {abs(np.linalg.norm(codes, axis=1) - 1).max():.1e})")

rng = np.random.default_rng(2)
state = draw_channel(cfg, codes, rng)
# unit-norm codes: an effective vector's norm is its link gain's modulus
print(f"fading draw: |h_sd| = "
      f"{np.linalg.norm(state.h_eff_sd, axis=-1).round(2)}")

# one packet of BPSK symbols for everyone
P = 2000
symbols = np.where(rng.standard_normal((cfg.num_users, P)) >= 0, 1.0, -1.0)
y_sd, y_sr = synthesize_first_phase(symbols, state, cfg.noise_var, rng,
                                    relays=[0, 1])
print(f"first phase: destination sees {y_sd.shape}, "
      f"relays 0/1 see {y_sr[0].shape}")

# received energy must match the sum of link gains (unit-norm codes)
measured = np.mean(np.sum(np.abs(y_sd) ** 2, axis=0))
expected = np.sum(np.abs(state.h_eff_sd) ** 2) + cfg.spreading_gain * cfg.noise_var
print(f"destination energy/symbol: measured {measured:.3f}, "
      f"budget {expected:.3f}")

# second phase: the pair's network-coded symbols ride one unit-norm code,
# so the code's matched filter leaves the scalar h_rd . b plus CN(0, sigma2)
code = codes[0]
ncs = np.where(rng.standard_normal((2, P)) >= 0, 1.0, -1.0)
y_rd = synthesize_second_phase(ncs, state, [0, 1], code, cfg.noise_var, rng)
residual = code @ y_rd - state.h_rd[[0, 1]] @ ncs
print(f"second phase: superposed pair transmission -> {y_rd.shape}; "
      f"filter output minus h_rd . b has variance {np.var(residual):.3f} "
      f"(sigma2 {cfg.noise_var:.3f})")
