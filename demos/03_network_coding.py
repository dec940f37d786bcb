"""Network coding end to end on paper: encode, corrupt, decode.

Shows the XOR mapping, a linear combination with a binary matrix, the
encoder table, the three matrix designs, and both destination decoders.
An encoder is a row of the table: the designs return rows, and the
encoder and the decoders take them.
"""
import numpy as np

from plnc_sim import (bit_to_symbol, decode_joint, decode_with_direct,
                      design_G_mmse, design_G_random, detect_ncs, encode_ncs,
                      encoder_table, select_G_mmse, symbol_to_bit, xor_decode,
                      xor_encode)
from plnc_sim.network_coding import design_G_ml_for_channel
from plnc_sim.signal_model import complex_gaussian

rng = np.random.default_rng(5)

print("== XOR mapping ==")
bits = np.array([1, 0])
# both relays detect the bits; XOR of bits is the product of +-1 symbols
ncs = xor_encode(np.broadcast_to(bit_to_symbol(bits)[:, None], (2, 2, 1)))
print(f"relay bits {bits} -> xor symbols {ncs[:, 0]}")
direct = bit_to_symbol(bits)[:, None]          # the destination's direct estimates
recovered = xor_decode(ncs[0], direct)
print(f"destination recovers the user bits {symbol_to_bit(recovered[:, 0])}")

print("\n== the encoder table ==")
table = encoder_table(2)
print(f"{len(table.G)} invertible binary 2x2 matrices out of 16")
pattern = 0b1110                                # G = [[1, 1], [1, 0]], row-major bits
row = table.row[pattern]
G = table.G[row]
print(f"bit pattern {pattern:04b} is row {row}:\n{G}")
print(f"(G^T)^-1:\n{table.unmix[row]}")
print(f"NCS levels per relay (columns):\n{table.levels[row].T}")
print(f"first carrying relay per user: {table.carrier[row]}")

print("\n== linear combination ==")
b = np.array([1.0, -1.0])
ncs = encode_ncs(row, np.broadcast_to(b[:, None], (2, 2, 1)))[:, 0]  # both relays detect b
print(f"user symbols {b}, matrix columns give [{ncs[0]:+.0f}, {ncs[1]:+.0f}]")
z = (G.T @ b[:, None]).astype(complex)      # the decoders take (m, P) columns
print(f"joint decode ((G^T)^-1 on the outputs) recovers "
      f"{decode_joint(row, z, np.ones(2))[:, 0]}")
est = detect_ncs(row, z, np.ones(2))
print(f"direct-aided (each user cancels the others' direct estimates) recovers "
      f"{decode_with_direct(row, est, b[:, None])[:, 0]}")

print("\n== the three designs ==")

sigma2 = 0.1
h = complex_gaussian(rng, (2, 16))
w = h / (sigma2 + np.sum(np.abs(h) ** 2, axis=1))[:, None]
# every design works from the per-stream gains w^H h and noise powers
gains = np.sum(w.conj() * h, axis=1)
noise_var = sigma2 * np.sum(np.abs(w) ** 2, axis=1)

r_rand = design_G_random(2, rng, 1)[0]
print(f"random draw, row {r_rand}:\n{table.G[r_rand]}")

# each row's recovery error depends only on the calibration noise
r_ml, costs = design_G_ml_for_channel(gains, noise_var, 100, rng)
print(f"exhaustive search on a 100-symbol calibration block, row {r_ml}:\n"
      f"{table.G[r_ml]}")
print(f"calibration cost per row: {costs.round(3)}")

flips = np.array([[0.2, 1e-3], [1e-3, 1e-3]])   # user 0 badly detected at relay 0
r_mmse, scores = select_G_mmse(gains, noise_var, flip_probs=flips)
print(f"statistics-based pick (knows relay 0 misdetects user 0), row {r_mmse}:\n"
      f"{table.G[r_mmse]}")
print(f"predicted chain error per row: {scores.round(4)}")

dec, fallback = design_G_mmse(r_mmse, gains, noise_var)
print(f"closed-form decode refinement matrix (fallback {fallback}):\n{dec.round(3)}")
