"""Max-SINR pair selection over both hops, with re-selection.

Builds the per-slot SINR table for the three fixed relay pairs and
walks its ranking, the order in which the protocol tries the entries
when buffers block the best ones.  Some entry is always feasible: the
oldest buffered packet's pair can transmit, and an empty bank lets
every pair receive.
"""
import numpy as np

from plnc_sim import (PairMode, ReceiverKind, SystemConfig, build_sinr_table,
                      candidate_pairs, generate_codebook, select_best)
from plnc_sim.network_coding import make_group_assignments
from plnc_sim.receivers import code_coordinates
from plnc_sim.signal_model import draw_channels

cfg = SystemConfig(snr_db=10.0, rng_seed=6)
codes = generate_codebook(cfg)
_, group_relays = make_group_assignments(cfg, np.random.default_rng([6, 0x6E0]))

# one slot's link gains; the table reads them and the codes' K x K Gram
# (through the codes' coordinates in a basis of their span) alone
gains = draw_channels(cfg, np.random.default_rng(7), 1)[0]
cands = candidate_pairs(group_relays, cfg.num_relays, cfg.group_size,
                        PairMode.FIXED_GROUPS)
table = build_sinr_table(gains, code_coordinates(codes), cfg.noise_var,
                         ReceiverKind.MMSE, cands)

hops = ("source_relay", "relay_dest")     # table columns
print("SINR table for this slot:")
for pid, (relays, row) in enumerate(zip(cands, table)):   # pair id = index
    for hop, sinr in zip(hops, row):
        print(f"  pair {pid} relays {relays} {hop:12s} SINR {sinr:8.3f}")

print("\nranked walk (the slot takes the first entry its buffers allow):")
for rank, (row, col) in enumerate(select_best(table)):
    print(f"  {rank}: pair {row} {hops[col]} ({table[row, col]:.3f})")
