"""Max-SINR pair selection over both hops, with re-selection.

Builds the per-slot SINR table for the three fixed relay pairs and
walks its ranking, the order in which the protocol would try the
entries when buffers block the best ones.
"""
import numpy as np

from plnc_sim import (Hop, PairMode, ReceiverKind, SystemConfig,
                      build_sinr_table, candidate_pairs, draw_channel,
                      generate_codebook, select_best)
from plnc_sim.network_coding import make_group_assignments
from plnc_sim.receivers import (relay_dest_filter_bank,
                                source_relay_filter_bank)

cfg = SystemConfig(snr_db=10.0, rng_seed=6)
book = generate_codebook(cfg)
groups = make_group_assignments(cfg, np.random.default_rng([6, 0x6E0]))
ids = np.zeros(cfg.num_relays, dtype=int)
for g, grp in enumerate(groups):
    for r in grp.relays:
        ids[r] = g

state = draw_channel(cfg, book, ids, np.random.default_rng(7))
sigma2 = cfg.noise_var
Wsr = source_relay_filter_bank(state, sigma2, ReceiverKind.MMSE)
Wrd = relay_dest_filter_bank(state, sigma2, ReceiverKind.MMSE)
cands = candidate_pairs(groups, cfg.num_relays, cfg.group_size,
                        PairMode.FIXED_GROUPS)
table = build_sinr_table(state, Wsr, Wrd, sigma2, cands)

hops = (Hop.SOURCE_RELAY.value, Hop.RELAY_DEST.value)     # table columns
print("SINR table for this slot:")
for (pid, relays), row in zip(cands, table):
    for hop, sinr in zip(hops, row):
        print(f"  pair {pid} relays {relays} {hop:12s} SINR {sinr:8.3f}")

print("\nranked walk (as if every entry were infeasible):")
for rank, (row, col) in enumerate(select_best(table)):
    print(f"  {rank}: pair {cands[row][0]} {hops[col]} ({table[row, col]:.3f})")
print("  -> exhausted: the slot would idle")
