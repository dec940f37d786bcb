"""Thirty slots of the buffer-aided protocol, traced.

Each line shows the action the max-SINR selection settled on after
feasibility re-selection, plus the buffer occupancies it left behind.
"""
import numpy as np

from plnc_sim import Scheme, SlotMachine, SystemConfig

cfg = SystemConfig(packet_length=200, snr_db=10.0, nc_design=Scheme.ML,
                   rng_seed=8)
machine = SlotMachine(cfg, np.random.default_rng(9))
for _ in range(30):
    machine.advance()      # pass 1: decide the slot
machine.settle()           # pass 2: the physics, which fills in the errors

replica = machine.replicas[0]   # the one run: its log, bank and counters
log = replica.log          # one record per slot, read by column
print("slot action    pair hop          sinr    occupancies  resel errs")
for slot, (transmit, pair_id, sinr, occupancy, resel, errs) in enumerate(zip(
        log["transmit"], log["pair_id"], log["sinr"], log["occupancy"],
        log["reselections"], log["bit_errors"][:, 0])):
    action, hop = ("transmit", "relay_dest") if transmit else ("receive", "source_relay")
    sinr = f"{sinr:7.2f}" if np.isfinite(sinr) else "      -"
    occ = "".join(str(x) for x in occupancy)
    print(f"{slot:4d} {action:8s} {pair_id:4d} {hop:12s} {sinr}"
          f"   {occ:>11s}  {resel:4d} {errs:4d}")

bits = log["decoded_bits"].sum()
ber = log["bit_errors"][:, 0].sum() / bits if bits else 0
print(f"\n{replica.transmit_slots} packets decoded in {replica.slot} slots, "
      f"running ber {ber:.4f}")
print("note how reception slots run ahead early (buffers filling) and the")
print("selection then alternates hops based on the per-slot SINR tables")
