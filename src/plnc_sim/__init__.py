"""Buffer-aided physical-layer network coding for cooperative uplink
DS-CDMA: signal model, receivers, coding-matrix designs, max-SINR relay
pair selection, the relay buffer protocol and a Monte-Carlo BER harness.
"""

from .config import DecoderKind, PairMode, ReceiverKind, Scheme, SystemConfig
from .signal_model import (complex_gaussian, draw_channel, generate_codebook,
                           synthesize_first_phase, synthesize_second_phase)
from .receivers import hard_decision, source_relay_filter_bank
from .network_coding import (decode_joint, decode_with_direct, design_G_mmse,
                             design_G_random, detect_ncs, encode_ncs,
                             encoder_table, select_G_mmse, symbol_to_bit,
                             xor_decode, xor_encode)
from .relay_selection import build_sinr_table, candidate_pairs, select_best
from .buffer_protocol import BufferBank, SlotMachine, decide_action
from .harness import (RunReport, emit_report, run_sweep, run_trial,
                      scheme_label, write_trace)

__version__ = "0.1.0"
