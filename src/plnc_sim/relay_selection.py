"""Per-pair SINR metrics for both hops and their max-SINR ranking.  Both
hops' metrics read link gains alone: the first hop's with the codes'
K x K Gram, the second hop's from the relay-destination gains."""

from itertools import combinations

import numpy as np

from . import receivers as rx
from .config import PairMode


def candidate_pairs(group_relays, num_relays, group_size, mode: PairMode):
    """The candidate relay pairs as tuples of ints, a pair's id being its
    index: the rows of group_relays (make_group_assignments) by default,
    or every set of group_size relays, in lexicographic order, when
    free-form selection is enabled."""
    if mode == PairMode.FIXED_GROUPS:
        return [tuple(int(r) for r in row) for row in group_relays]
    return list(combinations(range(num_relays), group_size))


def build_sinr_table(channel, coords, sigma2, kind, candidates):
    """SINR metric of every (candidate pair, hop) as a (..., pairs, 2)
    array for link gains (signal_model.ChannelGains) whose arrays carry
    leading slot axes (...): row i for candidates[i], column 0
    source-relay, column 1 relay-destination.  coords are the codes'
    coordinates (rx.code_coordinates) and kind the receivers' kind, at
    the relays and the destination.

    First hop: the numerator sums the desired-link output powers
    |w^H h|^2 over every user at the pair's relays; the denominator sums
    the same quantity at all non-selected relays plus the noise
    enhancement sigma2 ||w||^2 of each selected filter, both read from
    the gains and the codes' coordinates (rx.source_relay_outputs).  The
    second hop mirrors this with |conj(f) h|^2 and sigma2 |f|^2 on the
    relay NCS streams, one scalar filter f per stream (a per-user sum
    would scale numerator and denominator alike, so it is dropped).
    """
    signal, energy = rx.source_relay_outputs(channel.h_sr, coords, sigma2, kind)
    filters_rd = rx.relay_dest_filter_bank(channel, sigma2, kind)
    gains_rd, _, colour_rd = rx.rank_one_outputs(filters_rd, channel.h_rd, sigma2)
    # per-relay sums, (..., L, 2): column 0 over the K users, column 1 the stream
    power = np.stack([(signal ** 2).sum(axis=-2), np.abs(gains_rd) ** 2], axis=-1)
    wnorm = np.stack([energy.sum(axis=-2), colour_rd ** 2], axis=-1)
    member = np.zeros((len(candidates), power.shape[-2]))
    for row, relays in enumerate(candidates):
        member[row, list(relays)] = 1.0
    # sums over selected / other relays by 0-1 weights: no cancellation
    return member @ power / ((1.0 - member) @ power + sigma2 * (member @ wnorm))


def select_best(table):
    """Every (row, column) entry of a build_sinr_table array as a list of
    int tuples, highest SINR first; a (slots, pairs, 2) table gives one
    such list per slot.

    The stable sort of the row-major table breaks ties to the lowest
    pair, then source-relay before relay-destination.
    """
    table = np.asarray(table)
    if not np.all(np.isfinite(table) & (table >= 0.0)):
        raise ValueError("SINR must be finite and >= 0")
    order = np.argsort(-table.reshape(table.shape[:-2] + (-1,)), axis=-1,
                       kind="stable")
    rows, columns = (a.tolist() for a in np.divmod(order, table.shape[-1]))
    if table.ndim == 2:
        return list(zip(rows, columns))
    return [list(zip(*entries)) for entries in zip(rows, columns)]
