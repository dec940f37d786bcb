"""SINR metrics and max-SINR pair selection."""

from itertools import combinations

import numpy as np
import pytest

from plnc_sim import (PairMode, ReceiverKind, SystemConfig, build_sinr_table,
                      candidate_pairs, draw_channel, generate_codebook,
                      select_best)
from plnc_sim.network_coding import make_group_assignments
from plnc_sim.receivers import (relay_dest_filter_bank,
                                source_relay_filter_bank)
from plnc_sim.signal_model import complex_gaussian, draw_channels


def scenario(snr_db=10.0, seed=0, **kw):
    defaults = dict(num_users=4, num_relays=4, spreading_gain=8,
                    buffer_size=2, group_size=2, snr_db=snr_db, rng_seed=seed)
    defaults.update(kw)
    cfg = SystemConfig(**defaults)
    book = generate_codebook(cfg)
    _, groups = make_group_assignments(cfg, np.random.default_rng([seed, 0x6E0]))
    state = draw_channel(cfg, book, np.random.default_rng(seed + 1))
    return cfg, book, groups, state


def pair_sinr(pair, state, Wsr, Wrd, sigma2):
    """(source-relay, relay-destination) metric of one relay pair, read
    from its row of the array table."""
    return build_sinr_table(state, Wsr, Wrd, sigma2, [tuple(pair)])[0]


# one hop's column; the other hop's filters do not enter it
def sinr_source_relay(pair, state, Wsr, sigma2):
    Wrd = relay_dest_filter_bank(state, sigma2, ReceiverKind.RAKE)
    return pair_sinr(pair, state, Wsr, Wrd, sigma2)[0]


def sinr_relay_destination(pair, state, Wrd, sigma2):
    Wsr = source_relay_filter_bank(state, sigma2, ReceiverKind.RAKE)
    return pair_sinr(pair, state, Wsr, Wrd, sigma2)[1]


class TestSinrFormulas:
    def test_single_user_single_relay_reduction(self):
        # K = 1, L = m = 1, RAKE: the metric collapses to ||h||^2/sigma2
        cfg, _, _, state = scenario(num_users=1, num_relays=1, group_size=1)
        sigma2 = cfg.noise_var
        W = source_relay_filter_bank(state, sigma2, ReceiverKind.RAKE)
        got = sinr_source_relay((0,), state, W, sigma2)
        expected = np.sum(np.abs(state.h_eff_sr[0, 0]) ** 2) / sigma2
        assert abs(got - expected) < 1e-9 * expected

    def test_single_relay_destination_reduction(self):
        cfg, _, _, state = scenario(num_users=1, num_relays=1, group_size=1)
        sigma2 = cfg.noise_var
        W = relay_dest_filter_bank(state, sigma2, ReceiverKind.RAKE)
        got = sinr_relay_destination((0,), state, W, sigma2)
        expected = np.abs(state.h_rd[0]) ** 2 / sigma2
        assert abs(got - expected) < 1e-9 * expected

    def test_monotone_in_noise(self):
        cfg, _, _, state = scenario()
        W = source_relay_filter_bank(state, 0.1, ReceiverKind.RAKE)
        low = sinr_source_relay((0, 1), state, W, 0.1)
        high = sinr_source_relay((0, 1), state, W, 0.2)
        assert high < low

    def test_stronger_pair_wins_second_hop(self):
        cfg, _, _, state = scenario()
        sigma2 = cfg.noise_var
        state.h_rd[2] = 3.0 * state.h_rd[0]
        state.h_rd[3] = 3.0 * state.h_rd[1]
        W = relay_dest_filter_bank(state, sigma2, ReceiverKind.RAKE)
        weak = sinr_relay_destination((0, 1), state, W, sigma2)
        strong = sinr_relay_destination((2, 3), state, W, sigma2)
        assert strong > weak

    @pytest.mark.parametrize("kind", [ReceiverKind.RAKE, ReceiverKind.MMSE])
    def test_stronger_pair_ranks_higher_under_both_receivers(self, kind):
        # the metric is a ranking statistic: a uniformly stronger pair
        # must rank above a weaker one for either receiver type.  (The
        # metric's absolute level is receiver-dependent because the
        # denominator aggregates terms across filters, so no dominance
        # between receiver kinds is asserted here; the per-filter
        # output-SINR dominance lives in the receiver tests.)
        cfg, _, _, state = scenario(seed=8)
        sigma2 = cfg.noise_var
        state.h_eff_sr[:, 2, :] = 3.0 * state.h_eff_sr[:, 0, :]
        state.h_eff_sr[:, 3, :] = 3.0 * state.h_eff_sr[:, 1, :]
        W = source_relay_filter_bank(state, sigma2, kind)
        weak = sinr_source_relay((0, 1), state, W, sigma2)
        strong = sinr_source_relay((2, 3), state, W, sigma2)
        assert strong > weak

    @pytest.mark.parametrize("kind", [ReceiverKind.RAKE, ReceiverKind.MMSE])
    def test_empirical_oracle_small(self, kind):
        # sample-average estimate of each constituent term (desk scale;
        # the acceptance suite runs the 1e5-symbol version)
        cfg, _, _, state = scenario(seed=3)
        sigma2 = cfg.noise_var
        W = source_relay_filter_bank(state, sigma2, kind)
        analytic = sinr_source_relay((0, 1), state, W, sigma2)
        empirical = empirical_sinr_source_relay((0, 1), state, W, sigma2,
                                                np.random.default_rng(4), 20000)
        assert abs(analytic - empirical) < 0.05 * analytic


def empirical_sinr_source_relay(pair, state, W, sigma2, rng, T):
    """Independent oracle: estimate every term of the first-hop metric
    by sample averages of synthesized filter outputs."""
    K, L, _ = state.h_eff_sr.shape
    num = interference = noise_power = 0.0
    for l in range(L):
        noise = complex_gaussian(rng, (T, W.shape[2]), sigma2)
        for k in range(K):
            w = W[k, l]
            b = np.where(rng.standard_normal(T) >= 0, 1.0, -1.0)
            outputs = (np.conj(w) @ state.h_eff_sr[k, l]) * b
            power = np.mean(np.abs(outputs) ** 2)
            if l in pair:
                num += power
                noise_power += np.mean(np.abs(noise @ np.conj(w)) ** 2)
            else:
                interference += power
    return num / (interference + noise_power)


class TestZeroRelayGain:
    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_table_reads_silent_relays_as_streams_of_no_power(self, kind):
        # relays 0 and 1 have no path to the destination: the table stays
        # finite, the first hop is unchanged, and each pair's second hop
        # counts its live relays against the other live ones
        cfg, _, _, state = scenario(num_relays=6)
        sigma2 = cfg.noise_var
        candidates = list(combinations(range(6), 2))
        Wsr = source_relay_filter_bank(state, sigma2, kind)
        before = build_sinr_table(state, Wsr, relay_dest_filter_bank(
            state, sigma2, kind), sigma2, candidates)
        state.h_rd[:2] = 0.0
        Wrd = relay_dest_filter_bank(state, sigma2, kind)
        table = build_sinr_table(state, Wsr, Wrd, sigma2, candidates)
        assert np.all(np.isfinite(table) & (table >= 0.0))
        assert np.array_equal(table[:, 0], before[:, 0])
        power = np.abs(Wrd.conj() * state.h_rd) ** 2
        for row, pair in enumerate(candidates):
            live = [r for r in pair if r > 1]
            others = [r for r in range(2, 6) if r not in pair]
            expected = power[live].sum() / (power[others].sum()
                                            + sigma2 * np.sum(np.abs(Wrd[live]) ** 2))
            assert table[row, 1] == pytest.approx(expected, rel=1e-12, abs=0)
        assert table[candidates.index((0, 1)), 1] == 0.0


class TestSelection:
    def test_single_entry(self):
        assert select_best(np.array([[3.0, 0.0]]))[0] == (0, 0)

    def test_exclusion_picks_second_highest(self):
        # an infeasible winner falls through to the next entry
        table = np.array([[3.0, 0.0], [0.0, 5.0]])
        assert select_best(table)[:2] == [(1, 1), (0, 0)]

    def test_exhaustion_returns_none(self):
        # the ranking ends after every entry once: nothing is left to pick
        table = np.array([[3.0, 1.0]])
        assert select_best(table) == [(0, 0), (0, 1)]

    def test_tie_breaks_lowest_pair_then_first_hop(self):
        assert select_best(np.array([[2.0, 2.0], [2.0, 0.0]])) == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert select_best(np.array([[0.0, 2.0], [2.0, 2.0]])) == \
            [(0, 1), (1, 0), (1, 1), (0, 0)]

    def test_argmax_oracle_random_tables(self):
        # brute-force argmax over 10^4 random tables
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            table = rng.random((3, 2))
            assert table[select_best(table)[0]] == table.max()

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        table = rng.random((3, 2))
        assert select_best(7.5 * table) == select_best(table)

    def test_exclusion_chain_monotone(self):
        # the ranking is non-increasing and covers every entry once
        rng = np.random.default_rng(7)
        table = rng.random((4, 2))
        ranking = select_best(table)
        values = [table[entry] for entry in ranking]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert sorted(ranking) == [(r, c) for r in range(4) for c in range(2)]
        assert all(type(i) is int for entry in ranking for i in entry)

    def test_rejects_invalid_sinr(self):
        with pytest.raises(ValueError):
            select_best(np.array([[-1.0, 0.0]]))
        with pytest.raises(ValueError):
            select_best(np.array([[float("nan"), 0.0]]))


class TestCandidates:
    def test_fixed_groups(self):
        cfg, _, groups, _ = scenario()
        pairs = candidate_pairs(groups, cfg.num_relays, cfg.group_size,
                                PairMode.FIXED_GROUPS)
        assert pairs == [tuple(row) for row in groups.tolist()]
        assert all(type(r) is int for pair in pairs for r in pair)

    def test_all_pairs(self):
        pairs = candidate_pairs([], 6, 2, PairMode.ALL_PAIRS)
        assert len(pairs) == 15   # C(6, 2)
        assert len(set(pairs)) == 15

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_pairs_are_sets_of_m_relays(self, m):
        pairs = candidate_pairs([], 6, m, PairMode.ALL_PAIRS)
        assert pairs == list(combinations(range(6), m))

    def test_table_covers_both_hops(self):
        cfg, _, groups, state = scenario()
        sigma2 = cfg.noise_var
        Wsr = source_relay_filter_bank(state, sigma2, ReceiverKind.MMSE)
        Wrd = relay_dest_filter_bank(state, sigma2, ReceiverKind.MMSE)
        cands = candidate_pairs(groups, cfg.num_relays, cfg.group_size,
                                PairMode.FIXED_GROUPS)
        table = build_sinr_table(state, Wsr, Wrd, sigma2, cands)
        assert table.shape == (len(cands), 2)   # column 0 first hop, 1 second
        assert np.all(np.isfinite(table) & (table > 0))
        for row, relays in enumerate(cands):
            assert np.array_equal(table[row], pair_sinr(relays, state, Wsr, Wrd,
                                                        sigma2))


class TestChannelBlock:
    @pytest.mark.parametrize("pair_mode", list(PairMode))
    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_block_calls_equal_per_slot_calls(self, kind, pair_mode):
        # a slot machine computes the banks and the table once per block
        # of slots drawn ahead; row for row they must be the per-slot calls
        cfg, book, groups, _ = scenario(seed=4, num_users=6, num_relays=6,
                                        spreading_gain=16, pair_mode=pair_mode)
        sigma2 = cfg.noise_var
        cands = candidate_pairs(groups, cfg.num_relays, cfg.group_size, pair_mode)
        block = draw_channels(cfg, book, np.random.default_rng(9), 7)
        Wsr = source_relay_filter_bank(block, sigma2, kind)
        Wrd = relay_dest_filter_bank(block, sigma2, kind)
        table = build_sinr_table(block, Wsr, Wrd, sigma2, cands)
        assert table.shape == (7, len(cands), 2)
        rng = np.random.default_rng(9)
        for i in range(7):
            state = draw_channel(cfg, book, rng)
            for name, array in vars(state).items():
                assert np.array_equal(array, getattr(block[i], name)), name
            wsr = source_relay_filter_bank(state, sigma2, kind)
            wrd = relay_dest_filter_bank(state, sigma2, kind)
            assert np.array_equal(Wsr[i], wsr)
            assert np.array_equal(Wrd[i], wrd)
            assert np.array_equal(table[i],
                                  build_sinr_table(state, wsr, wrd, sigma2, cands))
