"""SINR metrics and max-SINR pair selection."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnc_sim import (PairMode, ReceiverKind, SystemConfig, build_sinr_table,
                      candidate_pairs, draw_channel, generate_codebook,
                      select_best)
from plnc_sim.network_coding import make_group_assignments
from plnc_sim.receivers import (code_coordinates, relay_dest_filter_bank,
                                source_relay_filter_bank)
from plnc_sim.signal_model import complex_gaussian, draw_channels

from oracles import chip_sinr_table


def scenario(snr_db=10.0, seed=0, **kw):
    """A small system, its codebook and groups, and one slot's gains,
    drawn as draw_channel draws them."""
    defaults = dict(num_users=4, num_relays=4, spreading_gain=8,
                    buffer_size=2, group_size=2, snr_db=snr_db, rng_seed=seed)
    defaults.update(kw)
    cfg = SystemConfig(**defaults)
    codes = generate_codebook(cfg)
    _, groups = make_group_assignments(cfg, np.random.default_rng([seed, 0x6E0]))
    gains = draw_channels(cfg, np.random.default_rng(seed + 1), 1)[0]
    return cfg, codes, groups, gains


def sinr_table(gains, codes, sigma2, kind, candidates):
    return build_sinr_table(gains, code_coordinates(codes), sigma2, kind, candidates)


def pair_sinr(pair, gains, codes, sigma2, kind=ReceiverKind.RAKE):
    """(source-relay, relay-destination) metric of one relay pair, read
    from its row of the array table."""
    return sinr_table(gains, codes, sigma2, kind, [tuple(pair)])[0]


class TestSinrFormulas:
    def test_single_user_single_relay_reduction(self):
        # K = 1, L = m = 1: either receiver's metric collapses to
        # |h|^2 / sigma2
        cfg, codes, _, gains = scenario(num_users=1, num_relays=1, group_size=1)
        expected = np.abs(gains.h_sr[0, 0]) ** 2 / cfg.noise_var
        for kind in ReceiverKind:
            got = pair_sinr((0,), gains, codes, cfg.noise_var, kind)[0]
            assert abs(got - expected) < 1e-12 * expected

    def test_single_relay_destination_reduction(self):
        cfg, codes, _, gains = scenario(num_users=1, num_relays=1, group_size=1)
        expected = np.abs(gains.h_rd[0]) ** 2 / cfg.noise_var
        for kind in ReceiverKind:
            got = pair_sinr((0,), gains, codes, cfg.noise_var, kind)[1]
            assert abs(got - expected) < 1e-12 * expected

    def test_monotone_in_noise(self):
        _, codes, _, gains = scenario()
        low = pair_sinr((0, 1), gains, codes, 0.1)[0]
        high = pair_sinr((0, 1), gains, codes, 0.2)[0]
        assert high < low

    def test_stronger_pair_wins_second_hop(self):
        cfg, codes, _, gains = scenario()
        gains.h_rd[2] = 3.0 * gains.h_rd[0]
        gains.h_rd[3] = 3.0 * gains.h_rd[1]
        weak = pair_sinr((0, 1), gains, codes, cfg.noise_var)[1]
        strong = pair_sinr((2, 3), gains, codes, cfg.noise_var)[1]
        assert strong > weak

    @pytest.mark.parametrize("kind", [ReceiverKind.RAKE, ReceiverKind.MMSE])
    def test_stronger_pair_ranks_higher_under_both_receivers(self, kind):
        # the metric is a ranking statistic: a uniformly stronger pair
        # must rank above a weaker one for either receiver type.  (The
        # metric's absolute level is receiver-dependent because the
        # denominator aggregates terms across filters, so no dominance
        # between receiver kinds is asserted here; the per-filter
        # output-SINR dominance lives in the receiver tests.)
        cfg, codes, _, gains = scenario(seed=8)
        gains.h_sr[:, 2] = 3.0 * gains.h_sr[:, 0]
        gains.h_sr[:, 3] = 3.0 * gains.h_sr[:, 1]
        weak = pair_sinr((0, 1), gains, codes, cfg.noise_var, kind)[0]
        strong = pair_sinr((2, 3), gains, codes, cfg.noise_var, kind)[0]
        assert strong > weak

    @pytest.mark.parametrize("kind", [ReceiverKind.RAKE, ReceiverKind.MMSE])
    def test_empirical_oracle_small(self, kind):
        # sample-average estimate of each constituent term of the table
        # pass 1 computes, from chip-level filter outputs (desk scale;
        # the acceptance suite runs the 1e5-symbol version)
        cfg, codes, _, gains = scenario(seed=3)
        sigma2 = cfg.noise_var
        state = gains.effective(codes)
        W = source_relay_filter_bank(state, sigma2, kind)
        analytic = pair_sinr((0, 1), gains, codes, sigma2, kind)[0]
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


@st.composite
def table_cases(draw):
    """A small system in either pair mode and receiver kind, at -10 to
    30 dB, a block of slots, and its codes; some blocks hold an exactly
    zero source-relay gain, and some codebooks two codes equal up to
    sign."""
    m = draw(st.sampled_from([1, 2, 3]))
    mode = draw(st.sampled_from(list(PairMode)))
    L = m * draw(st.integers(1, 6 // m))
    K = m * draw(st.integers(1, (L if mode == PairMode.FIXED_GROUPS else 6) // m))
    cfg = SystemConfig(num_users=K, num_relays=L, group_size=m,
                       spreading_gain=draw(st.integers(2, 16)),
                       snr_db=draw(st.floats(-10.0, 30.0)),
                       receiver=draw(st.sampled_from(list(ReceiverKind))),
                       pair_mode=mode, rng_seed=draw(st.integers(0, 999)))
    slots = draw(st.integers(1, 5))
    gains = draw_channels(cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                          slots)
    # another user keeps the zeroed relay's filter energy positive
    if K > 1 and draw(st.booleans()):
        gains.h_sr[draw(st.integers(0, slots - 1)), draw(st.integers(0, K - 1)),
                   draw(st.integers(0, L - 1))] = 0.0
    codes = generate_codebook(cfg)
    if K > 1 and draw(st.booleans()):
        codes[1] = draw(st.sampled_from([1.0, -1.0])) * codes[0]
    return cfg, gains, codes


class TestChipOracle:
    @settings(max_examples=150, deadline=None)
    @given(table_cases())
    def test_table_equals_chip_space_table(self, case):
        # the table read from the gains and the codes' Gram is the one
        # the N-chip filter banks give, to 1e-12 relative, and it ranks
        # the (pair, hop) entries alike
        cfg, gains, codes = case
        _, groups = make_group_assignments(cfg, np.random.default_rng(0))
        cands = candidate_pairs(groups, cfg.num_relays, cfg.group_size,
                                cfg.pair_mode)
        got = sinr_table(gains, codes, cfg.noise_var, cfg.receiver, cands)
        want = chip_sinr_table(gains.effective(codes), cfg.noise_var, cfg.receiver,
                               cands)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert select_best(got) == select_best(want)

    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_zero_gain_gives_the_zero_filter_terms(self, kind):
        # a zero source-relay gain contributes exactly nothing to its
        # relay's sums, as the bank's zero filter row does: with K = 1 the
        # pair's first-hop entry is exactly 0 in both tables
        cfg, codes, _, gains = scenario(num_users=1, num_relays=2, group_size=1)
        gains.h_sr[0, 0] = 0.0
        table = sinr_table(gains, codes, cfg.noise_var, kind, [(0,), (1,)])
        want = chip_sinr_table(gains.effective(codes), cfg.noise_var, kind,
                               [(0,), (1,)])
        assert table[0, 0] == want[0, 0] == 0.0
        assert table[1, 0] > 0.0


class TestZeroRelayGain:
    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_table_reads_silent_relays_as_streams_of_no_power(self, kind):
        # relays 0 and 1 have no path to the destination: the table stays
        # finite, the first hop is unchanged, and each pair's second hop
        # counts its live relays against the other live ones
        cfg, codes, _, gains = scenario(num_relays=6)
        sigma2 = cfg.noise_var
        candidates = list(combinations(range(6), 2))
        before = sinr_table(gains, codes, sigma2, kind, candidates)
        gains.h_rd[:2] = 0.0
        Wrd = relay_dest_filter_bank(gains, sigma2, kind)
        table = sinr_table(gains, codes, sigma2, kind, candidates)
        assert np.all(np.isfinite(table) & (table >= 0.0))
        assert np.array_equal(table[:, 0], before[:, 0])
        power = np.abs(Wrd.conj() * gains.h_rd) ** 2
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
        cfg, codes, groups, gains = scenario()
        sigma2 = cfg.noise_var
        cands = candidate_pairs(groups, cfg.num_relays, cfg.group_size,
                                PairMode.FIXED_GROUPS)
        table = sinr_table(gains, codes, sigma2, ReceiverKind.MMSE, cands)
        assert table.shape == (len(cands), 2)   # column 0 first hop, 1 second
        assert np.all(np.isfinite(table) & (table > 0))
        for row, relays in enumerate(cands):
            assert np.array_equal(table[row], pair_sinr(relays, gains, codes, sigma2,
                                                        ReceiverKind.MMSE))


class TestChannelBlock:
    @pytest.mark.parametrize("pair_mode", list(PairMode))
    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_block_calls_equal_per_slot_calls(self, kind, pair_mode):
        # a slot machine draws the gains and computes the table once per
        # block of slots drawn ahead, and pass 2 stacks its receptions'
        # banks; row for row they must be the per-slot calls
        cfg, codes, groups, _ = scenario(seed=4, num_users=6, num_relays=6,
                                        spreading_gain=16, pair_mode=pair_mode)
        sigma2 = cfg.noise_var
        cands = candidate_pairs(groups, cfg.num_relays, cfg.group_size, pair_mode)
        block = draw_channels(cfg, np.random.default_rng(9), 7)
        Wsr = source_relay_filter_bank(block.effective(codes), sigma2, kind)
        table = sinr_table(block, codes, sigma2, kind, cands)
        assert table.shape == (7, len(cands), 2)
        rng = np.random.default_rng(9)
        for i in range(7):
            state = draw_channel(cfg, codes, rng)
            for name, array in vars(block[i].effective(codes)).items():
                assert np.array_equal(array, getattr(state, name)), name
            assert np.array_equal(Wsr[i], source_relay_filter_bank(state, sigma2, kind))
            assert np.array_equal(table[i], sinr_table(block[i], codes, sigma2,
                                                       kind, cands))
