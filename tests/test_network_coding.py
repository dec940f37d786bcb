"""Mappings, NCS generation, matrix designs and destination decoding."""

import math
import tracemalloc
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnc_sim import (decode_joint, decode_with_direct, design_G_mmse,
                      design_G_random, detect_ncs, encode_ncs, encoder_table,
                      generate_codebook, hard_decision, PairMode, ReceiverKind,
                      select_G_mmse, symbol_to_bit, SystemConfig, xor_decode,
                      xor_encode)
from plnc_sim import buffer_protocol, network_coding, receivers
from plnc_sim.network_coding import (_qfunc, argmin_with_ties,
                                     design_G_ml_for_channel,
                                     make_group_assignments)
from plnc_sim.receivers import detection_error_probs, source_relay_filter_bank
from plnc_sim.signal_model import complex_gaussian, draw_channels

from oracles import (chain_error_exhaustive, design_G_ml, first_carrier,
                     invertible_binary, ml_calibration_outputs,
                     mmse_fallback_flags, mmse_refinement,
                     random_designs_sequential, solve_joint, sorted_levels)


def all_patterns(m=2):
    return [np.array(p) for p in product((-1.0, 1.0), repeat=m)]


def mmse_stream_stats(rng, m, sigma2, n=16):
    """Gains w^H h and noise powers sigma2 ||w||^2 of m random streams,
    each seen alone by its MMSE filter."""
    h = complex_gaussian(rng, (m, n))
    w = h / (sigma2 + np.sum(np.abs(h) ** 2, axis=1))[:, None]
    return np.sum(w.conj() * h, axis=1), sigma2 * np.sum(np.abs(w) ** 2, axis=1)


def unit_gain(gains, nvar):
    """The noise variances nu = nvar / |mu|^2 of the streams of gains mu
    and noise powers nvar, scaled to unit gain: what the designs read."""
    return np.asarray(nvar) / np.abs(gains) ** 2


def row_of(G):
    """The encoder_table row of a binary matrix."""
    G = np.asarray(G, dtype=np.float64)
    return int(np.flatnonzero(np.all(encoder_table(len(G)).G == G, axis=(1, 2)))[0])


def encode_same(G, b):
    """Every relay's NCS symbol when all relays detected the symbols b."""
    return encode_ncs(row_of(G), np.broadcast_to(b[:, None], (len(b), len(b), 1)))[:, 0]


@st.composite
def group_cases(draw):
    # K > L is a valid config only where free-form pairs serve the groups
    m = draw(st.integers(1, 3))
    cfg = SystemConfig(num_users=m * draw(st.integers(1, 5)),
                       num_relays=m * draw(st.integers(1, 5)), group_size=m,
                       pair_mode=PairMode.ALL_PAIRS)
    return cfg, draw(st.integers(0, 2**32 - 1))


class TestGroupPartition:
    @settings(max_examples=100, deadline=None)
    @given(group_cases())
    def test_partition_equals_per_group_slicing(self, case):
        cfg, seed = case
        K, L, m, G = cfg.num_users, cfg.num_relays, cfg.group_size, cfg.num_groups
        users, relays = make_group_assignments(cfg, np.random.default_rng(seed))
        assert users.shape == (G, m)
        assert sorted(users.ravel().tolist()) == list(range(K))
        assert relays.shape == (min(G, L // m), m)
        assert len(set(relays.ravel().tolist())) == relays.size
        assert set(relays.ravel().tolist()) <= set(range(L))
        # oracle: group g takes slice g of each of the same two permutations,
        # which runs short of relays once the L relays are used up
        rng = np.random.default_rng(seed)
        user_perm, relay_perm = rng.permutation(K), rng.permutation(L)
        for g in range(G):
            assert users[g].tolist() == user_perm[g * m:(g + 1) * m].tolist()
            assert relays[g:g + 1].ravel().tolist() \
                == relay_perm[g * m:(g + 1) * m].tolist()


class TestMappings:
    def test_symbol_to_bit(self):
        assert symbol_to_bit(1.0) == 0
        assert symbol_to_bit(-1.0) == 1

    def test_roundtrip(self):
        for c in (0, 1):
            assert symbol_to_bit(1.0 - 2.0 * c) == c

    def test_vectorized(self):
        bits = np.array([0, 1, 1, 0])
        assert np.array_equal(symbol_to_bit(1.0 - 2.0 * bits), bits)


class TestXor:
    @pytest.mark.parametrize("bits,expected", [
        ([0, 0], 1.0), ([1, 0], -1.0), ([0, 1], -1.0), ([1, 1], 1.0),
    ])
    def test_encode(self, bits, expected):
        assert xor_encode((1.0 - 2.0 * np.array(bits))[None, :, None]) == expected

    @pytest.mark.parametrize("ncs_bit,other_bit,expected_bit", [
        (1, 1, 0), (0, 1, 1), (0, 0, 0), (1, 0, 1),
    ])
    def test_decode(self, ncs_bit, other_bit, expected_bit):
        ncs = 1.0 - 2.0 * ncs_bit
        direct = np.array([np.nan, 1.0 - 2.0 * other_bit])
        direct[0] = 1.0  # target user's own slot is ignored
        out = xor_decode(np.array([ncs]), direct[:, None])
        assert symbol_to_bit(float(out[0, 0])) == expected_bit

    def test_encode_decode_identity(self):
        # brute force over all four input patterns
        for b in all_patterns():
            bits = np.array([symbol_to_bit(x) for x in b])
            ncs = xor_encode((1.0 - 2.0 * bits)[None, :, None])[0]
            got = xor_decode(ncs, b[:, None])
            for k in (0, 1):
                assert float(got[k, 0]) == b[k]


class TestLinearEncode:
    def test_identity_passthrough(self):
        G = np.eye(2)
        b = np.array([1.0, -1.0])
        for l in (0, 1):
            assert encode_same(G, b)[l] == b[l]

    def test_worked_example(self):
        G = np.array([[1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, -1.0])
        assert encode_same(G, b)[0] == 0.0
        assert encode_same(G, b)[1] == 1.0

    def test_all_ones_gives_column_sum(self):
        G = np.array([[1.0, 0.0], [1.0, 1.0]])
        b = np.ones(2)
        for l in (0, 1):
            assert encode_same(G, b)[l] == G[:, l].sum()

    def test_encode_ncs_uses_each_relays_own_detections(self):
        G = np.array([[1.0, 1.0], [0.0, 1.0]])
        det = np.zeros((2, 2, 3))
        det[0] = [[1, 1, 1], [-1, -1, -1]]       # relay 0 detections
        det[1] = [[1, -1, 1], [1, 1, -1]]        # relay 1 detections
        ncs = encode_ncs(row_of(G), det)
        assert np.array_equal(ncs[0], G[:, 0] @ det[0])
        assert np.array_equal(ncs[1], G[:, 1] @ det[1])


class TestEnumerationAndRandomDesign:
    def test_exactly_six_invertible_for_m2(self):
        # exhaustive oracle: count |det| > 0 over all 2^4 binary matrices
        count = 0
        for bits in product((0, 1), repeat=4):
            if abs(np.linalg.det(np.array(bits, float).reshape(2, 2))) > 1e-9:
                count += 1
        assert count == 6
        assert len(encoder_table(2).G) == 6

    def test_m1_is_always_one(self):
        cands = encoder_table(1).G
        assert len(cands) == 1 and cands[0][0, 0] == 1.0
        assert design_G_random(1, np.random.default_rng(0), 1)[0] == 0

    def test_random_design_invertible_and_covers_pool(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            row = design_G_random(2, rng, 1)[0]
            assert abs(np.linalg.det(encoder_table(2).G[row])) >= 1.0 - 1e-9
            seen.add(int(row))
        assert len(seen) == 6   # all pool members appear

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
           sigma2=st.floats(0.01, 1.0))
    def test_every_design_returns_a_pool_row(self, m, seed, sigma2):
        # a pool row is binary and invertible by construction, so this
        # is the encoder invariant every design must keep
        rng = np.random.default_rng(seed)
        nu = unit_gain(*mmse_stream_stats(rng, m, sigma2, n=8))
        flips = rng.uniform(0.0, 0.5, (m, m))
        for row in (design_G_random(m, rng, 1)[0],
                    design_G_ml_for_channel(nu, 8, rng)[0],
                    select_G_mmse(nu, flip_probs=flips)[0]):
            assert np.shape(row) == ()
            assert np.issubdtype(np.asarray(row).dtype, np.integer)
            assert 0 <= row < len(encoder_table(m).G)


class TestMlDesign:
    def _calibrate(self, rng, sigma2=1e-30, gains=None):
        # unit-gain streams (w^H h = 1, ||w|| = 1), optionally rescaled
        g = np.ones(2, dtype=complex) if gains is None else np.asarray(gains, complex)
        training = np.where(rng.standard_normal((2, 50)) >= 0, 1.0, -1.0)
        outs = ml_calibration_outputs(g, np.full(2, sigma2), training, rng)
        return g, outs, training

    def test_six_candidates_evaluated(self):
        rng = np.random.default_rng(2)
        gains, outs, training = self._calibrate(rng)
        _, costs = design_G_ml(outs, gains, training)
        assert costs.shape == (6,)

    def test_noiseless_cost_zero_everywhere(self):
        # with perfect equalization each candidate decodes its own
        # calibration block exactly
        rng = np.random.default_rng(3)
        gains, outs, training = self._calibrate(rng, sigma2=1e-30)
        row, costs = design_G_ml(outs, gains, training)
        assert np.all(costs < 1e-20)
        # deterministic tie-break: lowest candidate index wins
        assert row == 0

    def test_returned_cost_not_above_identity(self):
        rng = np.random.default_rng(4)
        gains, outs, training = self._calibrate(rng, sigma2=0.5)
        _, costs = design_G_ml(outs, gains, training)
        assert costs.min() <= costs[row_of(np.eye(2))]

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            design_G_ml(np.zeros((6, 2, 0)), np.ones(2), np.zeros((2, 0)))

    def test_matches_bruteforce_argmin(self):
        # independent oracle: recompute every cost with plain loops
        rng = np.random.default_rng(5)
        for _ in range(25):
            gains, outs, training = self._calibrate(rng, sigma2=0.4,
                                                    gains=rng.uniform(0.5, 2.0, 2))
            row, costs = design_G_ml(outs, gains, training)
            cands = invertible_binary(2)
            oracle_costs = []
            for j, cand in enumerate(cands):
                total = 0.0
                for t in range(training.shape[1]):
                    z = outs[j][:, t] / gains
                    rec = np.linalg.solve(cand.T.astype(complex), z)
                    total += np.sum(np.abs(training[:, t] - rec) ** 2)
                oracle_costs.append(total)
            oracle_best = argmin_with_ties(oracle_costs)
            assert oracle_best == argmin_with_ties(costs), \
                "argmin disagrees with brute force"
            assert row == oracle_best

    @pytest.mark.parametrize("m", [2, 3])
    def test_costs_match_per_candidate_solve(self, m):
        # oracle: one solve per candidate on its own calibration outputs
        rng = np.random.default_rng(50 + m)
        cands = invertible_binary(m)
        for _ in range(10 if m == 2 else 2):
            gains, nvar = mmse_stream_stats(rng, m, float(rng.uniform(0.05, 0.5)))
            training = np.where(rng.standard_normal((m, 40)) >= 0, 1.0, -1.0)
            outs = ml_calibration_outputs(gains, nvar, training, rng)
            row, costs = design_G_ml(outs, gains, training)
            oracle = np.empty(len(cands))
            for j, cand in enumerate(cands):
                rec = np.linalg.solve(cand.T.astype(complex),
                                      outs[j] / gains[:, None])
                oracle[j] = np.sum(np.abs(training - rec) ** 2)
            assert np.allclose(costs, oracle, rtol=1e-12, atol=0)
            assert row == argmin_with_ties(oracle)

    @pytest.mark.parametrize("T", [1, 8, 100])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stacked_design_equals_calibration_search(self, m, T):
        # oracle: per reception, hard-decided training symbols from a
        # generator of their own (no cost depends on them), then the
        # calibration outputs of every candidate and the search over them,
        # their noise drawn from a generator in the stacked design's start
        # state
        rng = np.random.default_rng(70 + 10 * m + T)
        R = 5
        stats = [mmse_stream_stats(rng, m, float(rng.uniform(0.05, 0.8)))
                 for _ in range(R)]
        gains = np.array([g for g, _ in stats])
        nvar = np.array([v for _, v in stats])
        stacked, oracle = np.random.default_rng(T), np.random.default_rng(T)
        rows, costs = design_G_ml_for_channel(unit_gain(gains, nvar), T, stacked)
        assert rows.shape == (R,)
        assert costs.shape == (R, len(encoder_table(m).G))
        for r in range(R):
            training = hard_decision(rng.standard_normal((m, T)))
            outs = ml_calibration_outputs(gains[r], nvar[r], training, oracle)
            row_r, costs_r = design_G_ml(outs, gains[r], training)
            assert rows[r] == row_r
            assert np.allclose(costs[r], costs_r, rtol=1e-9, atol=0)
        assert stacked.standard_normal() == oracle.standard_normal()

    def test_stacked_design_rejects_empty_block(self):
        with pytest.raises(ValueError):
            design_G_ml_for_channel(np.ones(2), 0, np.random.default_rng(0))


def oracle_chain_error(g, gains, nvar, p):
    """select_G_mmse's score of one encoder matrix, from the closed-form
    P_ab R_b^-1 and the chain's mean outputs for every flip pattern
    (user, relay) and every data pattern."""
    m = len(gains)
    C = g.T @ g
    P_ab = C * gains.conj()[None, :]
    R_b = np.outer(gains, gains.conj()) * C + np.diag(nvar)
    fallback = np.linalg.cond(R_b) > 1e12
    D = np.diag(1.0 / gains) if fallback else P_ab @ np.linalg.inv(R_b)
    A = np.linalg.inv(g.T) @ D
    sigma = np.sqrt(np.maximum((np.abs(A) ** 2 @ nvar) / 2.0, 1e-300))
    masks = np.array(list(product((0, 1), repeat=m * m))).reshape(-1, m, m)
    weights = np.prod(np.where(masks > 0, p, 1.0 - p), axis=(1, 2))
    b = np.array(all_patterns(m)).T                            # (m, 2^m)
    detected = b[None, :, None, :] * (1.0 - 2.0 * masks[..., None])
    ncs = np.sum(g[None, :, :, None] * detected, axis=1)       # relay l: column l
    mean = ((A * gains[None, :]) @ ncs).real
    err = _qfunc(b * mean / sigma[:, None])
    return float(weights @ err.sum(axis=(1, 2))) / (m * 2 ** m), fallback


class TestMmseDesign:
    def _scenario(self, rng, sigma2=0.1):
        gains, nvar = mmse_stream_stats(rng, 2, sigma2, n=8)
        row = design_G_random(2, rng, 1)[0]
        return gains, nvar, row, encoder_table(2).G[row]

    def test_normal_equations(self):
        # G_mmse R_b = P_ab must hold to high relative accuracy, G_mmse
        # being the refinement of the streams divided by their gains
        rng = np.random.default_rng(6)
        gains, nvar, row, G = self._scenario(rng)
        dec = design_G_mmse(row, unit_gain(gains, nvar))
        C = G.T @ G
        P_ab = C * gains.conj()[None, :]
        R_b = np.outer(gains, gains.conj()) * C + np.diag(nvar)
        residual = np.linalg.norm(dec.entries / gains[None, :] @ R_b - P_ab)
        assert residual < 1e-9 * max(np.linalg.norm(P_ab), 1.0)

    def test_noiseless_perfect_equalization_recovers_ncs(self):
        G = np.array([[1.0, 1.0], [1.0, 0.0]])
        dec = design_G_mmse(row_of(G), np.full(2, 1e-30))
        for b in all_patterns():
            ncs = G.T @ b
            assert np.allclose(dec.entries @ ncs, ncs, atol=1e-9)

    def test_sample_ls_oracle(self):
        # the closed form must match the least-squares minimizer fitted
        # on simulated (a, b) sample pairs
        rng = np.random.default_rng(7)
        sigma2 = 0.15
        gains, nvar, row, G = self._scenario(rng, sigma2)
        T = 100_000
        b = np.where(rng.standard_normal((2, T)) >= 0, 1.0, -1.0)
        a = G.T @ b
        eta = complex_gaussian(rng, (2, T)) * np.sqrt(nvar)[:, None]
        z = a + eta / gains[:, None]        # the streams scaled to unit gain
        ls = np.linalg.solve((z @ z.conj().T).T, (a @ z.conj().T).T).T
        dec = design_G_mmse(row, unit_gain(gains, nvar))
        rel = np.linalg.norm(dec.entries - ls) / np.linalg.norm(dec.entries)
        assert rel < 1e-2

    def test_mse_not_worse_than_plain_inversion(self):
        rng = np.random.default_rng(8)
        sigma2 = 0.3
        gains, nvar, row, G = self._scenario(rng, sigma2)
        T = 50_000
        b = np.where(rng.standard_normal((2, T)) >= 0, 1.0, -1.0)
        a = G.T @ b
        z = gains[:, None] * a + complex_gaussian(rng, (2, T)) * np.sqrt(nvar)[:, None]
        z = z / gains[:, None]              # plain inversion
        dec = design_G_mmse(row, unit_gain(gains, nvar))
        mse_mmse = np.mean(np.abs(a - dec.entries @ z) ** 2)
        mse_plain = np.mean(np.abs(a - z) ** 2)
        assert mse_mmse <= mse_plain + 1e-12

    def test_selection_prefers_reliable_detections(self):
        # user 0 badly detected at relay 0: the chosen encoder must not
        # route that detection into relay 0's stream (unit-gain streams)
        flips = np.array([[0.4, 1e-4], [1e-4, 1e-4]])
        row, scores = select_G_mmse(np.full(2, 0.05), flip_probs=flips)
        assert encoder_table(2).G[row][0, 0] == 0.0
        assert scores.shape == (6,)

    def test_chain_error_in_unit_interval(self):
        rng = np.random.default_rng(10)
        gains, nvar, _, _ = self._scenario(rng)
        _, scores = select_G_mmse(unit_gain(gains, nvar),
                                  flip_probs=np.full((2, 2), 0.01))
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    @pytest.mark.parametrize("m,draws", [(2, 30), (3, 2)])
    def test_selection_scores_match_per_candidate_oracle(self, m, draws):
        rng = np.random.default_rng(60 + m)
        cands = invertible_binary(m)
        for _ in range(draws):
            gains, nvar = mmse_stream_stats(rng, m, float(rng.uniform(0.02, 1.0)))
            gains = gains * np.exp(2j * np.pi * rng.random(m))   # any phase
            p = rng.uniform(0.0, 0.3, (m, m))
            row, scores = select_G_mmse(unit_gain(gains, nvar), flip_probs=p)
            oracle = np.array([oracle_chain_error(c, gains, nvar, p)[0]
                               for c in cands])
            assert np.allclose(scores, oracle, rtol=1e-9, atol=1e-15)
            assert row == argmin_with_ties(oracle)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stacked_receptions_equal_per_reception_calls(self, m):
        # the slot machine scores a slice of receptions in one call
        rng = np.random.default_rng(70 + m)
        stats = [mmse_stream_stats(rng, m, float(rng.uniform(0.02, 1.0)))
                 for _ in range(2 if m == 3 else 5)]
        nu = np.array([unit_gain(g, v) for g, v in stats])
        p = rng.uniform(0.0, 0.3, (len(stats), m, m))
        rows, scores = select_G_mmse(nu, flip_probs=p)
        assert rows.shape == (len(stats),)
        for r in range(len(stats)):
            row_r, scores_r = select_G_mmse(nu[r], flip_probs=p[r])
            assert rows[r] == row_r
            assert np.allclose(scores[r], scores_r, rtol=0.0, atol=1e-12)

    def test_failed_solve_falls_back_for_every_member(self, monkeypatch):
        # should the batched solve fail although no member is flagged
        # singular, the whole stack gets the identity, no refinement
        rng = np.random.default_rng(12)
        nu = np.array([unit_gain(*mmse_stream_stats(rng, 2, 0.1)) for _ in range(3)])
        rows = design_G_random(2, rng, 3)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        dec = design_G_mmse(rows, nu)
        assert dec.fallback.tolist() == [True] * 3
        for entries in dec.entries:
            assert np.array_equal(entries, np.eye(2))

    def test_partial_fallback_matches_per_candidate_oracle(self):
        # one unit-gain stream whose noise dwarfs it leaves M = C +
        # diag(nu) singular for some encoders only; each must fall back
        # on its own.  At unit gains R_b is M, so the oracle's flags are
        # M's
        gains = np.ones(2)
        nvar = np.array([2e12, 0.5])
        p = np.full((2, 2), 0.05)
        cands = invertible_binary(2)
        oracle = [oracle_chain_error(c, gains, nvar, p) for c in cands]
        fallbacks = [fb for _, fb in oracle]
        assert any(fallbacks) and not all(fallbacks)
        assert [design_G_mmse(row, nvar).fallback
                for row in range(len(cands))] == fallbacks
        _, scores = select_G_mmse(nvar, flip_probs=p)
        assert np.allclose(scores, [e for e, _ in oracle], rtol=1e-9, atol=1e-15)


@st.composite
def chain_cases(draw):
    """Unit-gain stream variances nu of R receptions (R = 0: no
    reception axis) and flip probabilities."""
    m = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = draw(st.integers(0, 3 if m == 2 else 1))
    lead = (R,) if R else ()
    sigma2 = draw(st.floats(0.01, 1.0))
    nu = np.array([unit_gain(*mmse_stream_stats(rng, m, sigma2, n=8))
                   for _ in range(max(R, 1))]).reshape(lead + (m,))
    flips = draw(st.sampled_from(["zero", "half", "random"]))
    p = {"zero": np.zeros(lead + (m, m)), "half": np.full(lead + (m, m), 0.5),
         "random": rng.uniform(0.0, 0.5, lead + (m, m))}[flips]
    return nu, p


class TestDistinctWork:
    """Each draw, score and flag computed once equals its direct form."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           count=st.integers(0, 40), offset=st.integers(0, 3))
    def test_batched_random_design_equals_per_reception_draws(self, m, seed,
                                                              count, offset):
        # one call for count receptions equals count calls of one and
        # leaves the stream where they leave it; an odd offset leaves half
        # of a 64-bit output buffered
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (batched, looped):
            rng.integers(0, 2, size=offset)
        got = design_G_random(m, batched, count)
        assert got.shape == (count,)
        assert got.tolist() == [design_G_random(m, looped, 1)[0] for _ in range(count)]
        assert batched.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("m,draws", [(2, 6000), (3, 17400)])
    def test_random_design_has_the_rejection_loops_law(self, m, draws):
        # a uniform row of the pool is what a rejection loop over binary
        # matrices gives: the two samples' row counts are homogeneous
        from scipy.stats import chi2_contingency
        pool = {g.tobytes(): row for row, g in enumerate(encoder_table(m).G)}
        looped = [pool[g.tobytes()] for g in
                  random_designs_sequential(m, np.random.default_rng(1), draws)]
        drawn = design_G_random(m, np.random.default_rng(2), draws)
        counts = [np.bincount(rows, minlength=len(pool)) for rows in (looped, drawn)]
        assert chi2_contingency(counts)[1] > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(chain_cases())
    def test_chain_error_equals_exhaustive_oracle(self, case):
        # at unit real gains the oracle's arithmetic is the package's
        nu, p = case
        _, got = select_G_mmse(nu, p)
        assert np.array_equal(got, chain_error_exhaustive(np.ones_like(nu), nu, p))

    @settings(max_examples=80, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           log_snr=st.floats(0.0, 18.0), silent=st.booleans())
    def test_cond_screen_flags_equal_condition_number(self, m, seed, log_snr,
                                                     silent):
        # stream SNRs 1/nu up to 1e18 and, optionally, a near-silent
        # stream (nu from 1e9 to 1e15) leave M = C + diag(nu) near
        # singular for some encoders of the pool; at unit gains the
        # oracle's R_b is M
        rng = np.random.default_rng(seed)
        pool = np.arange(len(encoder_table(m).G))
        nu = 10.0 ** -rng.uniform(-1.0, log_snr, (5, m))
        if silent:
            nu[:, 0] = 10.0 ** rng.uniform(9, 15, 5)
        got = design_G_mmse(pool, nu[:, None]).fallback
        assert np.array_equal(got, mmse_fallback_flags(pool, np.ones((5, 1, m)),
                                                       nu[:, None]))


@st.composite
def physical_streams(draw):
    """m <= 3 relay streams' positive gains mu and noise powers
    sigma2 |f|^2, an encoder row, flip probabilities and a seed."""
    m = draw(st.integers(1, 3))
    mu = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=m, max_size=m)))
    nvar = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m)))
    row = draw(st.integers(0, len(encoder_table(m).G) - 1))
    p = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=m * m,
                               max_size=m * m))).reshape(m, m)
    return mu, nvar, row, p, draw(st.integers(0, 2 ** 32 - 1))


class TestUnitGainStreams:
    """The package on the unit-gain streams' nu = sigma2 |f|^2 / mu^2
    equals the physical references on the outputs mu a + eta, and those
    are unchanged when mu scales by c and sigma2 |f|^2 by c^2."""

    @settings(max_examples=100, deadline=None)
    @given(physical_streams(), st.floats(0.01, 100.0))
    def test_package_on_nu_equals_physical_oracles(self, case, c):
        mu, nvar, row, p, seed = case
        m, T = len(mu), 8
        nu = nvar / mu ** 2
        g = encoder_table(m).G[row]
        z = np.random.default_rng(seed).standard_normal((m, 5))
        dec = design_G_mmse(row, nu)
        rows, scores = select_G_mmse(nu, p)
        ml_rows, ml_costs = design_G_ml_for_channel(nu, T, np.random.default_rng(seed))
        training = hard_decision(np.random.default_rng(seed + 1).standard_normal((m, T)))
        assert not dec.fallback
        for scale in (1.0, c):
            gains, noise = scale * mu, scale ** 2 * nvar
            # the refinement of z / mu is P_ab R_b^-1 z
            refinement, fallback = mmse_refinement(g, gains, noise)
            want = refinement @ (scale * z)
            assert not fallback
            assert np.abs(dec.entries @ (z / mu[:, None]) - want).max() \
                <= 1e-12 * np.abs(want).max()
            # the chain scores of every row
            want = chain_error_exhaustive(gains, noise, p)
            assert np.allclose(scores, want, rtol=1e-12, atol=0)
            assert rows == argmin_with_ties(want)
            # the calibration search on the same draws
            outs = ml_calibration_outputs(gains, noise, training,
                                          np.random.default_rng(seed))
            want_row, want_costs = design_G_ml(outs, gains, training)
            assert ml_rows == want_row
            assert np.allclose(ml_costs, want_costs, rtol=1e-9, atol=0)


class TestErfcKernelInvariance:
    """scipy.special.erfc in place of the package's kernel moves no
    design: the kernel follows the same Cephes branches, and the scores
    feed argmin_with_ties only."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), receptions=st.integers(1, 3),
           log_sigma2=st.floats(-3.0, 1.0),
           kind=st.sampled_from(list(ReceiverKind)),
           seed=st.integers(0, 2**32 - 1))
    def test_scipy_erfc_gives_equal_designs(self, m, receptions, log_sigma2,
                                            kind, seed):
        from scipy.special import erfc as scipy_erfc
        sigma2 = 10.0 ** log_sigma2
        cfg = SystemConfig(num_users=m, num_relays=m, spreading_gain=8,
                           group_size=m)
        state = draw_channels(cfg, np.random.default_rng(seed),
                              receptions).effective(generate_codebook(cfg))
        filters_sr = source_relay_filter_bank(state, sigma2, kind)
        users = np.broadcast_to(np.arange(m), (receptions, m))
        nu = sigma2 / np.abs(state.h_rd) ** 2

        def design():
            flips = detection_error_probs(users, state, filters_sr, sigma2)
            return (flips,) + select_G_mmse(nu, flips)

        flips, rows, scores = design()
        with mock.patch.object(receivers, "erfc", scipy_erfc), \
                mock.patch.object(network_coding, "erfc", scipy_erfc):
            want_flips, want_rows, want_scores = design()
        assert np.array_equal(rows, want_rows)
        # relative where the values are normal doubles; below that a
        # double holds an absolute precision only
        tiny = np.finfo(np.float64).tiny
        np.testing.assert_allclose(flips, want_flips, rtol=1e-15, atol=tiny)
        np.testing.assert_allclose(scores, want_scores, rtol=1e-15, atol=tiny)


class TestJointDecoding:
    def test_identity_passthrough(self):
        z = np.array([[1.0], [-1.0]], dtype=complex)
        out = decode_joint(row_of(np.eye(2)), z)
        assert np.array_equal(out, [[1.0], [-1.0]])

    def test_worked_example(self):
        # NCS [0, 1] produced by G = [[1,1],[1,0]] from b = [+1, -1]
        G = np.array([[1.0, 1.0], [1.0, 0.0]])
        out = decode_joint(row_of(G), np.array([[0.0], [1.0]], dtype=complex))
        assert np.array_equal(out, [[1.0], [-1.0]])

    def test_bruteforce_all_encoders_and_patterns(self):
        # noiseless exact recovery for all 6 encoders x 4 patterns
        for row, cand in enumerate(encoder_table(2).G):
            for b in all_patterns():
                ncs = cand.T @ b[:, None]
                out = decode_joint(row, ncs.astype(complex))
                assert np.array_equal(out[:, 0], b), f"failed for {cand} {b}"

    def test_gain_normalization(self):
        # streams divided by their gains are unit-gain streams
        G = np.array([[1.0, 0.0], [1.0, 1.0]])
        gains = np.array([2.0 + 0j, 0.5 + 0j])
        for b in all_patterns():
            z = gains[:, None] * (G.T @ b[:, None])
            out = decode_joint(row_of(G), z / gains[:, None])
            assert np.array_equal(out[:, 0], b)


class TestDirectAidedDecoding:
    def test_worked_example(self):
        G = np.array([[1.0, 1.0], [1.0, 0.0]])
        ncs = np.array([[0.0], [1.0]])
        direct = np.array([[123.0], [-1.0]])   # target slot is ignored
        out = decode_with_direct(row_of(G), ncs, direct)[0, 0]
        assert out == 1.0

    def test_zero_coefficient_falls_back_to_other_relay(self):
        G = np.array([[0.0, 1.0], [1.0, 0.0]])   # user 0 absent from relay 0
        b = np.array([[-1.0], [1.0]])
        ncs = G.T @ b
        out = decode_with_direct(row_of(G), ncs, np.array([[0.0], b[1]]))[0, 0]
        assert out == b[0, 0]

    def test_bruteforce_all_encoders_and_patterns(self):
        for row, cand in enumerate(encoder_table(2).G):
            for b in all_patterns():
                ncs = cand.T @ b[:, None]
                out = decode_with_direct(row, ncs, b[:, None])
                for k in (0, 1):
                    assert out[k, 0] == b[k], f"failed for {cand} {b} user {k}"

    def test_levels_and_slicing(self):
        row = row_of([[1.0, 1.0], [1.0, 0.0]])
        levels = encoder_table(2).levels[row]
        assert np.array_equal(np.unique(levels[:, 0]), [-2.0, 0.0, 2.0])
        assert np.array_equal(np.unique(levels[:, 1]), [-1.0, 1.0])

        def slice_relay_0(x):
            return detect_ncs(row, np.array([[x], [1.0]]))[0, 0]
        assert slice_relay_0(0.9) == 0.0
        assert slice_relay_0(1.1) == 2.0
        assert slice_relay_0(1.0) == 0.0   # tie goes to lower level
        assert slice_relay_0(-5.0) == -2.0

    def test_detect_ncs_slices_to_admissible_values(self):
        row = row_of([[1.0, 1.0], [0.0, 1.0]])
        z = np.array([[1.8 + 0.2j], [-0.7 - 0.1j]])
        est = detect_ncs(row, z)
        assert est[0, 0] in encoder_table(2).levels[row][:, 0]
        assert est[1, 0] in encoder_table(2).levels[row][:, 1]


class TestRandomizedRoundtrips:
    def test_noiseless_roundtrip_property(self):
        # randomized property: any invertible encoder, any +-1 packet,
        # unequal complex gains, both decoders recover exactly
        rng = np.random.default_rng(11)
        for _ in range(50):
            row = design_G_random(2, rng, 1)[0]
            G = encoder_table(2).G[row]
            b = np.where(rng.standard_normal((2, 64)) >= 0, 1.0, -1.0)
            gains = (0.5 + rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
            z = gains[:, None] * (G.T @ b) / gains[:, None]
            joint = decode_joint(row, z)
            assert np.array_equal(joint, b)
            est = detect_ncs(row, z)
            direct_aided = decode_with_direct(row, est, b)
            for k in (0, 1):
                assert np.array_equal(direct_aided[k], b[k])


class TestNoiselessExactness:
    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]),
           polar=st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(-np.pi, np.pi)),
                          min_size=3, max_size=3))
    def test_every_candidate_and_decoder_recovers_symbols(self, m, polar):
        # sigma2 -> 0: every invertible encoder, unequal complex gains
        # divided out
        gains = np.array([r * np.exp(1j * phi) for r, phi in polar[:m]])
        nu = unit_gain(gains, np.full(m, 1e-30))
        b = np.array(list(product((-1.0, 1.0), repeat=m))).T      # (m, 2^m)
        for row, cand in enumerate(encoder_table(m).G):
            z = gains[:, None] * (cand.T @ b) / gains[:, None]
            assert np.array_equal(decode_joint(row, z), b)
            dec = design_G_mmse(row, nu)
            assert not dec.fallback
            assert np.array_equal(decode_joint(row, z, dec.entries), b)
            est = detect_ncs(row, z)
            direct_aided = decode_with_direct(row, est, b)
            for k in range(m):
                assert np.array_equal(direct_aided[k], b[k])


def integer_det(g):
    """The exact determinant of an integer matrix (Leibniz formula)."""
    total = 0
    for perm in permutations(range(len(g))):
        inversions = sum(perm[i] > perm[j] for i in range(len(g))
                         for j in range(i + 1, len(g)))
        total += (-1) ** inversions * math.prod(int(g[i, perm[i]])
                                                for i in range(len(g)))
    return total


class TestEncoderTable:
    """Every entry of encoder_table(m) equals its direct form."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lookup_inverts_the_enumeration(self, m):
        table = encoder_table(m)
        assert np.array_equal(table.G, invertible_binary(m))
        assert table.row.dtype == np.int16
        for pattern, row in enumerate(table.row.tolist()):
            bits = [(pattern >> (m * m - 1 - j)) & 1 for j in range(m * m)]
            g = np.array(bits).reshape(m, m)
            assert (row == -1) == (integer_det(g) == 0)
            if row >= 0:
                assert np.array_equal(table.G[row], g)

    @settings(max_examples=150, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), pick=st.integers(0, 2 ** 16),
           P=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           with_decoder=st.booleans())
    def test_rows_equal_direct_forms(self, m, pick, P, seed, with_decoder):
        table = encoder_table(m)
        row = pick % len(table.G)
        g = table.G[row]
        assert np.array_equal(table.unmix[row] @ g.T, np.eye(m))
        assert np.array_equal(table.gram[row], g.T @ g)
        assert np.array_equal(table.recovery[:, row],
                              (table.unmix[row].T @ table.unmix[row]).ravel())
        assert np.array_equal(table.levels[row], sorted_levels(g))
        carrier = first_carrier(g)
        assert np.array_equal(table.carrier[row], carrier)
        assert np.array_equal(table.cancel[row], g[:, carrier].T)
        # the joint decoder's hard decisions equal a solve's, on noisy
        # outputs of a stack of three rows
        rng = np.random.default_rng(seed)
        rows = np.array([row, *rng.integers(len(table.G), size=2)])
        z = complex_gaussian(rng, (3, m, P)) * 2.0
        decoder = (design_G_mmse(rows, 0.1 + rng.random((3, m))).entries
                   if with_decoder else None)
        refined = decoder @ z if with_decoder else z
        assert np.array_equal(decode_joint(rows, z, decoder),
                              solve_joint(table.G[rows], refined))


# -- per-user and per-relay loop oracles of the array decoders ----------

def oracle_levels(g, relay):
    """One relay's distinct noiseless NCS values, ascending."""
    m = g.shape[0]
    return np.array(sorted({float(g[:, relay] @ np.array(p))
                            for p in product((-1.0, 1.0), repeat=m)}))


def oracle_detect(g, z, decoder):
    """Refine, then slice one relay at a time; ties to the lower level."""
    refined = decoder @ z if decoder is not None else z
    est = np.empty(refined.shape)
    for l in range(g.shape[0]):
        levels = oracle_levels(g, l)
        est[l] = levels[np.argmin(np.abs(refined[l].real[:, None] - levels), axis=1)]
    return est


def oracle_direct(g, ncs, direct, k):
    """User k from the first relay carrying it, cancelling the others."""
    relay = int(np.flatnonzero(g[k])[0])
    cancelled = ncs[relay] - sum(g[j, relay] * direct[j]
                                 for j in range(g.shape[0]) if j != k)
    return np.where(cancelled / g[k, relay] >= 0.0, 1.0, -1.0)


def oracle_xor_encode(detected):
    """Each relay's detections to bits, XOR over the users, back to +-1."""
    return np.stack([1.0 - 2.0 * np.bitwise_xor.reduce(symbol_to_bit(d), axis=0)
                     for d in detected])


def oracle_xor_decode(ncs, direct, k):
    """User k's bit: the NCS bit XOR every other user's direct bit."""
    acc = symbol_to_bit(ncs)
    for j in range(direct.shape[0]):
        if j != k:
            acc = np.bitwise_xor(acc, symbol_to_bit(direct[j]))
    return 1.0 - 2.0 * acc


def broadcast_detect(rows, z, decoder):
    """detect_ncs as one argmin over every level at once, a (..., P,
    2^m, m) array of distances."""
    refined = z.real if decoder is None else decoder @ z.real
    soft = np.swapaxes(refined, -1, -2)
    levels = encoder_table(refined.shape[-2]).levels[rows]
    nearest = np.argmin(np.abs(soft[..., None, :] - levels[..., None, :, :]), axis=-2)
    return np.swapaxes(np.take_along_axis(levels, nearest, axis=-2), -1, -2)


# soft values: arbitrary, or integers, which include every midpoint
# between two adjacent levels of any m <= 3 encoder column
soft_values = st.one_of(st.floats(-4.0, 4.0), st.integers(-4, 4).map(float))


@st.composite
def decode_cases(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    P = draw(st.integers(1, 5))
    row = draw(st.integers(0, len(encoder_table(m).G) - 1))
    soft = np.array(draw(st.lists(soft_values, min_size=m * P, max_size=m * P)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return m, P, row, soft.reshape(m, P), np.random.default_rng(seed)


class TestArrayDecodersMatchLoopOracles:
    @settings(max_examples=150, deadline=None)
    @given(decode_cases(), st.booleans())
    def test_detect_and_direct_decode(self, case, with_decoder):
        m, P, row, z, rng = case
        g = encoder_table(m).G[row]
        decoder = None
        if with_decoder:
            decoder = design_G_mmse(row, 0.1 + rng.random(m)).entries
        est = detect_ncs(row, z, decoder)
        assert np.array_equal(est, oracle_detect(g, z, decoder))
        # each column decodes alone, as its own (m, 1) stack
        assert np.array_equal(detect_ncs(row, z[:, :1], decoder), est[:, :1])
        # direct estimates that need not agree with the NCS estimates, so
        # a decode through any relay but the first carrying one differs
        direct = np.where(rng.random((m, P)) < 0.5, 1.0, -1.0)
        got = decode_with_direct(row, est, direct)
        assert got.shape == (m, P)
        for k in range(m):
            assert np.array_equal(got[k], oracle_direct(g, est, direct, k))
            own_nan = direct.copy()
            own_nan[k] = np.nan
            assert np.array_equal(decode_with_direct(row, est, own_nan)[k], got[k])
        assert np.array_equal(decode_with_direct(row, est[:, :1], direct[:, :1]),
                              got[:, :1])

    @settings(max_examples=100, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), P=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_xor_encode_and_decode(self, m, P, seed):
        rng = np.random.default_rng(seed)
        # int8 +-1, as the slot machine's slicers give them; 0 in a user's
        # own direct entry shows that entry is never read
        detected = np.where(rng.random((m, m, P)) < 0.5, 1, -1).astype(np.int8)
        ncs = xor_encode(detected)
        assert ncs.dtype == np.int8
        assert np.array_equal(ncs, oracle_xor_encode(detected))
        direct = np.where(rng.random((m, P)) < 0.5, 1, -1).astype(np.int8)
        got = xor_decode(ncs[0], direct)
        assert got.shape == (m, P) and got.dtype == np.int8
        for k in range(m):
            assert np.array_equal(got[k], oracle_xor_decode(ncs[0], direct, k))
            own_zero = direct.copy()
            own_zero[k] = 0
            assert np.array_equal(xor_decode(ncs[0], own_zero)[k], got[k])

    @settings(max_examples=100, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), T=st.integers(1, 4), P=st.integers(1, 6),
           midpoints=st.booleans(), with_decoder=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_running_nearest_equals_the_broadcast_argmin(
            self, m, T, P, midpoints, with_decoder, seed):
        # a stack of rows on random outputs, or on exact levels and
        # midpoints between adjacent ones, with or without a refinement
        rng = np.random.default_rng(seed)
        table = encoder_table(m)
        rows = rng.integers(0, len(table.G), T)
        if midpoints:
            levels = table.levels[rows]                   # (T, 2^m, m)
            midway = (levels[:, :-1] + levels[:, 1:]) / 2
            points = np.concatenate([levels, midway], axis=1)
            pick = rng.integers(0, points.shape[1], (T, P, m))
            z = np.swapaxes(np.take_along_axis(points, pick, axis=1), -1, -2)
        else:
            z = 3.0 * rng.standard_normal((T, m, P))
        decoder = design_G_mmse(rows, 0.1 + rng.random((T, m))).entries \
            if with_decoder else None
        got = detect_ncs(rows, z, decoder)
        assert got.dtype == table.levels.dtype
        assert np.array_equal(got, broadcast_detect(rows, z, decoder))

    @pytest.mark.parametrize("m,packets", [(2, 13), (3, 8)])
    def test_slice_holds_the_slice_budget(self, m, packets):
        # a linear second-phase slice of 1000-symbol packets (13 to a
        # slice at m = 2, 8 at m = 3) holds under the slice budget; the
        # broadcast form held 1829 and 3189 KB
        rng = np.random.default_rng(m)
        rows = rng.integers(0, len(encoder_table(m).G), packets)
        z = rng.standard_normal((packets, m, 1000))
        decoder = design_G_mmse(rows, 0.1 + rng.random((packets, m))).entries
        detect_ncs(rows, z[:, :, :1], decoder)
        tracemalloc.start()
        try:
            detect_ncs(rows, z, decoder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * buffer_protocol._SLICE_ELEMENTS

    def test_midpoints_go_to_the_lower_level(self):
        for m in (1, 2, 3):
            for row, levels in enumerate(encoder_table(m).levels):
                mid = (levels[:-1] + levels[1:]) / 2          # (2^m - 1, m)
                est = detect_ncs(row, mid.T)
                assert np.array_equal(est, levels[:-1].T)
