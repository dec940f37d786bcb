"""Receive filter banks, effective gains, the slicer and the erfc kernel."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnc_sim import (PairMode, ReceiverKind, SlotMachine, SystemConfig,
                      draw_channel, generate_codebook, hard_decision,
                      source_relay_filter_bank)
from plnc_sim.receivers import (_mmse_bank, detection_error_probs,
                                effective_gains, erfc, rank_one_outputs,
                                relay_dest_filter_bank,
                                source_dest_filter_bank)
from plnc_sim.network_coding import _qfunc
from plnc_sim.signal_model import ChannelState, complex_gaussian

from oracles import chip_second_hop, pair_state


def rake(h):
    """RAKE filter of one stream: the destination bank's RAKE row for a
    lone user of effective vector h."""
    state = ChannelState(None, np.asarray(h, dtype=complex)[None, :], None)
    return source_dest_filter_bank(state, 1.0, ReceiverKind.RAKE)[0]


def rd_bank(h, sigma2, kind):
    """relay_dest_filter_bank of relay-destination gains h (...)."""
    return relay_dest_filter_bank(ChannelState(np.asarray(h), None, None),
                                  sigma2, kind)


def output(w, y):
    """Inner product w^H y through the gains of the filter banks."""
    return effective_gains(np.asarray(w, dtype=complex)[None, :],
                           np.asarray(y)[None, :])[0]


class TestRakeFilter:
    def test_matched_to_unit_code(self):
        s1 = np.ones(8) / np.sqrt(8)
        assert np.allclose(rake(s1), s1)

    def test_recovers_noiseless_symbol(self):
        rng = np.random.default_rng(0)
        h = complex_gaussian(rng, 16)
        for b in (1.0, -1.0):
            out = output(rake(h), h * b)
            assert abs(out - np.vdot(h, h) * b) < 1e-12
            assert hard_decision(out) == b

    def test_scaling_linearity(self):
        rng = np.random.default_rng(1)
        h = complex_gaussian(rng, 8)
        c = 0.3 - 1.7j
        assert np.allclose(rake(c * h), c * rake(h))

    def test_zero_channel_rejected(self):
        # a linear lane's sub-slot stream has no filter output to scale to
        # unit gain, whatever the receiver
        for kind in ReceiverKind:
            machine = SlotMachine(SystemConfig(receiver=kind), 0)
            with pytest.raises(ValueError, match="degenerate channel"):
                machine._stream_stats(np.array([0.5j, 0.0]))

    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_relay_dest_bank_takes_zero_gain(self, kind):
        # a relay without a path to the destination gets the zero filter,
        # a stream of no power and no noise; the others are unchanged
        rng = np.random.default_rng(3)
        h_rd = complex_gaussian(rng, (5, 4))
        h_rd[[0, 2, 4], [1, 3, 1]] = 0.0
        bank = rd_bank(h_rd, 0.3, kind)
        live = h_rd != 0
        assert np.all(bank[~live] == 0.0)
        assert np.array_equal(bank[live], rd_bank(h_rd[live], 0.3, kind))
        gains, noise_var, colour = rank_one_outputs(bank, h_rd, 0.3)
        assert np.all(gains[~live] == 0) and np.all(noise_var[~live] == 0)


class TestMmseFilter:
    def test_single_basis_stream(self):
        # (e1 e1^H + I)^-1 e1 = e1 / 2, from the full and rank-one solvers
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        assert np.allclose(_mmse_bank(e1[None, :], 1.0)[0], e1 / 2.0, atol=1e-12)
        # the scalar filter of the code e1 with unit gain
        f = rd_bank(np.array([1.0 + 0j]), 1.0, ReceiverKind.MMSE)[0]
        assert np.allclose(f * e1, e1 / 2.0, atol=1e-12)

    def test_normal_equations_residual(self):
        # independent check: the weights must satisfy the linear system
        # solved with a plain dense solve
        rng = np.random.default_rng(2)
        H = complex_gaussian(rng, (5, 16))
        sigma2 = 0.2
        w = _mmse_bank(H, sigma2)[2]
        cov = sum(np.outer(h, h.conj()) for h in H) + sigma2 * np.eye(16)
        assert np.linalg.norm(cov @ w - H[2]) < 1e-10
        oracle = np.linalg.solve(cov, H[2])
        assert np.allclose(w, oracle, atol=1e-10)
        # the rank-one formula solves the single-stream system of a
        # coefficient h on a unit-norm code
        code = np.where(rng.standard_normal(16) >= 0, 1.0, -1.0) / 4.0
        h = complex_gaussian(rng, 3)
        f = rd_bank(h, sigma2, ReceiverKind.MMSE)[2]
        cov1 = np.outer(h[2] * code, (h[2] * code).conj()) + sigma2 * np.eye(16)
        assert np.allclose(f * code, np.linalg.solve(cov1, h[2] * code), atol=1e-10)

    def test_relay_bank_matches_per_relay_solve(self):
        # one batched solve over all relays equals a dense solve of each
        # relay's own covariance, one relay and one user at a time
        cfg = SystemConfig(snr_db=4.0)
        state = draw_channel(cfg, generate_codebook(cfg), np.random.default_rng(5))
        sigma2 = cfg.noise_var
        W = source_relay_filter_bank(state, sigma2, ReceiverKind.MMSE)
        K, L, N = state.h_eff_sr.shape
        assert W.shape == (K, L, N)
        for l in range(L):
            H = state.h_eff_sr[:, l, :]
            cov = sum(np.outer(h, h.conj()) for h in H) + sigma2 * np.eye(N)
            for k in range(K):
                assert np.allclose(W[k, l], np.linalg.solve(cov, H[k]),
                                   rtol=0, atol=1e-10)

    def test_high_noise_limit_matches_rake_direction(self):
        rng = np.random.default_rng(3)
        H = complex_gaussian(rng, (4, 16))
        w = _mmse_bank(H, sigma2=1e9)[1]
        cos = abs(np.vdot(w, H[1])) / (np.linalg.norm(w) * np.linalg.norm(H[1]))
        assert cos > 1.0 - 1e-6

    def test_requires_positive_noise(self):
        with pytest.raises(ValueError):
            _mmse_bank(np.ones((1, 4), dtype=complex), sigma2=0.0)

    @settings(max_examples=80, deadline=None)
    @given(S=st.integers(1, 12), N=st.integers(1, 16),
           lead=st.sampled_from([(), (3,), (2, 3)]),
           sigma2=st.floats(1e-3, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_stream_space_solve_matches_observation_space_oracle(
            self, S, N, lead, sigma2, seed):
        # the textbook form solves N x N: ((H^T H* + s I_N)^-1 H^T)^T; the
        # bank's S x S form must agree on both sides of S = N
        H = complex_gaussian(np.random.default_rng(seed), lead + (S, N))
        Ht = np.swapaxes(H, -1, -2)
        oracle = np.swapaxes(np.linalg.solve(Ht @ H.conj() + sigma2 * np.eye(N),
                                             Ht), -1, -2)
        W = _mmse_bank(H, sigma2)
        assert W.shape == H.shape
        scale = np.max(np.abs(oracle), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(W - oracle) <= 1e-9 * scale)


class TestScalarSecondHop:
    # the second hop's scalar filters against the N-chip vector model
    # they reduce: rank-one filters on the streams' code, QR colouring

    @settings(max_examples=120, deadline=None)
    @given(N=st.integers(2, 32), m=st.integers(1, 3), lead=st.integers(1, 4),
           kind=st.sampled_from(list(ReceiverKind)),
           sigma2=st.floats(1e-3, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_scalar_statistics_equal_chip_model(self, N, m, lead, kind, sigma2,
                                                seed):
        # m = 1 is a linear sub-slot; m > 1 the XOR superposition, one
        # filter on the sum of the m coefficients
        rng = np.random.default_rng(seed)
        code = np.where(rng.standard_normal(N) >= 0, 1.0, -1.0) / np.sqrt(N)
        h = complex_gaussian(rng, (lead, m))
        f = rd_bank(h.sum(axis=-1), sigma2, kind)
        gains, noise_var, colour = rank_one_outputs(f[:, None], h, sigma2)
        chip_gains, chip_noise, chip_colour = chip_second_hop(h, code, sigma2, kind)

        def close(a, b):
            return np.all(np.abs(a - b) <= 1e-12 * np.abs(b))

        assert close(gains, chip_gains)
        assert close(noise_var[:, 0], chip_noise)
        assert close(colour[:, 0], np.abs(chip_colour))

    @pytest.mark.parametrize("kind", list(ReceiverKind), ids=lambda k: k.value)
    def test_own_stream_gains_are_real(self, kind):
        # f is h times a positive number, so conj(f) h is real: its
        # imaginary part is rounding, at most 4 eps |gain|
        rng = np.random.default_rng(31)
        h = complex_gaussian(rng, 100_000) * 10.0 ** rng.uniform(-4, 4, 100_000)
        for sigma2 in (1e-3, 0.1, 10.0):
            gains, _, _ = rank_one_outputs(rd_bank(h, sigma2, kind), h, sigma2)
            assert np.all(np.abs(gains.imag) <= 4 * np.finfo(float).eps * np.abs(gains))


class TestFilterOutput:
    def test_unit_vector_identity(self):
        s1 = np.ones(4) / 2.0
        assert abs(output(rake(s1), s1) - 1.0) < 1e-12

    def test_orthogonal_gives_zero(self):
        w = np.array([1.0, 1.0, 0, 0]) / np.sqrt(2)
        y = np.array([1.0, -1.0, 0, 0]) / np.sqrt(2)
        assert abs(output(rake(w), y)) < 1e-12

    def test_conjugate_linearity(self):
        rng = np.random.default_rng(4)
        w = complex_gaussian(rng, 8)
        y = complex_gaussian(rng, 8)
        c = 1.2 + 0.8j
        a = output(rake(c * w), y)
        b = np.conj(c) * output(rake(w), y)
        assert abs(a - b) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            output(rake(np.ones(4, dtype=complex)), np.ones(5))


class TestSlicer:
    @pytest.mark.parametrize("soft,expected", [
        (0.3 - 2.0j, 1.0),
        (-1e-9, -1.0),
        (0.0, 1.0),          # tie breaks to +1
        (-3.0 + 5.0j, -1.0),
    ])
    def test_cases(self, soft, expected):
        assert hard_decision(soft) == expected

    def test_vectorized(self):
        out = hard_decision(np.array([0.1, -0.1, 0.0]))
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_ties_map_as_where(self):
        # 0 and -0.0 go to +1 and NaN to -1, as np.where(x >= 0, 1, -1)
        # maps them, on real and complex input
        soft = np.array([0.0, -0.0, np.nan, 5e-324, -5e-324, np.inf, -np.inf])
        expected = np.where(soft >= 0.0, 1.0, -1.0)
        assert np.array_equal(expected, [1, 1, -1, 1, -1, 1, -1])
        for x in (soft, soft + 2j, soft.reshape(7, 1)):
            out = hard_decision(x)
            assert out.dtype == np.int8 and out.shape == x.shape
            assert np.array_equal(out.ravel(), expected)


class TestErfc:
    GRID = np.linspace(-30.0, 30.0, 120_001)
    TINY = np.finfo(np.float64).tiny

    def test_matches_math_erfc(self):
        # to the precision of Cephes' exp(-x^2), which loses up to about
        # 1e-13 relative near x = 23 (scipy.special.erfc shares it)
        want = np.array([math.erfc(x) for x in self.GRID])
        got = erfc(self.GRID)
        normal = want >= self.TINY
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
        assert np.all(got[~normal] < self.TINY)

    def test_matches_scipy_erfc(self):
        from scipy.special import erfc as scipy_erfc
        rng = np.random.default_rng(5)
        x = np.concatenate([self.GRID, rng.normal(0.0, 6.0, 100_000),
                            rng.choice([-1.0, 1.0], 100_000)
                            * np.exp(rng.uniform(-40.0, 4.0, 100_000))])
        want = scipy_erfc(x)
        got = erfc(x)
        normal = want >= self.TINY
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-15, atol=0)
        # below the normal range a double holds an absolute precision only
        np.testing.assert_allclose(got[~normal], want[~normal], rtol=0,
                                   atol=4 * np.finfo(np.float64).smallest_subnormal)

    def test_special_values_exact(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = erfc(x)
        np.testing.assert_array_equal(got, [1.0, 1.0, 0.0, 2.0, np.nan, 0.0, 2.0])

    def test_out_filled_in_place(self):
        x = np.linspace(-12.0, 12.0, 60).reshape(3, 4, 5)
        z = x.copy()
        assert erfc(z, out=z) is z and np.array_equal(z, erfc(x))
        strided = np.zeros((3, 4, 10))[..., ::2]
        assert erfc(x, out=strided) is strided
        assert np.array_equal(strided, erfc(x))

    def test_qfunc_fills_its_own_buffer(self):
        x = np.linspace(-12.0, 12.0, 60).reshape(3, 4, 5)
        kept = x.copy()
        q = _qfunc(x)
        assert q is not x and np.array_equal(x, kept)
        assert np.array_equal(q, 0.5 * erfc(x / np.sqrt(2.0)))


class TestReceiverProperties:
    def test_noiseless_interference_free_detection_exact(self):
        # K = 1, sigma2 -> 0: the slicer recovers every symbol
        cfg = SystemConfig(num_users=1, num_relays=1, group_size=1,
                           spreading_gain=16, packet_length=1000,
                           snr_db=120.0, rng_seed=7)
        codes = generate_codebook(cfg)
        rng = np.random.default_rng(8)
        state = draw_channel(cfg, codes, rng)
        b = np.where(rng.standard_normal(1000) >= 0, 1.0, -1.0)
        y = state.h_eff_sr[0, 0][:, None] * b
        for kind in (ReceiverKind.RAKE, ReceiverKind.MMSE):
            w = source_relay_filter_bank(state, 1e-12, kind)[0, 0]
            detected = hard_decision(np.conj(w) @ y)
            assert np.array_equal(detected, b), f"{kind} not exact"

    def test_mmse_dominates_rake_output_sinr(self):
        # statistical test over 1000 channel draws with K = 4 users; K > L
        # is a valid config only where free-form pairs serve the groups
        cfg = SystemConfig(num_users=4, num_relays=2, group_size=2,
                           spreading_gain=8, snr_db=8.0, rng_seed=9,
                           pair_mode=PairMode.ALL_PAIRS)
        codes = generate_codebook(cfg)
        rng = np.random.default_rng(10)
        sigma2 = cfg.noise_var

        def output_sinr(w, H, k):
            gains = np.abs(H.conj() @ w) ** 2
            noise = sigma2 * np.vdot(w, w).real
            return gains[k] / (gains.sum() - gains[k] + noise)

        totals = {ReceiverKind.RAKE: 0.0, ReceiverKind.MMSE: 0.0}
        for _ in range(1000):
            state = draw_channel(cfg, codes, rng)
            for kind in totals:
                W = source_relay_filter_bank(state, sigma2, kind)
                totals[kind] += output_sinr(W[0, 0], state.h_eff_sr[:, 0, :], 0)
        assert totals[ReceiverKind.MMSE] >= totals[ReceiverKind.RAKE]

    def test_filters_independent_of_data(self):
        cfg = SystemConfig(num_users=3, num_relays=3, group_size=3,
                           spreading_gain=8, snr_db=5.0, rng_seed=11)
        codes = generate_codebook(cfg)
        state = draw_channel(cfg, codes, np.random.default_rng(12))
        w1 = source_relay_filter_bank(state, cfg.noise_var, ReceiverKind.MMSE)
        w2 = source_relay_filter_bank(state, cfg.noise_var, ReceiverKind.MMSE)
        assert np.array_equal(w1, w2)


def oracle_detection_error_probs(users, relays, state, filters_sr, sigma2):
    """One relay, then one user at a time."""
    out = np.empty((len(users), len(relays)))
    for col, r in enumerate(relays):
        cross = filters_sr[users, r, :].conj() @ state.h_eff_sr[:, r, :].T
        power = np.abs(cross) ** 2
        noise = sigma2 * np.sum(np.abs(filters_sr[users, r, :]) ** 2, axis=1)
        for row, k in enumerate(users):
            signal = power[row, k]
            interference = power[row].sum() - signal
            gamma = signal / (interference + noise[row])
            out[row, col] = 0.5 * erfc(np.sqrt(gamma))
    return out


class TestDetectionErrorProbs:
    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]), groups=st.integers(1, 3),
           n=st.sampled_from([4, 8, 16]), snr_db=st.floats(-5.0, 30.0),
           kind=st.sampled_from(list(ReceiverKind)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_loop_oracle(self, m, groups, n, snr_db, kind, seed):
        rng = np.random.default_rng(seed)
        cfg = SystemConfig(num_users=m * groups, num_relays=m * groups,
                           spreading_gain=n, group_size=m, snr_db=snr_db)
        state = draw_channel(cfg, generate_codebook(cfg), rng)
        W = source_relay_filter_bank(state, cfg.noise_var, kind)
        users = [int(u) for u in rng.permutation(cfg.num_users)[:m]]
        relays = [int(r) for r in rng.permutation(cfg.num_relays)[:m]]
        got = detection_error_probs(users, pair_state(state, relays), W[:, relays],
                                    cfg.noise_var)
        assert np.array_equal(got, oracle_detection_error_probs(
            users, relays, state, W, cfg.noise_var))
