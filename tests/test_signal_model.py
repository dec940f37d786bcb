"""Codebook, channel statistics and chip-rate synthesis checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plnc_sim import (ReceiverKind, SystemConfig, complex_gaussian, draw_channel,
                      generate_codebook, synthesize_first_phase,
                      synthesize_second_phase)
from plnc_sim.receivers import source_relay_filter_bank
from plnc_sim.signal_model import (data_symbols, draw_channels,
                                   filter_output_maps, real_gaussian)


def small_config(**kw):
    defaults = dict(num_users=6, num_relays=6, spreading_gain=16,
                    buffer_size=4, group_size=2, packet_length=100,
                    snr_db=10.0, rng_seed=5)
    defaults.update(kw)
    return SystemConfig(**defaults)


def drawn_gains(cfg, seed):
    """The link gains draw_channel(cfg, ..., default_rng(seed)) draws,
    read from the normals directly: real then imaginary parts of the
    source-destination, source-relay and relay-destination sets."""
    K, L = cfg.num_users, cfg.num_relays
    normals = np.random.default_rng(seed).standard_normal(2 * (K + K * L + L))
    parts = np.split(normals, np.cumsum([K, K, K * L, K * L, L]))
    h_sd, h_sr, h_rd = (np.sqrt(0.5) * (re + 1j * im)
                        for re, im in zip(parts[::2], parts[1::2]))
    return h_sd, h_sr.reshape(K, L), h_rd


class TestCodebook:
    def test_counts_and_norms(self):
        cfg = small_config()
        codes = generate_codebook(cfg)
        assert codes.shape == (6, 16)
        assert np.allclose(np.linalg.norm(codes, axis=1), 1.0, atol=1e-12)

    def test_single_chip_code(self):
        cfg = small_config(num_users=1, num_relays=1, group_size=1,
                           spreading_gain=1)
        codes = generate_codebook(cfg)
        assert codes.shape == (1, 1)
        assert abs(abs(codes[0, 0]) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        cfg = small_config()
        a = generate_codebook(cfg)
        b = generate_codebook(cfg)
        assert np.array_equal(a, b)
        other = generate_codebook(small_config(rng_seed=6))
        assert not np.array_equal(a, other)


class TestChannel:
    def test_fading_statistics(self):
        # law of large numbers on the declared CN(0,1) distribution
        cfg = small_config()
        codes = generate_codebook(cfg)
        rng = np.random.default_rng(0)
        # the unit-norm code projects an effective vector onto its gain
        draws = np.array([draw_channel(cfg, codes, rng).h_eff_sd[0] @ codes[0]
                          for _ in range(100_000)])
        n = draws.size
        assert abs(draws.mean()) < 3.0 / np.sqrt(n)   # within 3 sigma of zero
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02

    def test_equal_power_amplitudes(self):
        cfg = small_config()
        codes = generate_codebook(cfg)
        state = draw_channel(cfg, codes, np.random.default_rng(1))
        h_sd, h_sr, h_rd = drawn_gains(cfg, 1)
        assert np.array_equal(state.h_rd, h_rd)
        # every link amplitude is 1: an effective vector's norm is |h|
        assert np.allclose(np.linalg.norm(state.h_eff_sd, axis=-1),
                           np.abs(h_sd), atol=1e-12)
        assert np.allclose(np.linalg.norm(state.h_eff_sr, axis=-1),
                           np.abs(h_sr), atol=1e-12)

    def test_block_gains_are_the_normals(self):
        # a block of one slot holds the drawn gains themselves, bit for bit
        gains = draw_channels(small_config(), np.random.default_rng(2), 1)[0]
        for got, want in zip((gains.h_sd, gains.h_sr, gains.h_rd),
                             drawn_gains(small_config(), 2)):
            assert np.array_equal(got, want)

    def test_effective_vector_identity(self):
        cfg = small_config()
        codes = generate_codebook(cfg)
        state = draw_channel(cfg, codes, np.random.default_rng(2))
        _, h_sr, _ = drawn_gains(cfg, 2)
        for k in range(cfg.num_users):
            for l in range(cfg.num_relays):
                expected = codes[k] * h_sr[k, l]
                assert np.allclose(state.h_eff_sr[k, l], expected, atol=1e-12)
        ratio = state.h_eff_sr[2, 3] / h_sr[2, 3]
        assert np.allclose(ratio, codes[2], atol=1e-12)


class TestFirstPhase:
    def setup_method(self):
        self.cfg = small_config()
        self.codes = generate_codebook(self.cfg)
        self.state = draw_channel(self.cfg, self.codes, np.random.default_rng(3))

    def test_noiseless_single_user(self):
        cfg = small_config(num_users=1, num_relays=1, group_size=1)
        codes = generate_codebook(cfg)
        state = draw_channel(cfg, codes, np.random.default_rng(4))
        y_sd, _ = synthesize_first_phase(np.array([1.0]), state, 1e-30,
                                         np.random.default_rng(5))
        assert np.allclose(y_sd, state.h_eff_sd[0], atol=1e-12)

    def test_orthogonal_codes_no_cross_term(self):
        cfg = small_config(num_users=2, num_relays=2, spreading_gain=4)
        drawn = generate_codebook(cfg)
        state = draw_channel(cfg, drawn, np.random.default_rng(6))
        # force orthogonal codes and rebuild the effective vectors
        codes = np.array([[1, 1, 1, 1], [1, -1, 1, -1]]) / 2.0
        h_sd = np.sum(state.h_eff_sd * drawn, axis=-1)
        state.h_eff_sd = h_sd[:, None] * codes
        y_sd, _ = synthesize_first_phase(np.array([1.0, -1.0]), state, 1e-30,
                                         np.random.default_rng(7))
        out = codes[0] @ y_sd
        assert abs(out - h_sd[0] * 1.0) < 1e-10

    def test_rejects_non_bpsk(self):
        with pytest.raises(ValueError):
            synthesize_first_phase(np.full(6, 0.5), self.state, 0.1,
                                   np.random.default_rng(8))

    def test_noise_variance_empirical(self):
        # sample-variance estimate of the per-chip noise
        sigma2 = 0.37
        rng = np.random.default_rng(9)
        samples = complex_gaussian(rng, 100_000, sigma2)
        assert abs(np.mean(np.abs(samples) ** 2) - sigma2) < 0.02 * sigma2

    def test_complex_gaussian_reference_draw(self):
        # all real parts, then all imaginary parts, of the stream: the
        # draw the chip-rate reference and the ml calibration oracle read
        got = complex_gaussian(np.random.default_rng(31), (2, 3), 0.5)
        normals = np.random.default_rng(31).standard_normal((2, 2, 3))
        assert np.array_equal(got, 0.5 * (normals[0] + 1j * normals[1]))
        assert got[0, 0] == complex(-0.197650644293285, 0.39148993531504506)
        assert got[1, 2] == complex(0.12752906088716978, 0.6011949220676437)

    def test_energy_conservation(self):
        # E||y - n||^2 equals the sum of a^2 |h|^2 over active links
        sigma2 = 0.1
        rng = np.random.default_rng(10)
        b = np.where(rng.standard_normal((6, 2000)) >= 0, 1.0, -1.0)
        y_sd, _ = synthesize_first_phase(b, self.state, 1e-30, rng, relays=[])
        measured = np.mean(np.sum(np.abs(y_sd) ** 2, axis=0))
        expected = np.sum(np.abs(self.state.h_eff_sd) ** 2)  # unit-norm codes
        assert abs(measured - expected) < 0.05 * expected


class TestSecondPhase:
    def setup_method(self):
        self.cfg = small_config()
        self.codes = generate_codebook(self.cfg)
        self.state = draw_channel(self.cfg, self.codes, np.random.default_rng(11))
        self.code = self.codes[0]      # any unit-norm code

    def test_single_relay_noiseless(self):
        y = synthesize_second_phase(np.array([-1.0]), self.state, [1], self.code,
                                    1e-30, np.random.default_rng(12))
        assert np.allclose(y, -self.state.h_rd[1] * self.code, atol=1e-12)

    def test_zero_symbols_give_pure_noise(self):
        # the zero NCS value occurs for linear network coding
        y = synthesize_second_phase(np.array([0.0, 0.0]), self.state, [0, 1],
                                    self.code, 0.5, np.random.default_rng(13))
        n = complex_gaussian(np.random.default_rng(13), 16, 0.5)
        assert np.allclose(y, n, atol=1e-12)

    def test_superposition(self):
        # affine linearity: y(b1) + y(b2) = y(b1 + b2) + y(0) at a fixed
        # noise draw
        b1 = np.array([1.0, -1.0])
        b2 = np.array([2.0, 0.0])
        args = (self.state, [0, 1], self.code, 0.3)
        y1 = synthesize_second_phase(b1, *args, np.random.default_rng(14))
        y2 = synthesize_second_phase(b2, *args, np.random.default_rng(14))
        y12 = synthesize_second_phase(b1 + b2, *args, np.random.default_rng(14))
        y0 = synthesize_second_phase(b1 * 0, *args, np.random.default_rng(14))
        assert np.allclose(y1 + y2,
                           y12 + y0, atol=1e-12)

    def test_determinism(self):
        b = np.array([1.0, -1.0])
        y1 = synthesize_second_phase(b, self.state, [0, 1], self.code, 0.2,
                                     np.random.default_rng(15))
        y2 = synthesize_second_phase(b, self.state, [0, 1], self.code, 0.2,
                                     np.random.default_rng(15))
        assert np.array_equal(y1, y2)

    def test_rejects_code_of_other_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            synthesize_second_phase(np.array([1.0]), self.state, [0],
                                    2.0 * self.code, 0.2, np.random.default_rng(16))


class TestInPhaseSampling:
    # pass 2 samples the real parts of the filter outputs alone: real
    # noise coloured by R^T from a real QR, and data from raw words

    @pytest.mark.parametrize("kind", list(ReceiverKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("parallel", [False, True])
    def test_colouring_gram_is_real_filter_gram(self, kind, parallel):
        # R^T R = Re(conj(W) W^T) for every relay's pair of user filters
        # of random banks, also when two codes are equal up to sign (the
        # filters are parallel and the Gram is singular)
        cfg = small_config()
        codes = generate_codebook(cfg)
        if parallel:
            codes[1] = -codes[0]
        state = draw_channels(cfg, np.random.default_rng(21), 8).effective(codes)
        bank = source_relay_filter_bank(state, cfg.noise_var, kind)
        W = np.swapaxes(bank[:, :2], 1, 2)              # (slot, relay, 2, N)
        if parallel:        # the complex covariance conj(W) W^T is singular
            assert np.linalg.matrix_rank(W[0, 0], tol=1e-9) == 1
            # and with a real ratio between the rows the real one is too
            W = np.concatenate([W, W[..., :1, :] * np.array([1.0, -0.5])[:, None]])
        _, colour = filter_output_maps(W, W)
        assert colour.dtype == np.float64 and colour.shape == W.shape[:-1] + (2,)
        assert np.all(np.diagonal(colour, axis1=-2, axis2=-1) >= 0)
        gram = (W.conj() @ np.swapaxes(W, -1, -2)).real
        # colour is R^T, so the noise covariance colour colour^T is R^T R
        assert np.max(np.abs(colour @ np.swapaxes(colour, -1, -2) - gram)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), dims=st.integers(1, 5),
           extra=st.integers(0, 3), filters=st.integers(1, 4),
           streams=st.integers(1, 3), parallel=st.booleans())
    def test_maps_independent_of_the_basis(self, seed, dims, extra, filters,
                                           streams, parallel):
        # banks W and streams H on D dimensions, and the same in E >= D
        # dimensions through a real B with orthonormal rows, have the same
        # gains and colouring; M <= 2D filters, so that both colourings
        # have M columns, as the chips' and the coordinates' do.  A filter
        # that is a real multiple of an earlier one comes last, as the
        # third of three filters on codes equal up to sign does: a
        # singular Gram fixes only the rows of R before the dependent one
        rng = np.random.default_rng(seed)
        M = min(filters, 2 * dims)

        def complex_normals(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        W, H = complex_normals(2, M, dims), complex_normals(2, streams, dims)
        if parallel and M > 1:
            W[:, -1] = rng.standard_normal() * W[:, rng.integers(M - 1)]
        B = np.linalg.qr(rng.standard_normal((dims + extra, dims)))[0].T
        for got, want in zip(filter_output_maps(W @ B, H @ B),
                             filter_output_maps(W, H)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_real_gaussian_calls_and_variance(self):
        # one draw over a leading axis equals one draw per leading index,
        # as a draw fills its array in C order; the samples are
        # N(0, variance)
        stacked = real_gaussian(np.random.default_rng(22), (3, 2, 5), 0.3)
        rng = np.random.default_rng(22)
        assert np.array_equal(stacked, np.stack(
            [real_gaussian(rng, (2, 5), 0.3) for _ in range(3)]))
        samples = real_gaussian(np.random.default_rng(23), 100_000, 0.3)
        assert samples.dtype == np.float64
        assert abs(np.var(samples) - 0.3) < 0.02 * 0.3

    def test_data_symbols_read_whole_words_lowest_bit_first(self):
        # 3 draws of 2 x 40 bits: two words each, the last 48 bits dropped
        symbols = data_symbols(np.random.default_rng(24).bit_generator, (3, 2, 40))
        words = np.random.default_rng(24).bit_generator.random_raw(6).tolist()
        bits = [[(word >> j) & 1 for word in words[2 * r:2 * r + 2] for j in range(64)]
                for r in range(3)]
        expected = 1.0 - 2.0 * np.array([row[:80] for row in bits]).reshape(3, 2, 40)
        assert symbols.dtype == np.int8 and np.array_equal(symbols, expected)

    def test_data_bits_fair(self):
        # 10^6 bits: their mean lies within 5 sigma of 1/2
        symbols = data_symbols(np.random.default_rng(25).bit_generator, (1000, 1000))
        assert set(np.unique(symbols)) == {-1.0, 1.0}
        mean = np.mean(symbols == -1.0)
        assert abs(mean - 0.5) <= 5 * 0.5 / np.sqrt(symbols.size)
