"""Codebook, channel statistics and chip-rate synthesis checks."""

import numpy as np
import pytest

from plnc_sim import (SystemConfig, complex_gaussian, draw_channel,
                      generate_codebook, synthesize_first_phase,
                      synthesize_second_phase)


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
        book = generate_codebook(cfg)
        assert book.codes.shape == (6, 16)
        assert np.allclose(np.linalg.norm(book.codes, axis=1), 1.0, atol=1e-12)

    def test_single_chip_code(self):
        cfg = small_config(num_users=1, num_relays=1, group_size=1,
                           spreading_gain=1)
        book = generate_codebook(cfg)
        assert book.codes.shape == (1, 1)
        assert abs(abs(book.codes[0, 0]) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        cfg = small_config()
        a = generate_codebook(cfg)
        b = generate_codebook(cfg)
        assert np.array_equal(a.codes, b.codes)
        other = generate_codebook(small_config(rng_seed=6))
        assert not np.array_equal(a.codes, other.codes)


class TestChannel:
    def test_fading_statistics(self):
        # law of large numbers on the declared CN(0,1) distribution
        cfg = small_config()
        book = generate_codebook(cfg)
        rng = np.random.default_rng(0)
        # the unit-norm code projects an effective vector onto its gain
        draws = np.array([draw_channel(cfg, book, rng).h_eff_sd[0] @ book.codes[0]
                          for _ in range(100_000)])
        n = draws.size
        assert abs(draws.mean()) < 3.0 / np.sqrt(n)   # within 3 sigma of zero
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02

    def test_equal_power_amplitudes(self):
        cfg = small_config()
        book = generate_codebook(cfg)
        state = draw_channel(cfg, book, np.random.default_rng(1))
        h_sd, h_sr, h_rd = drawn_gains(cfg, 1)
        assert np.array_equal(state.h_rd, h_rd)
        # every link amplitude is 1: an effective vector's norm is |h|
        assert np.allclose(np.linalg.norm(state.h_eff_sd, axis=-1),
                           np.abs(h_sd), atol=1e-12)
        assert np.allclose(np.linalg.norm(state.h_eff_sr, axis=-1),
                           np.abs(h_sr), atol=1e-12)

    def test_effective_vector_identity(self):
        cfg = small_config()
        book = generate_codebook(cfg)
        state = draw_channel(cfg, book, np.random.default_rng(2))
        _, h_sr, _ = drawn_gains(cfg, 2)
        for k in range(cfg.num_users):
            for l in range(cfg.num_relays):
                expected = book.codes[k] * h_sr[k, l]
                assert np.allclose(state.h_eff_sr[k, l], expected, atol=1e-12)
        ratio = state.h_eff_sr[2, 3] / h_sr[2, 3]
        assert np.allclose(ratio, book.codes[2], atol=1e-12)


class TestFirstPhase:
    def setup_method(self):
        self.cfg = small_config()
        self.book = generate_codebook(self.cfg)
        self.state = draw_channel(self.cfg, self.book, np.random.default_rng(3))

    def test_noiseless_single_user(self):
        cfg = small_config(num_users=1, num_relays=1, group_size=1)
        book = generate_codebook(cfg)
        state = draw_channel(cfg, book, np.random.default_rng(4))
        y_sd, _ = synthesize_first_phase(np.array([1.0]), state, 1e-30,
                                         np.random.default_rng(5))
        assert np.allclose(y_sd, state.h_eff_sd[0], atol=1e-12)

    def test_orthogonal_codes_no_cross_term(self):
        cfg = small_config(num_users=2, num_relays=2, spreading_gain=4)
        book = generate_codebook(cfg)
        state = draw_channel(cfg, book, np.random.default_rng(6))
        # force orthogonal codes and rebuild the effective vectors
        codes = np.array([[1, 1, 1, 1], [1, -1, 1, -1]]) / 2.0
        h_sd = np.sum(state.h_eff_sd * book.codes, axis=-1)
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
        self.book = generate_codebook(self.cfg)
        self.state = draw_channel(self.cfg, self.book, np.random.default_rng(11))
        self.code = self.book.codes[0]      # any unit-norm code

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
