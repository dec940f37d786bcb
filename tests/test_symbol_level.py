"""Symbol-level filter outputs against the chip-rate oracle.

For fixed channels and fixed symbols, the outputs the slot machine
samples directly must have the conditional mean and covariance of
chip-rate synthesis followed by the same filter bank: every relay's m
correlated outputs, the destination's direct outputs, a linear
sub-slot and the XOR combined stream, under both receivers, and with
two group codes equal up to sign (parallel filters).
"""

import numpy as np
import pytest

from plnc_sim import ReceiverKind, SystemConfig
from plnc_sim.receivers import (relay_dest_filter_bank, source_dest_filter_bank,
                                source_relay_filter_bank)
from plnc_sim.signal_model import (CodeBook, draw_channel, filter_output_maps,
                                   first_phase_maps, generate_codebook,
                                   sample_filter_outputs, sample_first_phase,
                                   synthesize_first_phase,
                                   synthesize_second_phase)

from oracles import pair_state

T = 20_000          # noise realizations per case
SIGMAS = 5.0        # tolerance in standard errors of the difference
NOISELESS = 1e-30
USERS = [1, 4]      # one group of the K = 6 users
RELAYS = (2, 5)
KINDS = (ReceiverKind.RAKE, ReceiverKind.MMSE)


def paper_state(seed, codebook=None):
    cfg = SystemConfig(snr_db=6.0, rng_seed=seed)
    book = generate_codebook(cfg) if codebook is None else codebook
    state = draw_channel(cfg, book, [0, 0, 1, 1, 2, 2], np.random.default_rng(seed))
    return cfg, book, state


def assert_same_moments(z, oracle):
    """Sample mean, covariance and pseudo-covariance of two (M, T)
    output blocks agree within SIGMAS standard errors of the difference."""
    assert z.shape == oracle.shape
    n = z.shape[-1]
    scale = np.sqrt(np.mean(np.abs(oracle - oracle.mean(axis=1, keepdims=True)) ** 2,
                            axis=1))
    tol = SIGMAS * np.sqrt(2.0 / n) * np.outer(scale, scale) + 1e-12

    def moments(x):
        mean = x.mean(axis=1)
        c = x - mean[:, None]
        return mean, c @ c.conj().T / (n - 1), c @ c.T / (n - 1)

    (mean_a, cov_a, pcov_a), (mean_b, cov_b, pcov_b) = moments(z), moments(oracle)
    assert np.all(np.abs(mean_a - mean_b)
                  <= SIGMAS * np.sqrt(2.0 / n) * scale + 1e-12), (mean_a, mean_b)
    assert np.all(np.abs(cov_a - cov_b) <= tol), (cov_a, cov_b)
    assert np.all(np.abs(pcov_a - pcov_b) <= tol), (pcov_a, pcov_b)


def first_phase_pair(state, kind, sigma2, symbols, seed, noise_var=None):
    """(symbol-level, chip-rate) first-phase outputs of the group users:
    index 0 is the destination, 1.. the relays of RELAYS.  The filters
    are designed for sigma2; noise_var (default sigma2) is the noise."""
    noise_var = sigma2 if noise_var is None else noise_var
    f_sd = source_dest_filter_bank(state, sigma2, kind)
    f_sr = source_relay_filter_bank(state, sigma2, kind)
    maps = first_phase_maps(pair_state(state, RELAYS), USERS, f_sd,
                            f_sr[:, list(RELAYS)])
    soft_sd, soft_sr = sample_first_phase(symbols, maps, noise_var,
                                          np.random.default_rng(seed))
    y_sd, y_sr = synthesize_first_phase(symbols, state, noise_var,
                                        np.random.default_rng(seed + 1),
                                        relays=RELAYS)
    chip = [f_sd[USERS].conj() @ y_sd]
    chip += [f_sr[USERS, r].conj() @ y for r, y in zip(RELAYS, y_sr)]
    return np.concatenate([soft_sd[None], soft_sr]), np.stack(chip)


def fixed_symbols(num, seed):
    """One random symbol vector repeated T times: each column is a fresh
    noise draw around the same conditional mean."""
    b = np.where(np.random.default_rng(seed).standard_normal(num) >= 0, 1.0, -1.0)
    return np.repeat(b[:, None], T, axis=1)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
class TestFirstPhase:
    def test_relay_and_direct_moments(self, kind):
        cfg, _, state = paper_state(31)
        symbols = fixed_symbols(cfg.num_users, 32)
        sampled, chip = first_phase_pair(state, kind, cfg.noise_var, symbols, 33)
        assert sampled.shape == (1 + len(RELAYS), len(USERS), T)
        for obs in range(sampled.shape[0]):
            assert_same_moments(sampled[obs], chip[obs])

    def test_noiseless_signal_exact(self, kind):
        cfg, _, state = paper_state(34)
        rng = np.random.default_rng(35)
        symbols = np.where(rng.standard_normal((cfg.num_users, 64)) >= 0, 1.0, -1.0)
        sampled, chip = first_phase_pair(state, kind, cfg.noise_var, symbols, 36,
                                         noise_var=NOISELESS)
        np.testing.assert_allclose(sampled, chip, atol=1e-9)

    def test_codes_equal_up_to_sign(self, kind):
        """Parallel filter rows make the noise covariance singular; the
        QR factor still samples it."""
        cfg = SystemConfig(rng_seed=37)
        book = generate_codebook(cfg)
        codes = book.codes.copy()
        codes[USERS[1]] = -codes[USERS[0]]
        cfg, _, state = paper_state(37, CodeBook(codes=codes,
                                                 ncs_codes=book.ncs_codes))
        f_sr = source_relay_filter_bank(state, cfg.noise_var, kind)
        assert np.linalg.matrix_rank(f_sr[USERS, RELAYS[0]], tol=1e-9) == 1
        symbols = fixed_symbols(cfg.num_users, 38)
        sampled, chip = first_phase_pair(state, kind, cfg.noise_var, symbols, 39)
        assert np.all(np.isfinite(sampled))
        for obs in range(sampled.shape[0]):
            assert_same_moments(sampled[obs], chip[obs])


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
class TestSecondPhase:
    @staticmethod
    def _setup(kind, seed):
        cfg, _, state = paper_state(seed)
        rows = state.h_eff_rd[list(RELAYS)]
        filters = relay_dest_filter_bank(state, cfg.noise_var, kind)[list(RELAYS)]
        return cfg, state, rows, filters

    def test_linear_sub_slots(self, kind):
        # one relay stream per sub-slot; multilevel NCS values, as G^T b
        cfg, state, rows, filters = self._setup(kind, 41)
        sigma2 = cfg.noise_var
        ncs = np.repeat(np.array([[2.0], [0.0]]), T, axis=1)
        maps = filter_output_maps(filters[:, None], rows[:, None])
        sampled = sample_filter_outputs(maps, ncs[:, None], sigma2,
                                        np.random.default_rng(42))[:, 0]
        rng = np.random.default_rng(43)
        for pos, relay in enumerate(RELAYS):
            y = synthesize_second_phase(ncs[pos:pos + 1], state, [relay], sigma2, rng)
            chip = filters[pos].conj() @ y
            assert_same_moments(sampled[pos:pos + 1], chip[None])

    def test_xor_combined_stream(self, kind):
        # both relays on the pair's code, one filter on the superposition
        cfg, state, rows, _ = self._setup(kind, 44)
        sigma2 = cfg.noise_var
        combined = rows.sum(axis=0)
        w = combined if kind == ReceiverKind.RAKE else \
            combined / (sigma2 + np.vdot(combined, combined).real)
        ncs = np.repeat(np.array([[1.0], [-1.0]]), T, axis=1)
        sampled = sample_filter_outputs(filter_output_maps(w[None], rows), ncs,
                                        sigma2, np.random.default_rng(45))
        y = synthesize_second_phase(ncs, state, RELAYS, sigma2,
                                    np.random.default_rng(46))
        assert_same_moments(sampled, (w.conj() @ y)[None])
