"""Symbol-level filter outputs against the chip-rate oracle.

For fixed channels and fixed symbols, the outputs the slot machine
samples directly, the in-phase parts every BPSK slicer reads, must have
the conditional mean and covariance of the real parts of chip-rate
synthesis followed by the same filter bank: every relay's m
correlated outputs, the destination's direct outputs, a linear
sub-slot and the XOR combined stream, under both receivers, and with
two user codes equal up to sign (parallel filters).
"""

import numpy as np
import pytest

from plnc_sim import ReceiverKind, SystemConfig
from plnc_sim.receivers import (rank_one_outputs, relay_dest_filter_bank,
                                source_dest_filter_bank, source_relay_filter_bank)
from plnc_sim.signal_model import (draw_channel, filter_noise,
                                   first_phase_maps, generate_codebook,
                                   sample_first_phase,
                                   synthesize_first_phase,
                                   synthesize_second_phase)

from oracles import pair_state

T = 20_000          # noise realizations per case
SIGMAS = 5.0        # tolerance in standard errors of the difference
NOISELESS = 1e-30
USERS = [1, 4]      # one group of the K = 6 users
RELAYS = (2, 5)
KINDS = (ReceiverKind.RAKE, ReceiverKind.MMSE)


def paper_state(seed, codes=None):
    cfg = SystemConfig(snr_db=6.0, rng_seed=seed)
    codes = generate_codebook(cfg) if codes is None else codes
    state = draw_channel(cfg, codes, np.random.default_rng(seed))
    return cfg, codes, state


def assert_same_moments(z, oracle):
    """The symbol-level (M, T) outputs z are real, and their sample mean
    and covariance agree with those of the real parts of the chip-rate
    block oracle within SIGMAS standard errors of the difference."""
    assert z.shape == oracle.shape
    assert np.isrealobj(z)
    oracle = oracle.real
    n = z.shape[-1]
    scale = oracle.std(axis=1)
    tol = SIGMAS * np.sqrt(2.0 / n) * np.outer(scale, scale) + 1e-12

    def moments(x):
        mean = x.mean(axis=1)
        c = x - mean[:, None]
        return mean, c @ c.T / (n - 1)

    (mean_a, cov_a), (mean_b, cov_b) = moments(z), moments(oracle)
    assert np.all(np.abs(mean_a - mean_b)
                  <= SIGMAS * np.sqrt(2.0 / n) * scale + 1e-12), (mean_a, mean_b)
    assert np.all(np.abs(cov_a - cov_b) <= tol), (cov_a, cov_b)


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
        np.testing.assert_allclose(sampled, chip.real, atol=1e-9)

    def test_codes_equal_up_to_sign(self, kind):
        """Parallel filter rows make the noise covariance singular; the
        QR factor still samples it."""
        cfg = SystemConfig(rng_seed=37)
        codes = generate_codebook(cfg)
        codes[USERS[1]] = -codes[USERS[0]]
        cfg, _, state = paper_state(37, codes)
        f_sr = source_relay_filter_bank(state, cfg.noise_var, kind)
        assert np.linalg.matrix_rank(f_sr[USERS, RELAYS[0]], tol=1e-9) == 1
        symbols = fixed_symbols(cfg.num_users, 38)
        sampled, chip = first_phase_pair(state, kind, cfg.noise_var, symbols, 39)
        assert np.all(np.isfinite(sampled))
        for obs in range(sampled.shape[0]):
            assert_same_moments(sampled[obs], chip[obs])


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
class TestSecondPhase:
    # the symbol-level second hop works from the relay-destination gains
    # alone; the chip-rate reference sends on an explicit unit-norm code
    # and applies the N-chip filter f * code

    @staticmethod
    def _setup(kind, seed):
        cfg, codes, state = paper_state(seed)
        h = state.h_rd[list(RELAYS)]
        filters = relay_dest_filter_bank(state, cfg.noise_var, kind)[list(RELAYS)]
        return cfg, state, codes[seed % cfg.num_users], h, filters

    def test_linear_sub_slots(self, kind):
        # one relay stream per sub-slot; multilevel NCS values, as G^T b
        cfg, state, code, h, filters = self._setup(kind, 41)
        sigma2 = cfg.noise_var
        ncs = np.repeat(np.array([[2.0], [0.0]]), T, axis=1)
        gains, _, colour = rank_one_outputs(filters, h, sigma2)
        noise = filter_noise(colour[:, None, None], (len(ncs), 1, T), sigma2,
                             np.random.default_rng(42))
        sampled = gains.real[:, None] * ncs + noise[:, 0]
        rng = np.random.default_rng(43)
        for pos, relay in enumerate(RELAYS):
            y = synthesize_second_phase(ncs[pos:pos + 1], state, [relay], code,
                                        sigma2, rng)
            chip = (filters[pos] * code).conj() @ y
            assert_same_moments(sampled[pos:pos + 1], chip[None])

    def test_xor_combined_stream(self, kind):
        # both relays on one code, one filter on the superposition
        cfg, state, code, h, _ = self._setup(kind, 44)
        sigma2 = cfg.noise_var
        combined = h.sum()
        f = combined if kind == ReceiverKind.RAKE else \
            combined / (sigma2 + abs(combined) ** 2)
        ncs = np.repeat(np.array([[1.0], [-1.0]]), T, axis=1)
        gains, _, colour = rank_one_outputs(np.array([[f]]), h, sigma2)
        sampled = gains.real @ ncs + filter_noise(colour, (1, T), sigma2,
                                                  np.random.default_rng(45))
        y = synthesize_second_phase(ncs, state, RELAYS, code, sigma2,
                                    np.random.default_rng(46))
        assert_same_moments(sampled, ((f * code).conj() @ y)[None])
