"""Spreading codes, block-fading channels, and the two transmission
phases: chip-rate synthesis, and direct sampling of filter outputs.

Conventions used throughout:
  * codes are random +-1/sqrt(N) chips, unit Euclidean norm
  * channel coefficients are zero-mean circularly-symmetric complex
    Gaussian with unit variance, redrawn once per packet slot
  * equal power allocation: every link amplitude is 1, the operating
    point is set through the noise variance sigma2 alone
  * sigma2 is the total variance per complex sample (sigma2/2 per
    real dimension)
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class CodeBook:
    """Per-user signature sequences plus one shared sequence per user
    group for the network-coded symbol stream."""

    codes: np.ndarray       # (K, N) real, unit-norm rows
    ncs_codes: np.ndarray   # (K/m, N) real, unit-norm rows

    def __post_init__(self):
        for arr in (self.codes, self.ncs_codes):
            norms = np.linalg.norm(arr, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-12):
                raise ValueError("spreading codes must be unit norm")


@dataclass
class ChannelState:
    """One coherence block: scalar link gains plus the derived effective
    signature vectors (code * coefficient; every amplitude is 1)."""

    h_sd: np.ndarray        # (K,) complex
    h_sr: np.ndarray        # (K, L) complex
    h_rd: np.ndarray        # (L,) complex
    h_eff_sd: np.ndarray    # (K, N) complex
    h_eff_sr: np.ndarray    # (K, L, N) complex
    h_eff_rd: np.ndarray    # (L, N) complex, built with each relay's group code


def _unit_chip_rows(rng, rows, n):
    chips = rng.integers(0, 2, size=(rows, n)).astype(np.float64)
    return (2.0 * chips - 1.0) / np.sqrt(n)


def generate_codebook(config: SystemConfig) -> CodeBook:
    """Draw the K user codes and the K/m group NCS codes.

    Deterministic given config.rng_seed; the codebook is fixed for an
    entire simulation run.
    """
    rng = np.random.default_rng([int(config.rng_seed) & 0xFFFFFFFFFFFFFFFF, 0x5EED])
    codes = _unit_chip_rows(rng, config.num_users, config.spreading_gain)
    ncs_codes = _unit_chip_rows(rng, config.num_groups, config.spreading_gain)
    return CodeBook(codes=codes, ncs_codes=ncs_codes)


def complex_gaussian(rng, shape, variance=1.0):
    """Zero-mean circularly-symmetric complex Gaussian samples with the
    given total variance per sample."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def draw_channel(config: SystemConfig, codebook: CodeBook,
                 relay_group_ids, rng) -> ChannelState:
    """Draw fresh fading coefficients for every link of one packet slot.

    relay_group_ids maps each relay index to its user-group index so
    the relay-destination effective vectors can use that group's NCS
    spreading code.
    """
    K, L = config.num_users, config.num_relays
    h_sd = complex_gaussian(rng, K)
    h_sr = complex_gaussian(rng, (K, L))
    h_rd = complex_gaussian(rng, L)

    h_eff_sd = h_sd[:, None] * codebook.codes
    h_eff_sr = h_sr[:, :, None] * codebook.codes[:, None, :]
    rd_codes = codebook.ncs_codes[np.asarray(relay_group_ids, dtype=int)]
    h_eff_rd = h_rd[:, None] * rd_codes
    return ChannelState(h_sd=h_sd, h_sr=h_sr, h_rd=h_rd, h_eff_sd=h_eff_sd,
                        h_eff_sr=h_eff_sr, h_eff_rd=h_eff_rd)


def _check_bpsk(symbols):
    arr = np.asarray(symbols, dtype=np.float64)
    if not np.all(np.abs(arr) == 1.0):
        raise ValueError("first-phase symbols must be +-1")
    return arr


def synthesize_first_phase(symbols, state: ChannelState, sigma2, rng,
                           relays=None):
    """Simultaneous uplink transmission of all K users.

    symbols has shape (K,) or (K, P).  Returns the destination
    observation and one observation per requested relay (all relays by
    default), each with independent noise: the destination's samples
    (N,) or (N, P) and a list of the relays' samples.
    """
    b = _check_bpsk(symbols)
    if relays is None:
        relays = range(state.h_eff_sr.shape[1])
    # (K, N)^T @ (K, P) -> (N, P); 1-D symbol input yields an (N,) vector
    y_sd = np.tensordot(state.h_eff_sd, b, axes=(0, 0))
    y_sd = y_sd + complex_gaussian(rng, y_sd.shape, sigma2)
    out_sr = []
    for l in relays:
        y = np.tensordot(state.h_eff_sr[:, l, :], b, axes=(0, 0))
        y = y + complex_gaussian(rng, y.shape, sigma2)
        out_sr.append(y)
    return y_sd, out_sr


def synthesize_second_phase(ncs_symbols, state: ChannelState, relays,
                            sigma2, rng, h_eff=None):
    """Relay-set transmission of network-coded symbols on the shared
    group code.

    ncs_symbols has shape (m,) or (m, P) and may be any real values
    (linear network coding produces multilevel symbols, including 0).
    Passing a single relay in `relays` gives the per-relay sub-slot
    observation used by the linear schemes; passing the whole pair
    superposes the streams.  Returns the samples, (N,) or (N, P).
    """
    b = np.asarray(ncs_symbols, dtype=np.float64)
    rows = state.h_eff_rd[list(relays)] if h_eff is None else np.asarray(h_eff)
    y = np.tensordot(rows, b, axes=(0, 0))
    return y + complex_gaussian(rng, y.shape, sigma2)


def sample_filter_outputs(filters, h_eff, symbols, sigma2, rng):
    """Outputs conj(W) @ y of filter banks W on observations
    y = h_eff^T b + n, n ~ CN(0, sigma2 I_N), sampled at symbol level.

    filters (..., M, N) hold one filter per row, h_eff (..., S, N) the
    effective vectors of the S streams on the hop and symbols (S, P) or
    (..., S, P) their symbols; leading axes broadcast and index
    independent observations.  Every receiver is linear, so this equals
    chip-rate synthesis followed by the filters in distribution: the
    signal is conj(W) h_eff^T b and the noise CN(0, sigma2 conj(W) W^T).
    With the reduced QR W^T = Q R that noise is R^H times CN(0, sigma2 I),
    which holds even when two filter rows are parallel (codes equal up to
    sign), where a Cholesky factor of the covariance does not exist.
    Returns (..., M, P) complex.
    """
    signal = (filters.conj() @ np.swapaxes(h_eff, -1, -2)) @ symbols
    r = np.linalg.qr(np.swapaxes(filters, -1, -2), mode="r")
    white_shape = signal.shape[:-2] + (r.shape[-2], signal.shape[-1])
    white = complex_gaussian(rng, white_shape, sigma2)
    return signal + np.swapaxes(r.conj(), -1, -2) @ white


def sample_first_phase(symbols, state: ChannelState, users, relays,
                       filters_sd, filters_sr, sigma2, rng):
    """Symbol-level counterpart of synthesize_first_phase followed by the
    first-hop filter banks, for the group users only.

    filters_sd (K, N) and filters_sr (K, L, N) are the destination's and
    the relays' banks.  Returns the destination's direct outputs (m, P)
    and every relay's m outputs, (len(relays), m, P), each observation
    with independent noise.
    """
    users, relays = list(users), list(relays)
    filters = np.concatenate([filters_sd[None, users],
                              filters_sr[users][:, relays].swapaxes(0, 1)])
    h_eff = np.concatenate([state.h_eff_sd[None],
                            state.h_eff_sr[:, relays].swapaxes(0, 1)])
    out = sample_filter_outputs(filters, h_eff, _check_bpsk(symbols), sigma2, rng)
    return out[0], out[1:]
