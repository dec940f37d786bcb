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

import math
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
    """One coherence block: the relay-destination gains plus the
    effective signature vectors of every link (code * coefficient; every
    amplitude is 1).  The codes are unit norm, so an effective vector's
    norm is its link gain's modulus.  Every array may carry the same
    leading axes, e.g. one slot per index; state[i] indexes them all."""

    h_rd: np.ndarray        # (L,) complex
    h_eff_sd: np.ndarray    # (K, N) complex
    h_eff_sr: np.ndarray    # (K, L, N) complex
    h_eff_rd: np.ndarray    # (L, N) complex, built with each relay's group code

    def __getitem__(self, index):
        return ChannelState(*(array[index] for array in vars(self).values()))


def _unit_chip_rows(rng, rows, n):
    chips = rng.integers(0, 2, size=(rows, n)).astype(np.float64)
    return (2.0 * chips - 1.0) / np.sqrt(n)


def generate_codebook(config: SystemConfig) -> CodeBook:
    """Draw the K user codes and the K/m group NCS codes.

    Deterministic given config.rng_seed; the codebook is fixed for an
    entire simulation run.
    """
    rng = np.random.default_rng([config.rng_seed, 0x5EED])
    codes = _unit_chip_rows(rng, config.num_users, config.spreading_gain)
    ncs_codes = _unit_chip_rows(rng, config.num_groups, config.spreading_gain)
    return CodeBook(codes=codes, ncs_codes=ncs_codes)


def complex_gaussian(rng, shape, variance=1.0, calls=()):
    """Zero-mean circularly-symmetric complex Gaussian samples with the
    given total variance per sample.

    calls gives leading axes of independent calls: the result, of shape
    calls + shape, equals one call per leading index in C order, bit for
    bit, because each call draws all its real parts, then all its
    imaginary parts.
    """
    shape = tuple(np.atleast_1d(shape))
    normals = rng.standard_normal((math.prod(calls), 2) + shape)
    samples = np.sqrt(variance / 2.0) * (normals[:, 0] + 1j * normals[:, 1])
    return samples.reshape(tuple(calls) + shape)


def draw_channels(config: SystemConfig, codebook: CodeBook,
                  relay_group_ids, rng, n):
    """n successive draw_channel calls in one block of normals: the same
    ChannelStates, bit for bit, stacked on a leading slot axis.  The
    source-destination and source-relay gains are drawn first, in that
    order, and kept only in the effective vectors."""
    K, L = config.num_users, config.num_relays
    sizes = (K, K, K * L, K * L, L, L)       # real, imaginary per link set
    normals = np.split(rng.standard_normal((n, sum(sizes))),
                       np.cumsum(sizes)[:-1], axis=1)
    scale = np.sqrt(0.5)
    h_sd = scale * (normals[0] + 1j * normals[1])
    h_sr = (scale * (normals[2] + 1j * normals[3])).reshape(n, K, L)
    h_rd = scale * (normals[4] + 1j * normals[5])

    h_eff_sd = h_sd[:, :, None] * codebook.codes
    h_eff_sr = h_sr[..., None] * codebook.codes[:, None, :]
    rd_codes = codebook.ncs_codes[np.asarray(relay_group_ids, dtype=int)]
    h_eff_rd = h_rd[..., None] * rd_codes
    return ChannelState(h_rd, h_eff_sd, h_eff_sr, h_eff_rd)


def draw_channel(config: SystemConfig, codebook: CodeBook,
                 relay_group_ids, rng) -> ChannelState:
    """Draw fresh fading coefficients for every link of one packet slot.

    relay_group_ids maps each relay index to its user-group index so
    the relay-destination effective vectors can use that group's NCS
    spreading code.
    """
    return draw_channels(config, codebook, relay_group_ids, rng, 1)[0]


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
                            sigma2, rng):
    """Relay-set transmission of network-coded symbols on the shared
    group code.

    ncs_symbols has shape (m,) or (m, P) and may be any real values
    (linear network coding produces multilevel symbols, including 0).
    Passing a single relay in `relays` gives the per-relay sub-slot
    observation used by the linear schemes; passing the whole pair
    superposes the streams.  Returns the samples, (N,) or (N, P).
    """
    b = np.asarray(ncs_symbols, dtype=np.float64)
    y = np.tensordot(state.h_eff_rd[list(relays)], b, axes=(0, 0))
    return y + complex_gaussian(rng, y.shape, sigma2)


def filter_output_maps(filters, h_eff):
    """The maps from stream symbols and white noise to the outputs
    conj(W) @ y of filter banks W on observations y = h_eff^T b + n,
    n ~ CN(0, sigma2 I_N).

    filters (..., M, N) hold one filter per row and h_eff (..., S, N)
    the effective vectors of the S streams on the hop; leading axes
    broadcast and index independent observations.  Every receiver is
    linear, so the outputs are the signal conj(W) h_eff^T b plus noise
    CN(0, sigma2 conj(W) W^T).  With the reduced QR W^T = Q R that noise
    is R^H times CN(0, sigma2 I), which holds even when two filter rows
    are parallel (codes equal up to sign), where a Cholesky factor of
    the covariance does not exist.  Returns (gains conj(W) h_eff^T
    (..., M, S), colouring R^H (..., M, min(N, M))).
    """
    gains = filters.conj() @ np.swapaxes(h_eff, -1, -2)
    r = np.linalg.qr(np.swapaxes(filters, -1, -2), mode="r")
    return gains, np.swapaxes(r.conj(), -1, -2)


def sample_filter_outputs(maps, symbols, sigma2, rng, call_axes=0):
    """Filter outputs sampled at symbol level, equal to chip-rate
    synthesis followed by the filters in distribution.

    maps are filter_output_maps and symbols (S, P) or (..., S, P) the
    streams' symbols.  The first call_axes leading axes of the result
    index separate observations that each draw their noise as one call
    would.  Returns (..., M, P) complex.
    """
    gains, colour = maps
    signal = gains @ symbols
    return signal + filter_noise(colour, signal.shape, sigma2, rng, call_axes)


def filter_noise(colour, shape, sigma2, rng, call_axes=0):
    """The noise part of sample_filter_outputs: colour @ CN(0, sigma2 I)
    for filter outputs of shape (..., M, P), colour being the maps'
    (..., M, min(N, M)) colouring; the first call_axes axes of shape
    draw as separate calls."""
    white = complex_gaussian(rng, shape[call_axes:-2] + (colour.shape[-1], shape[-1]),
                             sigma2, calls=shape[:call_axes])
    return colour @ white


def first_phase_maps(state: ChannelState, users, filters_sd, filters_sr):
    """filter_output_maps of the first phase for the group users: the
    destination's direct filters, then each relay's, on the observations
    of all K users.

    state is the pair's: its relay axis holds the pair's relays in
    order.  filters_sd (K, N) and filters_sr (K, relays, N) are the
    destination's and the pair's relay banks.  Every argument may carry
    leading reception axes (users (..., m), the state's arrays and the
    banks), which the maps gain.
    """
    users = np.asarray(users)
    sd = np.take_along_axis(filters_sd, users[..., :, None], axis=-2)
    sr = np.take_along_axis(filters_sr, users[..., :, None, None], axis=-3)
    filters = np.concatenate([sd[..., None, :, :], np.swapaxes(sr, -3, -2)],
                             axis=-3)
    h_eff = np.concatenate([state.h_eff_sd[..., None, :, :],
                            np.swapaxes(state.h_eff_sr, -3, -2)], axis=-3)
    return filter_output_maps(filters, h_eff)


def sample_first_phase(symbols, maps, sigma2, rng):
    """Symbol-level counterpart of synthesize_first_phase followed by the
    first-hop filter banks, for the group users only.

    symbols (K, P) are every user's; maps are first_phase_maps.  Returns
    the destination's direct outputs (m, P) and every relay's m outputs,
    (relays, m, P), each observation with independent noise.  With
    leading reception axes on symbols (..., K, P) and the maps, each
    reception draws its noise as one call would.
    """
    symbols = _check_bpsk(symbols)
    out = sample_filter_outputs(maps, symbols[..., None, :, :], sigma2, rng,
                                call_axes=symbols.ndim - 2)
    return out[..., 0, :, :], out[..., 1:, :, :]
