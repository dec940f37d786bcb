"""Spreading codes, block-fading channels, and the two transmission
phases: chip-rate synthesis, and direct sampling of filter outputs.

The K users share every first-hop observation.  Fading is drawn as
link gains (ChannelGains), and a first-hop observation's effective
vectors, code times gain (ChannelState), are formed only where an
observation is synthesized or filtered, in D dimensions: the N chips
for the chip-rate reference, the codes' r = min(K, N) coordinates
(receivers.code_coordinates) for the slot machine, whose draws are the
same in either basis (filter_output_maps).  A second-hop observation
holds one code in white noise, so its filter output is a scalar
statistic of the relay-destination gains and that hop keeps no codes
(receivers.relay_dest_filter_bank); the slot machine scales each
linear sub-slot stream to unit gain, so its second phase reads no
filter at all.

Conventions used throughout:
  * codes are random +-1/sqrt(N) chips, unit Euclidean norm
  * channel coefficients are zero-mean circularly-symmetric complex
    Gaussian with unit variance, redrawn once per packet slot
  * equal power allocation: every link amplitude is 1, the operating
    point is set through the noise variance sigma2 alone
  * sigma2 is the total variance per complex sample (sigma2/2 per
    real dimension)
  * the chip-rate reference (synthesize_*) samples complex chips; the
    slot machine samples filter outputs directly, and only their
    in-phase parts, the one dimension every BPSK slicer reads: an
    output's real part is its gain's real part times the symbols plus
    N(0, sigma2/2)-per-dimension noise coloured by the filters
  * filter_noise draws that noise for the first phase, and
    real_gaussian the second phase's N(0, 1/2) block, which each lane
    scales by its stream's noise; a draw fills its array in C order, so
    one draw over leading observation axes equals one draw per
    observation
  * data symbols are int8 +-1 = 1 - 2c for the bits c of whole 64-bit
    words of a bit generator, lowest bit first; every hard value of the
    slot machine (a slicer's decision, an XOR NCS symbol) is int8 +-1 too
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


@dataclass
class ChannelGains:
    """The link gains of one coherence block, drawn a block of slots at a
    time: pass 1 ranks the relay pairs from them alone.  Every array may
    carry the same leading axes, e.g. one slot per index; gains[i]
    indexes them all."""

    h_rd: np.ndarray        # (L,) complex, relay -> destination
    h_sd: np.ndarray        # (K,) complex, source -> destination
    h_sr: np.ndarray        # (K, L) complex, source -> relay

    def __getitem__(self, index):
        return ChannelGains(*(array[index] for array in vars(self).values()))

    def effective(self, codes):
        """The ChannelState of these gains on codes (K, D): every
        first-hop gain times its user's code."""
        return ChannelState(self.h_rd, self.h_sd[..., None] * codes,
                            self.h_sr[..., None] * codes[:, None, :])


@dataclass
class ChannelState:
    """One coherence block as the first hop sees it: the
    relay-destination gains plus the effective signature vectors of
    every first-hop link (code * coefficient; every amplitude is 1).
    The codes are unit norm, so an effective vector's norm is its link
    gain's modulus.  Every array may carry the same leading axes, e.g.
    one reception per index."""

    h_rd: np.ndarray        # (L,) complex
    h_eff_sd: np.ndarray    # (K, D) complex
    h_eff_sr: np.ndarray    # (K, L, D) complex


def generate_codebook(config: SystemConfig) -> np.ndarray:
    """Draw the K user codes, (K, N) real with unit-norm rows.

    Deterministic given config.rng_seed; the codebook is fixed for an
    entire simulation run.
    """
    rng = np.random.default_rng([config.rng_seed, 0x5EED])
    n = config.spreading_gain
    chips = rng.integers(0, 2, size=(config.num_users, n)).astype(np.float64)
    return (2.0 * chips - 1.0) / np.sqrt(n)


def complex_gaussian(rng, shape, variance=1.0):
    """Zero-mean circularly-symmetric complex Gaussian samples with the
    given total variance per sample: all real parts are drawn, then all
    imaginary parts."""
    normals = rng.standard_normal((2,) + tuple(np.atleast_1d(shape)))
    return np.sqrt(variance / 2.0) * (normals[0] + 1j * normals[1])


def real_gaussian(rng, shape, variance=1.0):
    """Zero-mean real Gaussian samples of the given variance, the
    in-phase parts of complex_gaussian samples of twice that variance."""
    normals = rng.standard_normal(tuple(np.atleast_1d(shape)))
    normals *= math.sqrt(variance)
    return normals


def data_symbols(source, shape):
    """int8 BPSK symbols +-1 = 1 - 2c of shape (R, ...), R independent draws
    of prod(shape[1:]) bits c each: a draw reads the bits of
    ceil(prod(shape[1:]) / 64) whole 64-bit words, lowest bit first, and
    drops the rest of its last word.  source is a bit generator, or
    anything whose random_raw((R, words)) equals R such calls of one
    row each; a bit generator keeps no bits between calls, so one call
    for R draws equals R calls of one."""
    shape = tuple(shape)
    count = math.prod(shape[1:])
    words = source.random_raw((shape[0], -(-count // 64)))
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1,
                         count=count, bitorder="little")
    return (1 - 2 * bits.view(np.int8)).reshape(shape)


def draw_channels(config: SystemConfig, rng, n):
    """n slots of fading in one block of normals, as ChannelGains with a
    leading slot axis: per slot, the source-destination, source-relay
    and relay-destination gains, in that order, each as its real then
    its imaginary parts, so a block of n equals n blocks of one."""
    K, L = config.num_users, config.num_relays
    sizes = (K, K, K * L, K * L, L, L)       # real, imaginary per link set
    normals = np.split(rng.standard_normal((n, sum(sizes))),
                       np.cumsum(sizes)[:-1], axis=1)
    scale = np.sqrt(0.5)
    h_sd = scale * (normals[0] + 1j * normals[1])
    h_sr = (scale * (normals[2] + 1j * normals[3])).reshape(n, K, L)
    h_rd = scale * (normals[4] + 1j * normals[5])
    return ChannelGains(h_rd, h_sd, h_sr)


def draw_channel(config: SystemConfig, codes, rng) -> ChannelState:
    """Draw fresh fading coefficients for every link of one packet slot,
    as the effective vectors on the codes (K, N)."""
    return draw_channels(config, rng, 1)[0].effective(codes)


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


def synthesize_second_phase(ncs_symbols, state: ChannelState, relays, code,
                            sigma2, rng):
    """Chip-rate reference of the relay-set transmission of network-coded
    symbols on one unit-norm code (N,).

    ncs_symbols has shape (m,) or (m, P) and may be any real values
    (linear network coding produces multilevel symbols, including 0).
    Passing a single relay in `relays` gives the per-relay sub-slot
    observation used by the linear schemes; passing the whole pair
    superposes the streams.  Returns the samples, (N,) or (N, P).
    """
    code = np.asarray(code, dtype=np.float64)
    if not np.isclose(np.linalg.norm(code), 1.0, rtol=0, atol=1e-12):
        raise ValueError("the second-phase code must be unit norm")
    b = np.asarray(ncs_symbols, dtype=np.float64)
    y = np.multiply.outer(code, state.h_rd[list(relays)] @ b)
    return y + complex_gaussian(rng, y.shape, sigma2)


def filter_output_maps(filters, h_eff):
    """The maps from stream symbols and white noise to the in-phase
    parts of the outputs conj(W) @ y of filter banks W on observations
    y = h_eff^T b + n, n ~ CN(0, sigma2 I_D).

    filters (..., M, D) hold one filter per row and h_eff (..., S, D)
    the effective vectors of the S streams on the hop; leading axes
    broadcast and index independent observations.  Every receiver is
    linear, so the outputs are the signal conj(W) h_eff^T b plus noise
    CN(0, sigma2 conj(W) W^T).  For real symbols b the outputs' real
    parts are Re(conj(W) h_eff^T) b plus real noise of covariance
    (sigma2 / 2) Re(conj(W) W^T), the Gram of the real (2D, M) matrix A
    of the stacked [Re W^T; Im W^T], here with its rows interleaved (a
    view of W's memory; a row order changes no Gram).  With the reduced
    QR A = Q R that noise is R^T times N(0, sigma2 / 2 I), which holds
    even when two filter rows are parallel (codes equal up to sign),
    where a Cholesky factor of the covariance does not exist.  R's rows
    are negated where its diagonal is negative, which changes no law (a
    white normal's sign) but makes R, where the Gram is nonsingular, a
    function of it alone, the same for W B and h_eff B in any basis B
    (B B^T = I).  Returns (gains conj(W) h_eff^T (..., M, S) complex,
    whose real parts act on the real parts, and the real colouring R^T
    (..., M, min(2D, M))).
    """
    gains = filters.conj() @ np.swapaxes(h_eff, -1, -2)
    parts = np.asarray(filters, dtype=np.complex128).view(np.float64)
    r = np.linalg.qr(np.swapaxes(parts, -1, -2), mode="r")
    r *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None]
    return gains, np.swapaxes(r, -1, -2)


def filter_noise(colour, shape, sigma2, rng):
    """colour @ N(0, sigma2/2 I), the in-phase part of complex noise of
    variance sigma2 per chip after the filters, for outputs of shape
    (..., M, P), colour (..., M, C) being filter_output_maps'
    (..., M, min(2D, M)) colouring."""
    white = real_gaussian(rng, shape[:-2] + (colour.shape[-1], shape[-1]),
                          sigma2 / 2.0)
    return colour @ white


def first_phase_maps(state: ChannelState, users, filters_sd, filters_sr):
    """filter_output_maps of the first phase for the group users, with
    real gains: the destination's direct filters, then each relay's, on
    the observations of all K users.

    state is the pair's: its relay axis holds the pair's relays in
    order.  filters_sd (K, D) and filters_sr (K, relays, D) are the
    destination's and the pair's relay banks.  Every argument may carry
    leading reception axes (users (..., m), the state's arrays and the
    banks), which the maps gain.  Returns (gains Re(conj(W) h_eff^T)
    (..., 1 + relays, m, K), colouring R^T (..., 1 + relays, m, m)).
    """
    users = np.asarray(users)
    sd = np.take_along_axis(filters_sd, users[..., :, None], axis=-2)
    sr = np.take_along_axis(filters_sr, users[..., :, None, None], axis=-3)
    maps = (filter_output_maps(sd[..., None, :, :], state.h_eff_sd[..., None, :, :]),
            filter_output_maps(np.swapaxes(sr, -3, -2),
                               np.swapaxes(state.h_eff_sr, -3, -2)))
    (gains_sd, colour_sd), (gains_sr, colour_sr) = maps
    return (np.concatenate([gains_sd.real, gains_sr.real], axis=-3),
            np.concatenate([colour_sd, colour_sr], axis=-3))


def sample_first_phase(symbols, maps, sigma2, rng):
    """Symbol-level counterpart of synthesize_first_phase followed by the
    first-hop filter banks, for the group users only, in-phase parts
    only: the real parts of the chip-rate outputs, in distribution.

    symbols (K, P) are every user's; maps are first_phase_maps.  Returns
    the destination's direct outputs (m, P) and every relay's m outputs,
    (relays, m, P), real, each observation with independent noise of m P
    normals.  With leading reception axes on symbols (..., K, P) and the
    maps, each reception draws its noise as one call would.
    """
    gains, colour = maps
    signal = gains @ _check_bpsk(symbols)[..., None, :, :]
    out = signal + filter_noise(colour, signal.shape, sigma2, rng)
    return out[..., 0, :, :], out[..., 1:, :, :]
