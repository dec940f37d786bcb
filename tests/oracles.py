"""Reference implementations the fast paths of plnc_sim are tested
against: the direct form of each computation, kept out of the package.

- random_designs_sequential: design_G_random's rejection loop, one
  reception at a time.
- mmse_fallback_flags: the MMSE refinement's fallback flags from the
  condition number of every member.
- chain_error_exhaustive: predicted_chain_error's slicer errors over all
  2^(m*m) relay-detection flip patterns and all 2^m data patterns.
- pair_state: a slot's channel as pass 2 reads it, the pair's relays in
  order on the relay axis.
- rayleigh_bpsk_ber, relay_chain_ber, max_link_hop_ber: closed-form BER
  of a one-user, one-relay chain, unbuffered and buffered.
"""

import math
from itertools import product

import numpy as np

from plnc_sim.network_coding import _qfunc, design_G_mmse
from plnc_sim.signal_model import ChannelState


def random_designs_sequential(m, rng, count):
    """count rejection loops: (m, m) binary draws until one is
    invertible, (count, m, m)."""
    out = []
    for _ in range(count):
        while True:
            cand = rng.integers(0, 2, size=(m, m)).astype(np.float64)
            if abs(np.linalg.det(cand)) > 1e-9:
                out.append(cand)
                break
    return np.array(out).reshape(count, m, m)


def mmse_fallback_flags(encoders, gains, noise_var):
    """cond(R_b) > 1e12 for every member of a stack, R_b being the
    refinement's output covariance (network_coding.design_G_mmse)."""
    g = np.asarray(encoders, dtype=np.float64)
    mu = np.asarray(gains)
    C = np.swapaxes(g, -1, -2) @ g
    R_b = ((mu[..., :, None] * mu.conj()[..., None, :]) * C
           + np.asarray(noise_var)[..., None, :] * np.eye(g.shape[-1]))
    return np.linalg.cond(R_b) > 1e12


def chain_error_exhaustive(encoders, gains, noise_var, flip_probs):
    """predicted_chain_error evaluated on every flip and data pattern:
    (R..., E...) for encoders (E..., m, m), statistics (R..., m) and
    flip probabilities (R..., m, m)."""
    g = np.asarray(encoders, dtype=np.float64)
    m = g.shape[-1]
    gains = np.asarray(gains)
    lead = gains.shape[:-1]
    per_encoder = lead + (1,) * (g.ndim - 2)
    mu = gains.reshape(per_encoder + (m,))
    nvar = np.asarray(noise_var, dtype=np.float64).reshape(per_encoder + (m,))
    p = np.asarray(flip_probs, dtype=np.float64)
    decoders = design_G_mmse(g, mu, nvar).entries
    A = np.linalg.inv(np.swapaxes(g, -1, -2)).astype(np.complex128) @ decoders
    per_user_noise = (np.abs(A) ** 2 @ nvar[..., None])[..., 0]
    sigma_real = np.sqrt(np.maximum(per_user_noise / 2.0, 1e-300))

    masks = np.array(list(product((0, 1), repeat=m * m)),
                     dtype=np.float64).reshape(-1, m, m)      # [pattern, user, relay]
    weights = np.prod(np.where(masks > 0, p[..., None, :, :],
                               1.0 - p[..., None, :, :]), axis=(-2, -1))
    weights = weights.reshape(per_encoder + masks.shape[:1])
    B = np.array(list(product((-1.0, 1.0), repeat=m))).T      # (m, n_pat)
    detected = B[None, :, None, :] * (1.0 - 2.0 * masks)[:, :, :, None]
    ncs = np.einsum("...kl,nklp->...nlp", g, detected)
    arg = np.einsum("...ul,...nlp->...nup", (A * mu[..., None, :]).real, ncs)
    arg *= B
    arg /= sigma_real[..., None, :, None]
    return np.einsum("...n,...nup->...", weights, _qfunc(arg)) / (m * B.shape[1])


def pair_state(state, relays):
    """state with only the given relays, in that order, on its relay axis."""
    r = list(relays)
    return ChannelState(state.h_rd[r], state.h_eff_sd, state.h_eff_sr[:, r],
                        state.h_eff_rd[r])


def rayleigh_bpsk_ber(snr):
    """Mean BPSK bit error probability of a Rayleigh-faded link at mean
    SNR snr (linear): (1 - sqrt(snr / (1 + snr))) / 2 (Proakis, Digital
    Communications, ch. 14)."""
    return 0.5 * (1.0 - math.sqrt(snr / (1.0 + snr)))


def max_link_hop_ber(snr, J):
    """Mean BPSK bit error probability of a hop of the buffered chain
    with one relay of capacity J.  The occupancy is a birth-death chain:
    at 0 the slot receives, at J it transmits, and in between the better
    of the two i.i.d. hops wins, each with probability 1/2.  So 1/J of
    the hops are a single Rayleigh link and the rest the better of two,
    whose mean error is 2 P(snr) - P(snr / 2)."""
    single = rayleigh_bpsk_ber(snr)
    better = 2.0 * single - rayleigh_bpsk_ber(snr / 2.0)
    return single / J + (1.0 - 1.0 / J) * better


def relay_chain_ber(hop_ber):
    """BER of a decode-and-forward chain of two hops that each flip a
    bit with probability hop_ber: the bit arrives flipped when exactly
    one hop errs."""
    return 2.0 * hop_ber * (1.0 - hop_ber)
