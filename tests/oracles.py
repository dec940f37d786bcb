"""Reference implementations the fast paths of plnc_sim are tested
against: the direct form of each computation, kept out of the package.

- invertible_binary: the pool of network_coding.encoder_table, by
  enumeration and determinant.
- random_designs_sequential: rejection loops over binary matrices, the
  law design_G_random draws from, one reception at a time.
- ml_calibration_outputs, design_G_ml: the explicit calibration block of
  design_G_ml_for_channel and the search over its outputs.
- mmse_refinement, mmse_fallback_flags: the textbook MMSE refinement
  P_ab R_b^-1 and its fallback flags from the condition number of every
  member.
- chain_error_exhaustive: select_G_mmse's scores over all 2^(m*m)
  relay-detection flip patterns and all 2^m data patterns.

The designs and decoders of the package read unit-gain streams, each
by its one noise variance nu; these references keep the streams'
physical outputs mu_j a_j + eta_j, with gains mu and noise powers
noise_var = sigma2 |f|^2, for which nu = noise_var / |mu|^2.  At unit
real gains they follow the package's arithmetic, bit for bit.
- solve_joint, sorted_levels, first_carrier: the joint decoder by a
  linear solve, and the NCS levels and carrying relays per call.
- pair_state: a slot's channel as pass 2 reads it, the pair's relays in
  order on the relay axis.
- chip_sinr_table: relay_selection.build_sinr_table in chip space, from
  the N-chip filter banks on the effective vectors.
- chip_rank_one_filters, chip_second_hop: the second hop's vector model,
  N-chip filters on the streams' code with their QR noise colouring,
  which the scalar filters of receivers.relay_dest_filter_bank reduce.
- rayleigh_bpsk_ber, relay_chain_ber, max_link_hop_ber: closed-form BER
  of a one-user, one-relay chain, unbuffered and buffered.

Encoders are rows of encoder_table(m) where the package takes them.
"""

import math
from itertools import product

import numpy as np

from plnc_sim.config import ReceiverKind
from plnc_sim.network_coding import _qfunc, argmin_with_ties
from plnc_sim.receivers import (effective_gains, hard_decision,
                                rank_one_outputs, relay_dest_filter_bank,
                                source_relay_filter_bank)
from plnc_sim.signal_model import (ChannelState, complex_gaussian,
                                   filter_output_maps)


def invertible_binary(m):
    """Every m x m 0/1 matrix with a nonzero determinant, (n, m, m), in
    the lexicographic order of the flattened entries."""
    every = np.array(list(product((0.0, 1.0), repeat=m * m))).reshape(-1, m, m)
    return every[np.abs(np.linalg.det(every)) > 1e-9]


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


def _training_block(training_symbols):
    training = np.asarray(training_symbols, dtype=np.float64)
    if training.ndim != 2 or training.shape[1] == 0:
        raise ValueError("calibration block must be a non-empty (m, T) array")
    return training


def ml_calibration_outputs(gains, noise_var, training_symbols, rng):
    """Filter outputs a calibration block would produce under each
    candidate encoder (invertible_binary order).

    The known training symbols are encoded with every candidate and
    sent over relay streams with gains mu_j = w_j^H h_j and noise powers
    noise_var_j = sigma2 ||w_j||^2; the same noise draw is shared by all
    candidates so the comparison is deterministic given the stream.
    Returns the outputs shaped (n_candidates, m, T).
    """
    training = _training_block(training_symbols)
    eta = complex_gaussian(rng, training.shape) * np.sqrt(noise_var)[:, None]
    ncs = np.swapaxes(invertible_binary(training.shape[0]), 1, 2) @ training
    return np.asarray(gains)[:, None] * ncs + eta


def design_G_ml(outputs_by_candidate, gains, training_symbols):
    """Exhaustive search over the invertible binary candidates.

    Each candidate decodes its own calibration outputs and is scored
    by the squared distance between the recovered and the known
    training symbols, summed over the block; ties break to the lowest
    candidate index.  Returns (row, per-candidate costs).
    """
    training = _training_block(training_symbols)
    candidates = invertible_binary(training.shape[0])
    z = np.asarray(outputs_by_candidate)
    if z.shape[0] != len(candidates):
        raise ValueError(f"expected outputs for {len(candidates)} candidates")
    norm = z / np.asarray(gains)[None, :, None]
    recovered = np.linalg.solve(np.swapaxes(candidates, 1, 2), norm)
    costs = np.sum((np.abs(training - recovered) ** 2).reshape(len(candidates), -1),
                   axis=1)
    return argmin_with_ties(costs), costs


def mmse_refinement(g, gains, noise_var):
    """The MMSE refinement P_ab R_b^-1 of relay-stream outputs
    z_j = mu_j a_j + eta_j, eta_j ~ CN(0, noise_var_j), for encoders g
    (..., m, m) and NCS symbols a = g^T b:
        P_ab[k, j] = C[k, j] conj(mu_j)
        R_b[j, i]  = mu_j conj(mu_i) C[j, i] + delta_ji noise_var_j
    with C = g^T g, or plain gain normalization diag(1/mu) where
    cond(R_b) > 1e12.  Leading axes broadcast, and real gains give real
    matrices.  Returns (refinement (..., m, m), fallback (...))."""
    mu = np.asarray(gains)
    nvar = np.asarray(noise_var)
    eye = np.eye(g.shape[-1])
    C = np.swapaxes(g, -1, -2) @ g
    P_ab = C * mu.conj()[..., None, :]
    R_b = (mu[..., :, None] * mu.conj()[..., None, :]) * C + nvar[..., None, :] * eye
    fallback = np.linalg.cond(R_b) > 1e12
    R_b = np.where(fallback[..., None, None], eye, R_b)
    refinement = np.linalg.solve(np.swapaxes(R_b.conj(), -1, -2),
                                 np.swapaxes(P_ab.conj(), -1, -2))
    refinement = np.swapaxes(refinement, -1, -2).conj()
    normalise = np.where(eye > 0, (1.0 / mu)[..., None, :], 0.0)
    return np.where(fallback[..., None, None], normalise, refinement), fallback


def mmse_fallback_flags(rows, gains, noise_var):
    """cond(R_b) > 1e12 for every member of a stack of rows, R_b being
    the refinement's output covariance (mmse_refinement)."""
    g = invertible_binary(np.shape(gains)[-1])[rows]
    return mmse_refinement(g, gains, noise_var)[1]


def chain_error_exhaustive(gains, noise_var, flip_probs):
    """select_G_mmse's scores evaluated on every flip and data pattern:
    (R..., n) for statistics (R..., m) and flip probabilities
    (R..., m, m)."""
    gains = np.asarray(gains)
    m = gains.shape[-1]
    g = invertible_binary(m)
    mu = gains[..., None, :]
    nvar = np.asarray(noise_var, dtype=np.float64)[..., None, :]
    p = np.asarray(flip_probs, dtype=np.float64)
    A = np.linalg.inv(np.swapaxes(g, -1, -2)) @ mmse_refinement(g, mu, nvar)[0]
    per_user_noise = (np.abs(A) ** 2 @ nvar[..., None])[..., 0]
    sigma_real = np.sqrt(np.maximum(per_user_noise / 2.0, 1e-300))

    masks = np.array(list(product((0, 1), repeat=m * m)),
                     dtype=np.float64).reshape(-1, m, m)      # [pattern, user, relay]
    weights = np.prod(np.where(masks > 0, p[..., None, :, :],
                               1.0 - p[..., None, :, :]), axis=(-2, -1))
    weights = weights[..., None, :]
    B = np.array(list(product((-1.0, 1.0), repeat=m))).T      # (m, n_pat)
    detected = B[None, :, None, :] * (1.0 - 2.0 * masks)[:, :, :, None]
    ncs = np.einsum("...kl,nklp->...nlp", g, detected)
    arg = np.einsum("...ul,...nlp->...nup", (A * mu[..., None, :]).real, ncs)
    arg *= B
    arg /= sigma_real[..., None, :, None]
    return np.einsum("...n,...nup->...", weights, _qfunc(arg)) / (m * B.shape[1])


def solve_joint(g, refined):
    """The joint decoder's hard decisions by a linear solve of the
    G^T-structured system: g (..., m, m), refined outputs (..., m, P)."""
    return hard_decision(np.linalg.solve(np.swapaxes(g, -1, -2), refined))


def sorted_levels(g):
    """Every relay's noiseless NCS values, (2^m, m) [level, relay] for one
    encoder g, each column sorted ascending."""
    return np.sort(np.array(list(product((-1.0, 1.0), repeat=len(g)))) @ g, axis=0)


def first_carrier(g):
    """Each user's first relay with a nonzero coefficient, by a loop."""
    return np.array([next(l for l in range(len(g)) if g[k, l] != 0)
                     for k in range(len(g))])


def pair_state(state, relays):
    """state with only the given relays, in that order, on its relay axis."""
    r = list(relays)
    return ChannelState(state.h_rd[r], state.h_eff_sd, state.h_eff_sr[:, r])


def chip_sinr_table(state, sigma2, kind, candidates):
    """build_sinr_table's (..., pairs, 2) metric from a ChannelState's
    effective vectors: the first hop's output powers |w^H h|^2 and
    energies ||w||^2 from the N-chip filters of source_relay_filter_bank,
    the second hop's from the relay-destination bank."""
    filters_sr = source_relay_filter_bank(state, sigma2, kind)
    filters_rd = relay_dest_filter_bank(state, sigma2, kind)
    gains_rd, _, colour_rd = rank_one_outputs(filters_rd, state.h_rd, sigma2)
    power = np.stack([
        (np.abs(effective_gains(filters_sr, state.h_eff_sr)) ** 2).sum(axis=-2),
        np.abs(gains_rd) ** 2], axis=-1)
    wnorm = np.stack([np.sum(np.abs(filters_sr) ** 2, axis=-1).sum(axis=-2),
                      colour_rd ** 2], axis=-1)
    member = np.zeros((len(candidates), power.shape[-2]))
    for row, relays in enumerate(candidates):
        member[row, list(relays)] = 1.0
    return member @ power / ((1.0 - member) @ power + sigma2 * (member @ wnorm))


def chip_rank_one_filters(rows, sigma2, kind):
    """N-chip filters for streams that each occupy an observation alone,
    one per row of rows (..., S, N): the effective vector for RAKE and,
    the MMSE covariance holding that stream plus noise only,
    (h h^H + s I)^-1 h = h / (s + ||h||^2)."""
    norms = np.sum(np.abs(rows) ** 2, axis=-1)
    if not np.all(norms > 0):
        raise ValueError("degenerate channel: effective vector is zero")
    if kind == ReceiverKind.RAKE:
        return rows.copy()
    return rows / (sigma2 + norms)[..., None]


def chip_second_hop(h, code, sigma2, kind):
    """One second-hop observation in the vector model: streams of
    coefficients h (..., S) on one unit-norm code (N,) and one N-chip
    filter on their superposition (S = 1: a linear sub-slot, S = m: the
    XOR pair).  Returns its output's gains (..., S), noise power sigma2
    ||w||^2 (...) and the QR colouring of filter_output_maps (...)."""
    rows = np.asarray(h)[..., None] * code                     # (..., S, N)
    w = chip_rank_one_filters(rows.sum(axis=-2)[..., None, :], sigma2, kind)
    gains, colour = filter_output_maps(w, rows)
    noise_var = sigma2 * np.sum(np.abs(w[..., 0, :]) ** 2, axis=-1)
    return gains[..., 0, :], noise_var, colour[..., 0, 0]


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
