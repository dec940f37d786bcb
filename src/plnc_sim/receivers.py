"""RAKE and linear MMSE receive filter banks, N-chip on the first hop
and scalar on the second, plus the BPSK slicer."""

import numpy as np
from scipy.special import erfc

from .config import ReceiverKind


def hard_decision(soft):
    """BPSK slicer: +1 when Re(x) >= 0 else -1 (ties resolve to +1)."""
    return np.where(np.asarray(soft).real >= 0.0, 1.0, -1.0)


def _mmse_bank(H, sigma2):
    """MMSE filters W = (H H^H + sigma2 I_S)^-1 H for every leading index
    of H at once.

    H is (..., S, N): one effective vector per stream sharing an
    observation.  The row-stream form equals the textbook N x N one,
    ((H^T conj(H) + sigma2 I_N)^-1 H^T)^T, by the push-through identity,
    but solves an S x S system (6 x 6 instead of 16 x 16 on the paper
    system); it is used for every S and N.  Returns (..., S, N) filters.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    cov = H @ np.swapaxes(H.conj(), -1, -2) + sigma2 * np.eye(H.shape[-2])
    return np.linalg.solve(cov, H)


def source_relay_filter_bank(state, sigma2, kind: ReceiverKind):
    """Filters for every (user, relay) link of the first hop, (..., K, L, N)
    for a state whose arrays carry leading axes (...).

    The MMSE covariance at a relay sums over all K users observed
    there, so one solve per relay serves all its users.
    """
    if kind == ReceiverKind.RAKE:
        return state.h_eff_sr.copy()
    return _mmse_bank(state.h_eff_sr.swapaxes(-3, -2), sigma2).swapaxes(-3, -2)


def source_dest_filter_bank(state, sigma2, kind: ReceiverKind):
    """Direct-link filters for every user at the destination, (..., K, N)
    for a state whose arrays carry leading axes (...)."""
    if kind == ReceiverKind.RAKE:
        return state.h_eff_sd.copy()
    return _mmse_bank(state.h_eff_sd, sigma2)


def rank_one_filters(h, sigma2, kind: ReceiverKind):
    """Filters for streams that each occupy an observation alone on one
    unit-norm code, as the coefficient f of the filter f * code, one per
    channel coefficient of h (...).

    The second hop schedules one relay stream per sub-slot (or the XOR
    pair's combined stream), so each observation holds one code in white
    noise: f = h for RAKE and, as the MMSE covariance holds that stream
    plus noise only, (h h^H + s I)^-1 h code = h / (s + |h|^2) code.
    """
    power = np.abs(h) ** 2
    if not np.all(power > 0):
        raise ValueError("degenerate channel: a stream's coefficient is zero")
    if kind == ReceiverKind.RAKE:
        return h.copy()
    return h / (sigma2 + power)


def rank_one_outputs(filters, h, sigma2):
    """What scalar filters f (rank_one_filters) make of streams h * code *
    b + n on one unit-norm code, n ~ CN(0, sigma2 I_N): the output is
    conj(f) h b + |f| CN(0, sigma2).  Returns the gains conj(f) h, the
    noise powers sigma2 |f|^2 and the colourings |f|; filters broadcast
    against h."""
    colour = np.abs(filters)
    return filters.conj() * h, sigma2 * colour ** 2, colour


def relay_dest_filter_bank(state, sigma2, kind: ReceiverKind):
    """Second-hop filters, one scalar per relay stream, (..., L) for a
    state whose arrays carry leading axes (...).  A relay whose gain is
    zero gets the zero filter, a stream of no power and no noise: the
    bank serves every relay of a channel block, and only a lane that
    sends on that relay fails (rank_one_filters)."""
    live = np.abs(state.h_rd) ** 2 > 0
    filters = rank_one_filters(np.where(live, state.h_rd, 1.0), sigma2, kind)
    return np.where(live, filters, 0.0)


def effective_gains(filters, h_eff):
    """w^H h for matching rows of two (..., N) arrays -> (...,) complex."""
    return np.sum(filters.conj() * h_eff, axis=-1)


def detection_error_probs(users, state, filters_sr, sigma2):
    """Per-(user, relay) BPSK detection error probability at the pair's
    relays, from the post-filter SINR with residual interference treated
    as Gaussian.  state and filters_sr (K, relays, N) are the pair's,
    its relays in order on the relay axis.  Returns an (m_users,
    relays) matrix; users (..., m), the state's arrays and the bank may
    carry leading reception axes (...), which the result gains."""
    users = np.asarray(users)
    W = np.swapaxes(np.take_along_axis(filters_sr, users[..., :, None, None],
                                       axis=-3), -3, -2)      # (relay, user, N)
    cross = W.conj() @ np.moveaxis(state.h_eff_sr, -3, -1)   # (relay, user, K)
    power = np.abs(cross) ** 2
    noise = sigma2 * np.sum(np.abs(W) ** 2, axis=-1)
    signal = np.take_along_axis(power, users[..., None, :, None], axis=-1)[..., 0]
    gamma = signal / (power.sum(axis=-1) - signal + noise)
    return np.swapaxes(0.5 * erfc(np.sqrt(gamma)), -1, -2)
