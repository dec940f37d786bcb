"""RAKE and linear MMSE receive filter banks plus the BPSK slicer."""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import erfc

from .config import ReceiverKind


def hard_decision(soft):
    """BPSK slicer: +1 when Re(x) >= 0 else -1 (ties resolve to +1)."""
    return np.where(np.asarray(soft).real >= 0.0, 1.0, -1.0)


def _mmse_bank(H, sigma2):
    """Solve (H^T conj(H) + sigma2 I) W = H^T for all rows of H at once.

    H is (S, N): one effective vector per stream sharing the hop.
    Returns (S, N) filters.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    n = H.shape[1]
    cov = H.T @ H.conj() + sigma2 * np.eye(n)
    cov = 0.5 * (cov + cov.conj().T)
    factor = cho_factor(cov, lower=True)
    return cho_solve(factor, H.T).T


def source_relay_filter_bank(state, sigma2, kind: ReceiverKind):
    """Filters for every (user, relay) link of the first hop, (K, L, N).

    The MMSE covariance at a relay sums over all K users observed
    there, so one factorization per relay serves all its users.
    """
    K, L, N = state.h_eff_sr.shape
    if kind == ReceiverKind.RAKE:
        return state.h_eff_sr.copy()
    W = np.empty((K, L, N), dtype=np.complex128)
    for l in range(L):
        W[:, l, :] = _mmse_bank(state.h_eff_sr[:, l, :], sigma2)
    return W


def source_dest_filter_bank(state, sigma2, kind: ReceiverKind):
    """Direct-link filters for every user at the destination, (K, N)."""
    if kind == ReceiverKind.RAKE:
        return state.h_eff_sd.copy()
    return _mmse_bank(state.h_eff_sd, sigma2)


def rank_one_filters(rows, sigma2, kind: ReceiverKind):
    """Filters for streams that each occupy an observation alone, one
    per row of rows (S, N).

    The second hop schedules one relay stream per sub-slot (or the XOR
    pair's combined stream), so each MMSE covariance holds that stream
    plus noise only: (h h^H + s I)^-1 h = h / (s + ||h||^2).
    """
    norms = np.sum(np.abs(rows) ** 2, axis=-1)
    if not np.all(norms > 0):
        raise ValueError("degenerate channel: effective vector is zero")
    if kind == ReceiverKind.RAKE:
        return rows.copy()
    return rows / (sigma2 + norms)[..., None]


def relay_dest_filter_bank(state, sigma2, kind: ReceiverKind):
    """Second-hop filters, one per relay NCS stream, (L, N)."""
    return rank_one_filters(state.h_eff_rd, sigma2, kind)


def effective_gains(filters, h_eff):
    """w^H h for matching rows of two (..., N) arrays -> (...,) complex."""
    return np.sum(filters.conj() * h_eff, axis=-1)


def detection_error_probs(users, relays, state, filters_sr, sigma2):
    """Per-(user, relay) BPSK detection error probability at the relays,
    from the post-filter SINR with residual interference treated as
    Gaussian.  Returns an (m_users, m_relays) matrix."""
    W = np.swapaxes(filters_sr[np.ix_(users, relays)], 0, 1)   # (relay, user, N)
    cross = W.conj() @ state.h_eff_sr[:, relays, :].transpose(1, 2, 0)
    power = np.abs(cross) ** 2                                 # (relay, user, K)
    noise = sigma2 * np.sum(np.abs(W) ** 2, axis=-1)
    signal = power[:, np.arange(len(users)), users]
    gamma = signal / (power.sum(axis=-1) - signal + noise)
    return 0.5 * erfc(np.sqrt(gamma)).T
