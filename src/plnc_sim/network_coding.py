"""XOR and linear physical-layer network coding.

Covers the bit/symbol mappings, NCS generation at the relays, the three
coding-matrix designs (random binary, exhaustive search, closed-form
MMSE) and both destination decoders (joint system solve and
direct-link-aided cancellation).

Matrix convention: entry [k, l] of an encoder weights user k of the
group in the combination transmitted by relay l, so the stacked NCS
vector is G^T b for user symbols b.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.special import erfc

from .config import Role, Scheme
from .receivers import hard_decision
from .signal_model import complex_gaussian


def _qfunc(x):
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


@dataclass(frozen=True)
class GroupAssignment:
    """One sub transmission group: m users served by m relays."""

    users: tuple
    relays: tuple

    def __post_init__(self):
        if len(set(self.users)) != len(self.users):
            raise ValueError("duplicate user index in group")
        if len(set(self.relays)) != len(self.relays):
            raise ValueError("duplicate relay index in group")


def make_group_assignments(config, rng):
    """Randomly partition users and relays into groups of m."""
    m = config.group_size
    users = rng.permutation(config.num_users)
    relays = rng.permutation(config.num_relays)
    return [GroupAssignment(users=tuple(int(u) for u in users[g * m:(g + 1) * m]),
                            relays=tuple(int(r) for r in relays[g * m:(g + 1) * m]))
            for g in range(config.num_groups)]


@dataclass
class CodingMatrix:
    """m x m coding matrix with its provenance.

    Encoders are binary {0,1} and invertible over the reals; decoders
    (the MMSE refinement matrix) are unconstrained complex/real.
    """

    entries: np.ndarray
    design: Scheme
    role: Role
    fallback: bool = False   # MMSE decoder fell back to plain inversion

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128 if
                                  self.role == Role.DECODER else np.float64)
        if self.role == Role.ENCODER:
            if not np.all(np.isin(self.entries, (0.0, 1.0))):
                raise ValueError("encoder entries must be binary {0,1}")
            if abs(np.linalg.det(self.entries)) <= 1e-9:
                raise ValueError("encoder matrix must be invertible")
        elif not np.all(np.isfinite(self.entries)):
            raise ValueError("decoder entries must be finite")


def _entries(M, dtype=None):
    """Entries of a CodingMatrix, or M itself as an array."""
    return np.asarray(M.entries if isinstance(M, CodingMatrix) else M, dtype=dtype)


def bit_to_symbol(c):
    """BPSK map b = 1 - 2c."""
    return 1.0 - 2.0 * np.asarray(c, dtype=np.float64) if np.ndim(c) else 1.0 - 2.0 * c


def symbol_to_bit(b):
    """Inverse map c = (1 - b) / 2."""
    arr = (1.0 - np.asarray(b, dtype=np.float64)) / 2.0
    return arr.astype(np.int64) if arr.ndim else int(arr)


def xor_encode(bits):
    """Modulo-2 sum of the detected bits at one relay, mapped to +-1.

    bits has shape (m,) or (m, P); the reduction runs over axis 0.
    """
    arr = np.asarray(bits, dtype=np.int64)
    return bit_to_symbol(np.bitwise_xor.reduce(arr, axis=0))


def encode_ncs(G, detected_by_relay):
    """NCS packet for the whole pair: relay l combines its own
    detections with column l.  detected_by_relay is (m, m, P) indexed
    [relay, user, symbol]; returns (m, P)."""
    det = np.asarray(detected_by_relay, dtype=np.float64)
    return np.einsum("kl,lkp->lp", _entries(G, np.float64), det)


@lru_cache(maxsize=None)
def enumerate_invertible_binary(m):
    """All invertible m x m binary matrices, (n, m, m) read-only, in a
    fixed lexicographic order of their flattened entries (6 matrices for
    m = 2)."""
    every = np.array(list(product((0.0, 1.0), repeat=m * m))).reshape(-1, m, m)
    out = every[np.abs(np.linalg.det(every)) > 1e-9]
    out.setflags(write=False)
    return out


def design_G_random(m, rng) -> CodingMatrix:
    """Uniform draw over the invertible binary matrices by rejection."""
    while True:
        cand = rng.integers(0, 2, size=(m, m)).astype(np.float64)
        if abs(np.linalg.det(cand)) > 1e-9:
            return CodingMatrix(entries=cand, design=Scheme.RANDOM, role=Role.ENCODER)


# ---------------------------------------------------------------------------
# exhaustive (training-based) design
# ---------------------------------------------------------------------------

def _training_block(training_symbols):
    training = np.asarray(training_symbols, dtype=np.float64)
    if training.ndim != 2 or training.shape[1] == 0:
        raise ValueError("calibration block must be a non-empty (m, T) array")
    return training


def ml_calibration_outputs(gains, noise_var, training_symbols, rng):
    """Filter outputs a calibration block would produce under each
    candidate encoder.

    The known training symbols are encoded with every candidate and
    sent over relay streams with gains mu_j = w_j^H h_j and noise powers
    noise_var_j = sigma2 ||w_j||^2; the same noise draw is shared by all
    candidates so the comparison is deterministic given the stream.
    Returns the outputs shaped (n_candidates, m, T).
    """
    training = _training_block(training_symbols)
    eta = complex_gaussian(rng, training.shape) * np.sqrt(noise_var)[:, None]
    ncs = np.swapaxes(enumerate_invertible_binary(training.shape[0]), 1, 2) @ training
    return np.asarray(gains)[:, None] * ncs + eta


def argmin_with_ties(costs, rtol=1e-9, atol=1e-12):
    """Lowest index among all costs tied with the minimum.

    Candidates whose costs agree up to floating-point evaluation order
    (permutation encoders produce mathematically identical costs) must
    resolve deterministically, so anything within tolerance of the
    minimum counts as tied.
    """
    costs = np.asarray(costs, dtype=np.float64)
    low = costs.min()
    return int(np.flatnonzero(costs <= low + atol + rtol * abs(low))[0])


def design_G_ml(outputs_by_candidate, gains, training_symbols):
    """Exhaustive search over the invertible binary candidates.

    Each candidate decodes its own calibration outputs and is scored
    by the squared distance between the recovered and the known
    training symbols, summed over the block; ties break to the lowest
    candidate index.  Returns (matrix, per-candidate costs).
    """
    training = _training_block(training_symbols)
    candidates = enumerate_invertible_binary(training.shape[0])
    z = np.asarray(outputs_by_candidate)
    if z.shape[0] != len(candidates):
        raise ValueError(f"expected outputs for {len(candidates)} candidates")
    norm = z / np.asarray(gains)[None, :, None]
    recovered = np.linalg.solve(np.swapaxes(candidates, 1, 2), norm)
    costs = np.sum((np.abs(training - recovered) ** 2).reshape(len(candidates), -1),
                   axis=1)
    best = argmin_with_ties(costs)
    G = CodingMatrix(entries=candidates[best].copy(), design=Scheme.ML,
                     role=Role.ENCODER)
    return G, costs


def design_G_ml_for_channel(gains, noise_var, training_symbols, rng) -> CodingMatrix:
    """Simulate the calibration block on the pair's relay streams, then
    search."""
    outputs = ml_calibration_outputs(gains, noise_var, training_symbols, rng)
    G, _ = design_G_ml(outputs, gains, training_symbols)
    return G


# ---------------------------------------------------------------------------
# closed-form MMSE design
# ---------------------------------------------------------------------------

def _mmse_decoders(encoders, gains, noise_var):
    """Closed-form MMSE refinement P_ab R_b^-1 for a stack of encoders
    (..., m, m) on one pair's relay streams.

    With z_j = mu_j a_j + eta_j, a = G^T b the NCS symbols of unit-variance
    user symbols b, and noise eta_j ~ CN(0, noise_var_j) independent
    across the relay sub-slots:
        P_ab[k, j] = E[a_k conj(z_j)] = C[k, j] conj(mu_j)
        R_b[j, i]  = mu_j conj(mu_i) C[j, i] + delta_ji noise_var_j
    with C = G^T G.  An encoder whose R_b is numerically singular
    (condition number above 1e12) gets plain gain normalization
    diag(1/mu) instead, and so does the whole stack if the solve still
    fails.  Returns (entries (..., m, m), fallback (...,) bool).
    """
    g = np.asarray(encoders, dtype=np.float64)
    mu = np.asarray(gains)
    C = np.swapaxes(g, -1, -2) @ g
    P_ab = C * mu.conj()[None, :]
    R_b = (mu[:, None] * mu.conj()[None, :]) * C + np.diag(noise_var)
    fallback = np.linalg.cond(R_b) > 1e12
    if np.any(fallback):        # swap singular members out of the batched solve
        R_b = np.where(fallback[..., None, None], np.eye(g.shape[-1]), R_b)
    try:
        entries = np.linalg.solve(np.swapaxes(R_b.conj(), -1, -2),
                                  np.swapaxes(P_ab.conj(), -1, -2))
        entries = np.swapaxes(entries, -1, -2).conj()
    except np.linalg.LinAlgError:
        entries = np.zeros(R_b.shape, dtype=np.complex128)
        fallback = np.ones_like(fallback)
    if np.any(fallback):
        entries = np.where(fallback[..., None, None], np.diag(1.0 / mu), entries)
    return entries, fallback


def design_G_mmse(encoder, gains, noise_var) -> CodingMatrix:
    """Closed-form MMSE refinement matrix P_ab R_b^-1 for the NCS
    estimate at the destination; used in place of plain inversion.

    gains and noise_var are the pair's relay-stream statistics
    mu_j = w_j^H h_j and sigma2 ||w_j||^2.  Falls back to plain gain
    normalization (diag(1/mu)) with the fallback flag set if R_b is
    numerically singular.
    """
    entries, fallback = _mmse_decoders(_entries(encoder), gains, noise_var)
    return CodingMatrix(entries=entries, design=Scheme.MMSE_DESIGN,
                        role=Role.DECODER, fallback=bool(fallback))


@lru_cache(maxsize=None)
def _flip_masks(m):
    """All 2^(m*m) relay-detection error patterns, shape (n, m, m)
    indexed [pattern, user, relay]."""
    return np.array(list(product((0, 1), repeat=m * m)),
                    dtype=np.float64).reshape(-1, m, m)


@lru_cache(maxsize=None)
def _data_patterns(m):
    """All 2^m user symbol patterns, shape (m, n)."""
    return np.array(list(product((-1.0, 1.0), repeat=m))).T


def predicted_chain_error(encoders, gains, noise_var, flip_probs=None):
    """Closed-form error probability of the full decode chain for each
    encoder of a stack (..., m, m); returns (...,).

    Averages the per-user slicer error after the MMSE refinement over
    all data patterns and all relay-detection error patterns, the
    latter weighted by the given per-(user, relay) detection error
    probabilities.  This is what lets the statistics-based design
    account for interference and noise on both hops, which a
    pilot-calibrated search cannot see.
    """
    g = np.asarray(encoders, dtype=np.float64)
    m = g.shape[-1]
    p = np.zeros((m, m)) if flip_probs is None else np.asarray(flip_probs, float)
    decoders, _ = _mmse_decoders(g, gains, noise_var)
    A = np.linalg.inv(np.swapaxes(g, -1, -2)).astype(np.complex128) @ decoders
    per_user_noise = (np.abs(A) ** 2 @ noise_var).real             # (..., m)
    sigma_real = np.sqrt(np.maximum(per_user_noise / 2.0, 1e-300))

    masks = _flip_masks(m)                      # (n_masks, m, m)
    weights = np.prod(np.where(masks > 0, p[None], 1.0 - p[None]), axis=(1, 2))
    B = _data_patterns(m)                       # (m, n_pat)
    signs = 1.0 - 2.0 * masks                   # detection flip multipliers
    detected = B[None, :, None, :] * signs[:, :, :, None]   # (n_masks, m_u, m_r, n_pat)
    ncs = np.einsum("...kl,nklp->...nlp", g, detected)       # (..., n_masks, m, n_pat)
    mean = np.einsum("...ul,...nlp->...nup", (A @ np.diag(gains)).real, ncs)
    err = _qfunc(B * mean / sigma_real[..., None, :, None])
    return np.einsum("n,...nup->...", weights, err) / (m * B.shape[1])


def select_G_mmse(gains, noise_var, flip_probs=None):
    """Pick the binary encoder minimizing the predicted end-to-end error
    of the refined decode chain; ties break to the lowest candidate
    index.  Returns (encoder, per-candidate scores)."""
    candidates = enumerate_invertible_binary(len(gains))
    scores = predicted_chain_error(candidates, gains, noise_var, flip_probs)
    best = argmin_with_ties(scores)
    G = CodingMatrix(entries=candidates[best].copy(), design=Scheme.MMSE_DESIGN,
                     role=Role.ENCODER)
    return G, scores


# ---------------------------------------------------------------------------
# destination decoding
# ---------------------------------------------------------------------------

def _refine(filter_outputs, gains, decoder):
    """The refinement step both decoders share: the MMSE decoder matrix
    if one is given, else gain normalization.  filter_outputs has shape
    (m,) or (m, P); returns the refined (m, P) complex streams and
    whether the input was 1-D."""
    z = np.asarray(filter_outputs, dtype=np.complex128)
    flat = z.ndim == 1
    z = z[:, None] if flat else z
    if decoder is not None:
        return _entries(decoder) @ z, flat
    return z / np.asarray(gains)[:, None], flat


def decode_joint(encoder, filter_outputs, gains, decoder=None):
    """Recover the m user symbols from the m relay-stream filter outputs.

    Without a decoder matrix the outputs are gain-normalized and the
    G^T-structured system is solved directly; with an MMSE decoder the
    refinement is applied first.  filter_outputs has shape (m,) or
    (m, P).
    """
    refined, flat = _refine(filter_outputs, gains, decoder)
    g = _entries(encoder, np.complex128)
    symbols = hard_decision(np.linalg.solve(g.T, refined))
    return symbols[:, 0] if flat else symbols


def ncs_levels(G, relay_pos):
    """Admissible noiseless NCS values for one relay's combination."""
    g = _entries(G, np.float64)
    m = g.shape[0]
    vals = sorted({float(g[:, relay_pos] @ np.array(pattern))
                   for pattern in product((-1.0, 1.0), repeat=m)})
    return np.array(vals)


def slice_to_levels(x, levels):
    """Nearest admissible value; ties go to the lower level."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    idx = np.argmin(np.abs(arr[..., None] - levels[None, :]), axis=-1)
    out = levels[idx]
    return out if np.ndim(x) else float(out[0])


def detect_ncs(encoder, filter_outputs, gains, decoder=None):
    """Per-relay discrete NCS estimates: gain-normalize (or MMSE-refine),
    then slice each stream to its admissible level set."""
    refined, flat = _refine(filter_outputs, gains, decoder)
    soft = refined.real
    est = np.empty_like(soft)
    for l in range(soft.shape[0]):
        est[l] = slice_to_levels(soft[l], ncs_levels(encoder, l))
    return est[:, 0] if flat else est


def decode_with_direct(encoder, ncs_estimates, direct_estimates, target,
                       relay_pos=None):
    """Cancel the other users of the group via their stored direct-link
    estimates, then divide by the target's coefficient and slice.

    ncs_estimates and direct_estimates have shape (m,) or (m, P).  If
    the chosen relay's coefficient for the target user is zero, another
    relay of the pair with a nonzero coefficient is used instead.
    """
    g = _entries(encoder, np.float64)
    m = g.shape[0]
    if relay_pos is None or g[target, relay_pos] == 0.0:
        usable = np.flatnonzero(g[target, :])
        if usable.size == 0:
            raise ValueError("no relay carries the target user (singular encoder)")
        relay_pos = int(usable[0])
    ncs = np.asarray(ncs_estimates, dtype=np.float64)
    direct = np.asarray(direct_estimates, dtype=np.float64)
    others = [j for j in range(m) if j != target]
    cancelled = ncs[relay_pos] - sum(g[j, relay_pos] * direct[j] for j in others)
    return hard_decision(cancelled / g[target, relay_pos])


def xor_decode(ncs_symbol, direct_symbols, target):
    """Target bit = NCS bit xor the other users' direct-link bits."""
    ncs_bits = symbol_to_bit(np.asarray(ncs_symbol, dtype=np.float64))
    direct_bits = symbol_to_bit(np.asarray(direct_symbols, dtype=np.float64))
    m = direct_bits.shape[0]
    acc = np.asarray(ncs_bits, dtype=np.int64)
    for j in range(m):
        if j != target:
            acc = np.bitwise_xor(acc, direct_bits[j])
    return bit_to_symbol(acc)
