"""XOR and linear physical-layer network coding.

Covers the bit/symbol mappings, NCS generation at the relays, the three
coding-matrix designs (random binary, exhaustive search, closed-form
MMSE) and both destination decoders (joint system solve and
direct-link-aided cancellation).

Every encoder is a plain (m, m) array: a row of the read-only pool
`enumerate_invertible_binary(m)`, so it is binary and invertible by
construction.  Entry [k, l] weights user k of the group in the
combination transmitted by relay l, so the stacked NCS vector is G^T b
for user symbols b.  The decode-time MMSE refinement is an
`MmseDecoder(entries, fallback)`.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .receivers import hard_decision
from .signal_model import complex_gaussian


def _qfunc(x):
    z = np.asarray(x) / np.sqrt(2.0)          # one buffer, filled in place
    return np.multiply(erfc(z, out=z), 0.5, out=z)


def make_group_assignments(config, rng):
    """Randomly partition users and relays into groups of m: int arrays
    (users, relays) whose row g holds group g's users and relays; relays
    has min(G, L/m) rows, so with K > L the last groups own none."""
    m = config.group_size
    users = rng.permutation(config.num_users).reshape(-1, m)
    relays = rng.permutation(config.num_relays)[:users.size].reshape(-1, m)
    return users, relays


class MmseDecoder(NamedTuple):
    """MMSE refinement matrix (or a stack of them) and whether it fell
    back to plain gain normalization."""

    entries: np.ndarray     # (..., m, m) complex
    fallback: np.ndarray    # (...,) bool


def bit_to_symbol(c):
    """BPSK map b = 1 - 2c."""
    return 1.0 - 2.0 * np.asarray(c, dtype=np.float64)


def symbol_to_bit(b):
    """Inverse map c = (1 - b) / 2."""
    return ((1.0 - np.asarray(b, dtype=np.float64)) / 2.0).astype(np.int64)


def xor_encode(detected_by_relay):
    """XOR NCS packet for the whole pair: with b = 1 - 2c the modulo-2
    sum of bits is the product of +-1 symbols, so relay l sends the
    product of its detections over the users.  detected_by_relay is
    (..., m, m, P) indexed [..., relay, user, symbol], as for
    encode_ncs; returns (..., m, P)."""
    return np.prod(np.asarray(detected_by_relay, dtype=np.float64), axis=-2)


def encode_ncs(G, detected_by_relay):
    """NCS packet for the whole pair: relay l combines its own
    detections with column l.  G is (..., m, m) and detected_by_relay
    (..., m, m, P) indexed [..., relay, user, symbol]; returns
    (..., m, P)."""
    det = np.asarray(detected_by_relay, dtype=np.float64)
    return np.einsum("...kl,...lkp->...lp", G, det)


@lru_cache(maxsize=None)
def enumerate_invertible_binary(m):
    """All invertible m x m binary matrices, (n, m, m) read-only, in a
    fixed lexicographic order of their flattened entries (6 matrices for
    m = 2)."""
    every = np.array(list(product((0.0, 1.0), repeat=m * m))).reshape(-1, m, m)
    out = every[np.abs(np.linalg.det(every)) > 1e-9]
    out.setflags(write=False)
    return out


def _invertible(draws):
    return np.abs(np.linalg.det(draws)) > 1e-9


def design_G_random(m, rng, count):
    """count uniform draws over the invertible binary matrices, (count,
    m, m), each by rejection: (m, m) binary draws until one is
    invertible.

    The draws run as blocks, then the stream is rewound and redrawn for
    exactly the draws that count sequential rejection loops consume, so
    it ends where they would leave it: Generator.integers(0, 2) takes
    one 32-bit word per entry whatever the size of the call.
    """
    start = rng.bit_generator.state
    rate = len(enumerate_invertible_binary(m)) / 2 ** (m * m)
    blocks, accepted = [], 0
    while accepted < count:
        block = rng.integers(0, 2, size=(int((count - accepted) / rate) + 4, m, m))
        blocks.append(block)
        accepted += np.count_nonzero(_invertible(block))
    if not blocks:
        return np.empty((0, m, m))
    used = np.flatnonzero(_invertible(np.concatenate(blocks)))[count - 1] + 1
    rng.bit_generator.state = start
    draws = rng.integers(0, 2, size=(used, m, m)).astype(np.float64)
    return draws[_invertible(draws)]


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
    """Lowest index along the last axis among all costs tied with the
    minimum; costs (..., n) gives indices (...).

    Candidates whose costs agree up to floating-point evaluation order
    (permutation encoders produce mathematically identical costs) must
    resolve deterministically, so anything within tolerance of the
    minimum counts as tied.
    """
    costs = np.asarray(costs, dtype=np.float64)
    low = costs.min(axis=-1, keepdims=True)
    return np.argmax(costs <= low + atol + rtol * np.abs(low), axis=-1)


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
    return candidates[argmin_with_ties(costs)], costs


@lru_cache(maxsize=None)
def _recovery_grams(m):
    """A_c^T A_c for A_c = (G_c^T)^-1 of every candidate, flattened to
    (m*m, n) read-only: the quadratic forms of the ml design's costs."""
    A = np.linalg.inv(np.swapaxes(enumerate_invertible_binary(m), 1, 2))
    grams = (np.swapaxes(A, 1, 2) @ A).reshape(len(A), m * m).T.copy()
    grams.setflags(write=False)
    return grams


def design_G_ml_for_channel(gains, noise_var, training_len, rng):
    """Simulate the calibration block on the pair's relay streams, then
    search: the design_G_ml pick on ml_calibration_outputs, for every
    reception of a stack at once.

    gains and noise_var are (..., m).  Each reception draws what
    ml_calibration_outputs would after its training symbols: m*T
    training normals (for the hard-decided symbols), then the m*T real
    and the m*T imaginary noise normals, as one (..., 3, m, T) block.
    Candidate c recovers t + A_c eps with A_c = (G_c^T)^-1 and the
    normalized noise eps = eta / mu, whatever the training symbols t, so
    its cost sum |A_c eps|^2 is the quadratic form Re tr(A_c S A_c^H) of
    the noise Gram S = eps eps^H.  Ties break to the lowest candidate
    index.  Returns (encoders (..., m, m), per-candidate costs
    (..., n)).
    """
    if training_len < 1:
        raise ValueError("calibration block must hold at least one symbol")
    gains = np.asarray(gains)
    m = gains.shape[-1]
    normals = rng.standard_normal(gains.shape[:-1] + (3, m, training_len))
    scale = np.sqrt(np.asarray(noise_var) / 2.0) / gains
    eps = scale[..., None] * (normals[..., 1, :, :] + 1j * normals[..., 2, :, :])
    gram = (eps @ np.swapaxes(eps.conj(), -1, -2)).real      # (..., m, m)
    costs = gram.reshape(gram.shape[:-2] + (m * m,)) @ _recovery_grams(m)
    return enumerate_invertible_binary(m)[argmin_with_ties(costs)], costs


# ---------------------------------------------------------------------------
# closed-form MMSE design
# ---------------------------------------------------------------------------

def design_G_mmse(encoder, gains, noise_var):
    """Closed-form MMSE refinement matrix P_ab R_b^-1 for the NCS
    estimate at the destination; used in place of plain inversion.

    encoder (..., m, m) may be a stack; gains and noise_var (..., m) are
    the pair's relay-stream statistics mu_j = w_j^H h_j and
    sigma2 ||w_j||^2, and the leading axes broadcast.  With
    z_j = mu_j a_j + eta_j, a = G^T b the NCS symbols of unit-variance
    user symbols b, and noise eta_j ~ CN(0, noise_var_j) independent
    across the relay sub-slots:
        P_ab[k, j] = E[a_k conj(z_j)] = C[k, j] conj(mu_j)
        R_b[j, i]  = mu_j conj(mu_i) C[j, i] + delta_ji noise_var_j
    with C = G^T G.  An encoder whose R_b is numerically singular
    (condition number above 1e12) gets plain gain normalization
    diag(1/mu) instead, and so does the whole stack if the solve still
    fails.  Returns MmseDecoder(entries, fallback), unstacked for one
    (m, m) encoder on (m,) streams.

    R_b is a positive semidefinite matrix plus diag(noise_var), so its
    condition number is below tr(R_b) / min_j noise_var_j; the condition
    number is computed only where that bound exceeds 1e10, two orders
    below the threshold, which the SVD's rounding (relative error about
    eps times the condition number) cannot bridge.
    """
    g = np.asarray(encoder, dtype=np.float64)
    mu = np.asarray(gains)
    nvar = np.asarray(noise_var)
    eye = np.eye(g.shape[-1])
    C = np.swapaxes(g, -1, -2) @ g
    P_ab = C * mu.conj()[..., None, :]
    R_b = (mu[..., :, None] * mu.conj()[..., None, :]) * C + nvar[..., None, :] * eye
    least = np.min(nvar, axis=-1)
    bounded = (least > 0) & (np.trace(R_b.real, axis1=-2, axis2=-1) <= 1e10 * least)
    fallback = np.zeros(bounded.shape, dtype=bool)
    if not np.all(bounded):
        fallback[~bounded] = np.linalg.cond(R_b[~bounded]) > 1e12
    if np.any(fallback):        # swap singular members out of the batched solve
        R_b = np.where(fallback[..., None, None], eye, R_b)
    try:
        entries = np.linalg.solve(np.swapaxes(R_b.conj(), -1, -2),
                                  np.swapaxes(P_ab.conj(), -1, -2))
        entries = np.swapaxes(entries, -1, -2).conj()
    except np.linalg.LinAlgError:
        entries = np.zeros(R_b.shape, dtype=np.complex128)
        fallback = np.ones_like(fallback)
    if np.any(fallback):
        normalise = np.where(eye > 0, (1.0 / mu)[..., None, :], 0.0)
        entries = np.where(fallback[..., None, None], normalise, entries)
    return MmseDecoder(entries, fallback)


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


@lru_cache(maxsize=32)
def _distinct_ncs(m, encoders):
    """The NCS of each encoder under the flip patterns that can change
    it, for the first half of the data patterns.

    encoders holds the bytes of an (E, m, m) float64 stack.  A flip on a
    zero entry of G changes no NCS, so mask n acts as n & support, where
    support has bit j set when flattened entry j (weight 2^(m*m-1-j), as
    in _flip_masks) is nonzero.  Returns (ncs (E, M, m, n_pat / 2), rows
    (E * n_masks,)) read-only: encoder e keeps its masks n & support in
    ascending order, the last repeated up to the largest count M, and
    rows[e * n_masks + n] = e * M + the position of n & support.
    """
    g = np.frombuffer(encoders).reshape(-1, m, m)
    masks = np.arange(2 ** (m * m))
    supports = (g != 0).reshape(len(g), -1) @ (1 << np.arange(m * m)[::-1])
    kept = [np.flatnonzero((masks & ~support) == 0) for support in supports]
    width = max(len(k) for k in kept)
    rows = np.concatenate([e * width + np.searchsorted(k, masks & support)
                           for e, (k, support) in enumerate(zip(kept, supports))])
    kept = np.array([np.pad(k, (0, width - len(k)), mode="edge") for k in kept])
    B = _data_patterns(m)
    signs = 1.0 - 2.0 * _flip_masks(m)[kept]                # (E, M, m_u, m_r)
    detected = B[:, None, :B.shape[1] // 2] * signs[..., None]
    ncs = np.einsum("ekl,enklp->enlp", g, detected)
    ncs.setflags(write=False)
    rows.setflags(write=False)
    return ncs, rows


def predicted_chain_error(encoders, gains, noise_var, flip_probs):
    """Closed-form error probability of the full decode chain for each
    encoder of a stack (E..., m, m).

    Averages the per-user slicer error after the MMSE refinement over
    all data patterns and all relay-detection error patterns, the
    latter weighted by the given per-(user, relay) detection error
    probabilities.  This is what lets the statistics-based design
    account for interference and noise on both hops, which a
    pilot-calibrated search cannot see.  gains and noise_var (R..., m)
    and flip_probs (R..., m, m) may carry leading reception axes;
    returns (R..., E...).

    The slicer arguments repeat bit for bit: a flip on a zero entry of
    G changes no NCS, and data pattern -b gives the argument of b.  So
    Q is evaluated on each encoder's distinct flips (_distinct_ncs)
    and the first half of the data patterns only, then gathered back,
    contiguous, for the weighted sum over every pattern.
    """
    g = np.asarray(encoders, dtype=np.float64)
    m = g.shape[-1]
    gains = np.asarray(gains)
    lead = gains.shape[:-1]                     # reception axes, then E...
    per_encoder = lead + (1,) * (g.ndim - 2)
    mu = gains.reshape(per_encoder + (m,))
    nvar = np.asarray(noise_var, dtype=np.float64).reshape(per_encoder + (m,))
    p = np.asarray(flip_probs, dtype=np.float64)
    decoders = design_G_mmse(g, mu, nvar).entries
    A = np.linalg.inv(np.swapaxes(g, -1, -2)).astype(np.complex128) @ decoders
    per_user_noise = (np.abs(A) ** 2 @ nvar[..., None])[..., 0]    # (..., m)
    sigma_real = np.sqrt(np.maximum(per_user_noise / 2.0, 1e-300))

    masks = _flip_masks(m)                      # (n_masks, m, m)
    weights = np.prod(np.where(masks > 0, p[..., None, :, :],
                               1.0 - p[..., None, :, :]), axis=(-2, -1))
    weights = weights.reshape(per_encoder + masks.shape[:1])
    B = _data_patterns(m)                       # (m, n_pat), B[:, ::-1] = -B
    half = B.shape[1] // 2
    ncs, rows = _distinct_ncs(m, g.tobytes())
    ncs = ncs.reshape(g.shape[:-2] + ncs.shape[1:])          # (E..., M, m, half)
    # the (..., M, m, half) distinct slicer arguments, computed in place;
    # summed in relay order, as the exhaustive form's einsum sums, so the
    # scores equal it bit for bit
    coef = (A * mu[..., None, :]).real[..., None, :, :, None]     # [..., user, relay]
    arg = coef[..., 0, :] * ncs[..., None, 0, :]
    for l in range(1, m):
        arg += coef[..., l, :] * ncs[..., None, l, :]
    arg *= B[:, :half]
    arg /= sigma_real[..., None, :, None]
    pattern = np.arange(B.shape[1])
    q = _qfunc(arg)[..., np.minimum(pattern, pattern[::-1])]     # every data pattern
    q = np.take(q.reshape(lead + (-1, m, B.shape[1])), rows, axis=len(lead))
    q = q.reshape(lead + g.shape[:-2] + masks.shape[:1] + q.shape[-2:])
    return np.einsum("...n,...nup->...", weights, q) / (m * B.shape[1])


def select_G_mmse(gains, noise_var, flip_probs):
    """Pick the binary encoder minimizing the predicted end-to-end error
    of the refined decode chain; ties break to the lowest candidate
    index.  The statistics may carry leading reception axes (...).
    Returns (encoder (..., m, m), per-candidate scores (..., n))."""
    candidates = enumerate_invertible_binary(np.shape(gains)[-1])
    scores = predicted_chain_error(candidates, gains, noise_var, flip_probs)
    return candidates[argmin_with_ties(scores)], scores


# ---------------------------------------------------------------------------
# destination decoding
# ---------------------------------------------------------------------------

def _refine(filter_outputs, gains, decoder):
    """The refinement step both decoders share: the MMSE decoder matrix
    if one is given, else gain normalization.  filter_outputs has shape
    (..., m, P) for gains (..., m), and so has the result."""
    z = np.asarray(filter_outputs, dtype=np.complex128)
    if decoder is not None:
        return decoder @ z
    return z / gains[..., None]


def decode_joint(encoder, filter_outputs, gains, decoder=None):
    """Recover the m user symbols from the m relay-stream filter outputs.

    Without a decoder matrix the outputs are gain-normalized and the
    G^T-structured system is solved directly; with an MMSE decoder the
    refinement is applied first.  filter_outputs has shape (..., m, P)
    for encoder (..., m, m); gains and decoder carry the same leading
    axes.
    """
    refined = _refine(filter_outputs, gains, decoder)
    return hard_decision(np.linalg.solve(np.swapaxes(encoder, -1, -2), refined))


def ncs_levels(G):
    """Admissible noiseless NCS values of every relay's combination,
    (..., 2^m, m) indexed [..., level, relay] for G (..., m, m), each
    column sorted ascending (a value reached by several data patterns
    repeats)."""
    return np.sort(_data_patterns(np.shape(G)[-1]).T @ G, axis=-2)


def detect_ncs(encoder, filter_outputs, gains, decoder=None):
    """Per-relay discrete NCS estimates: gain-normalize (or MMSE-refine),
    then slice every stream to the nearest of its admissible levels;
    ties go to the lower level.  filter_outputs has shape (..., m, P)
    for encoder (..., m, m), and so has the result."""
    refined = _refine(filter_outputs, gains, decoder).real
    soft = np.swapaxes(refined, -1, -2)                   # (..., P, relay)
    levels = ncs_levels(encoder)
    nearest = np.argmin(np.abs(soft[..., None, :] - levels[..., None, :, :]),
                        axis=-2)
    return np.swapaxes(np.take_along_axis(levels, nearest, axis=-2), -1, -2)


def decode_with_direct(encoder, ncs_estimates, direct_estimates):
    """Every user of the group, each from the first relay whose column
    carries it: cancel the other users via their stored direct-link
    estimates, divide by the user's coefficient and slice.

    ncs_estimates and direct_estimates have shape (..., m, P) for
    encoder (..., m, m), and so has the result.  A user's own direct
    entry is never read.
    """
    g = np.asarray(encoder)
    carried = g != 0.0
    if not np.all(np.any(carried, axis=-1)):
        raise ValueError("no relay carries the target user (singular encoder)")
    relay = np.argmax(carried, axis=-1)          # first carrying relay per user
    # [..., user, other]: g[..., other, relay[user]]
    coef = np.swapaxes(np.take_along_axis(g, relay[..., None, :], axis=-1), -1, -2)
    ncs = np.asarray(ncs_estimates, dtype=np.float64)
    direct = np.asarray(direct_estimates, dtype=np.float64)
    ncs = np.swapaxes(np.take_along_axis(ncs, relay[..., :, None], axis=-2),
                      -1, -2)                                     # (..., P, user)
    direct = np.swapaxes(direct, -1, -2)[..., None, :]            # (..., P, 1, other)
    others = ~np.eye(g.shape[-1], dtype=bool)    # never read a user's own entry
    known = np.where(others, coef[..., None, :, :] * direct, 0.0).sum(axis=-1)
    own = np.diagonal(coef, axis1=-2, axis2=-1)[..., None, :]
    return hard_decision(np.swapaxes((ncs - known) / own, -1, -2))


def xor_decode(ncs_symbols, direct_symbols):
    """Every user of the group: the NCS symbol times the other users'
    direct-link symbols (XOR of bits as a product of +-1 symbols).

    ncs_symbols is the destination's (..., P) estimate of the pair's
    common XOR stream and direct_symbols is (..., m, P); returns
    (..., m, P).  A user's own direct entry is never read.
    """
    direct = np.swapaxes(np.asarray(direct_symbols, dtype=np.float64), -1, -2)
    m = direct.shape[-1]
    others = np.where(~np.eye(m, dtype=bool), direct[..., None, :], 1.0)
    return (np.asarray(ncs_symbols, dtype=np.float64)[..., None, :]
            * np.swapaxes(np.prod(others, axis=-1), -1, -2))
