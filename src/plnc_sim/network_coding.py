"""XOR and linear physical-layer network coding.

Covers the bit/symbol mappings, NCS generation at the relays, the three
coding-matrix designs (random binary, exhaustive search, closed-form
MMSE) and both destination decoders (joint decoding and
direct-link-aided cancellation).

An encoder is a row of the read-only per-m table encoder_table(m),
whose pool holds every invertible binary (m, m) matrix G, so an encoder
is binary and invertible by construction.  Entry [k, l] of G weights
user k of the group in the combination transmitted by relay l, so the
stacked NCS vector is G^T b for user symbols b.  The designs return
rows; the encoder and the decoders take rows and gather what they read
(G, (G^T)^-1, G^T G, the NCS levels, the carrying relays) from the
table.  The decode-time MMSE refinement is an
`MmseDecoder(entries, fallback)`.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .receivers import hard_decision


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


@lru_cache(maxsize=None)
def _data_patterns(m):
    """All 2^m user symbol patterns, shape (m, n)."""
    return np.array(list(product((-1.0, 1.0), repeat=m))).T


def _pattern_weights(m):
    """The bit of each flattened entry of an (m, m) binary matrix in its
    pattern: entry j is bit m*m-1-j, the lexicographic order."""
    return 1 << np.arange(m * m)[::-1]


@lru_cache(maxsize=None)
def _binary_matrices(m):
    """All 2^(m*m) binary (m, m) matrices, (n, m, m), matrix p the one of
    bit pattern p: the encoder candidates, and the relay-detection error
    patterns indexed [pattern, user, relay]."""
    patterns = np.arange(2 ** (m * m))[:, None] & _pattern_weights(m)
    return (patterns != 0).astype(np.float64).reshape(-1, m, m)


class EncoderTable(NamedTuple):
    """Every invertible binary (m, m) matrix, one row each, and what the
    designs and decoders read of it."""

    G: np.ndarray           # (n, m, m) in the order of their bit patterns
    row: np.ndarray         # (2^(m*m),) int16: each pattern's row, -1 if singular
    unmix: np.ndarray       # (n, m, m) (G^T)^-1
    gram: np.ndarray        # (n, m, m) G^T G
    recovery: np.ndarray    # (m*m, n) A^T A of A = (G^T)^-1, flattened: the ml costs
    levels: np.ndarray      # (n, 2^m, m) [level, relay] noiseless NCS values, ascending
    carrier: np.ndarray     # (n, m) each user's first carrying relay
    cancel: np.ndarray      # (n, m, m) [user, other]: G[other, carrier[user]]


@lru_cache(maxsize=None)
def encoder_table(m):
    """The read-only EncoderTable of group size m (6 rows for m = 2, 174
    for m = 3, 22560 for m = 4).

    A value reached by several data patterns repeats in levels.  A
    user's first carrying relay holds it with coefficient 1, so the
    direct decoder reads the other users' coefficients alone.
    """
    every = _binary_matrices(m)
    invertible = np.abs(np.linalg.det(every)) > 1e-9
    G = every[invertible]
    row = np.full(len(every), -1, dtype=np.int16)
    row[invertible] = np.arange(len(G))
    unmix = np.linalg.inv(np.swapaxes(G, 1, 2))
    carrier = np.argmax(G != 0, axis=-1)
    table = EncoderTable(
        G, row, unmix, np.swapaxes(G, 1, 2) @ G,
        (np.swapaxes(unmix, 1, 2) @ unmix).reshape(len(G), m * m).T.copy(),
        np.sort(_data_patterns(m).T @ G, axis=-2), carrier,
        np.swapaxes(np.take_along_axis(G, carrier[:, None, :], axis=-1), -1, -2))
    for array in table:
        array.setflags(write=False)
    return table


def xor_encode(detected_by_relay):
    """XOR NCS packet for the whole pair: with b = 1 - 2c the modulo-2
    sum of bits is the product of +-1 symbols, so relay l sends the
    product of its detections over the users.  detected_by_relay is
    (..., m, m, P) indexed [..., relay, user, symbol], as for
    encode_ncs; returns (..., m, P)."""
    return np.prod(np.asarray(detected_by_relay, dtype=np.float64), axis=-2)


def encode_ncs(rows, detected_by_relay):
    """NCS packet for the whole pair: relay l combines its own
    detections with column l of the encoder.  rows (...) index
    encoder_table(m) and detected_by_relay is (..., m, m, P) indexed
    [..., relay, user, symbol]; returns (..., m, P)."""
    det = np.asarray(detected_by_relay, dtype=np.float64)
    G = encoder_table(det.shape[-2]).G[rows]
    return np.einsum("...kl,...lkp->...lp", G, det)


def design_G_random(m, rng, count):
    """count uniform draws over the rows of encoder_table(m), (count,),
    each by rejection: (m, m) binary draws until one is invertible.

    The draws run as blocks, then the stream is rewound and redrawn for
    exactly the draws that count sequential rejection loops consume, so
    it ends where they would leave it: Generator.integers(0, 2) takes
    one 32-bit word per entry whatever the size of the call.
    """
    table = encoder_table(m)

    def rows_of(n_draws):
        draws = rng.integers(0, 2, size=(n_draws, m * m))
        return table.row[draws @ _pattern_weights(m)]

    start = rng.bit_generator.state
    rate = len(table.G) / 2 ** (m * m)
    blocks, accepted = [], 0
    while accepted < count:
        blocks.append(rows_of(int((count - accepted) / rate) + 4))
        accepted += np.count_nonzero(blocks[-1] >= 0)
    if not blocks:
        return np.empty(0, dtype=table.row.dtype)
    used = np.flatnonzero(np.concatenate(blocks) >= 0)[count - 1] + 1
    rng.bit_generator.state = start
    rows = rows_of(used)
    return rows[rows >= 0]


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


# ---------------------------------------------------------------------------
# exhaustive (training-based) design
# ---------------------------------------------------------------------------

def design_G_ml_for_channel(gains, noise_var, training_len, rng):
    """Simulate a calibration block on the pair's relay streams, then
    search every row for the least recovery error, for every reception
    of a stack at once.

    gains and noise_var are (..., m).  Each reception draws m*T training
    normals (for the hard-decided training symbols t), then the m*T real
    and the m*T imaginary noise normals, as one (..., 3, m, T) block.
    A row's calibration outputs are its NCS of t on the streams,
    mu_j a_j + eta_j with eta_j ~ CN(0, noise_var_j), and it recovers
    t + A eps with A = (G^T)^-1 and the normalized noise eps = eta / mu,
    whatever t, so its cost sum |A eps|^2 is the quadratic form
    Re tr(A S A^H) of the noise Gram S = eps eps^H.  Ties break to the
    lowest row.  Returns (rows (...), per-row costs (..., n)).
    """
    if training_len < 1:
        raise ValueError("calibration block must hold at least one symbol")
    gains = np.asarray(gains)
    m = gains.shape[-1]
    normals = rng.standard_normal(gains.shape[:-1] + (3, m, training_len))
    scale = np.sqrt(np.asarray(noise_var) / 2.0) / gains
    eps = scale[..., None] * (normals[..., 1, :, :] + 1j * normals[..., 2, :, :])
    gram = (eps @ np.swapaxes(eps.conj(), -1, -2)).real      # (..., m, m)
    costs = gram.reshape(gram.shape[:-2] + (m * m,)) @ encoder_table(m).recovery
    return argmin_with_ties(costs), costs


# ---------------------------------------------------------------------------
# closed-form MMSE design
# ---------------------------------------------------------------------------

def design_G_mmse(rows, gains, noise_var):
    """Closed-form MMSE refinement matrix P_ab R_b^-1 for the NCS
    estimate at the destination; used in place of plain inversion.

    rows (...) index encoder_table(m); gains and noise_var (..., m) are
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
    row on (m,) streams.

    R_b is a positive semidefinite matrix plus diag(noise_var), so its
    condition number is below tr(R_b) / min_j noise_var_j; the condition
    number is computed only where that bound exceeds 1e10, two orders
    below the threshold, which the SVD's rounding (relative error about
    eps times the condition number) cannot bridge.
    """
    mu = np.asarray(gains)
    nvar = np.asarray(noise_var)
    eye = np.eye(mu.shape[-1])
    C = encoder_table(mu.shape[-1]).gram[rows]
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
def _distinct_ncs(m):
    """The NCS of each row of encoder_table(m) under the flip patterns
    that can change it, for the first half of the data patterns; only
    the mmse design reads it, so it is built on first use.

    A flip on a zero entry of G changes no NCS, so mask n acts as
    n & support, where support has bit j set when flattened entry j
    (weight 2^(m*m-1-j), as in _binary_matrices) is nonzero.  Returns (ncs
    (n, M, m, n_pat / 2), rows (n * n_masks,)) read-only: row e keeps
    its masks n & support in ascending order, the last repeated up to
    the largest count M, and rows[e * n_masks + n] = e * M + the
    position of n & support.
    """
    g = encoder_table(m).G
    masks = np.arange(2 ** (m * m))
    supports = (g != 0).reshape(len(g), -1) @ _pattern_weights(m)
    kept = [np.flatnonzero((masks & ~support) == 0) for support in supports]
    width = max(len(k) for k in kept)
    rows = np.concatenate([e * width + np.searchsorted(k, masks & support)
                           for e, (k, support) in enumerate(zip(kept, supports))])
    kept = np.array([np.pad(k, (0, width - len(k)), mode="edge") for k in kept])
    B = _data_patterns(m)
    signs = 1.0 - 2.0 * _binary_matrices(m)[kept]                # (n, M, m_u, m_r)
    detected = B[:, None, :B.shape[1] // 2] * signs[..., None]
    ncs = np.einsum("ekl,enklp->enlp", g, detected)
    ncs.setflags(write=False)
    rows.setflags(write=False)
    return ncs, rows


def select_G_mmse(gains, noise_var, flip_probs):
    """Pick the row minimizing the predicted end-to-end error of the
    refined decode chain; ties break to the lowest row.

    A row's score is the closed-form error probability of the full
    decode chain: the per-user slicer error after the MMSE refinement,
    averaged over all data patterns and all relay-detection error
    patterns, the latter weighted by the given per-(user, relay)
    detection error probabilities.  This is what lets the
    statistics-based design account for interference and noise on both
    hops, which a pilot-calibrated search cannot see.  gains and
    noise_var (..., m) and flip_probs (..., m, m) may carry leading
    reception axes.  Returns (rows (...), per-row scores (..., n)).

    The slicer arguments repeat bit for bit: a flip on a zero entry of
    G changes no NCS, and data pattern -b gives the argument of b.  So
    Q is evaluated on each row's distinct flips (_distinct_ncs) and the
    first half of the data patterns only, then gathered back,
    contiguous, for the weighted sum over every pattern.
    """
    gains = np.asarray(gains)
    m = gains.shape[-1]
    table = encoder_table(m)
    lead = gains.shape[:-1]                     # reception axes
    mu = gains[..., None, :]                    # (..., 1, m) against every row
    nvar = np.asarray(noise_var, dtype=np.float64)[..., None, :]
    p = np.asarray(flip_probs, dtype=np.float64)
    decoders = design_G_mmse(np.arange(len(table.G)), mu, nvar).entries
    A = table.unmix.astype(np.complex128) @ decoders
    per_user_noise = (np.abs(A) ** 2 @ nvar[..., None])[..., 0]    # (..., n, m)
    sigma_real = np.sqrt(np.maximum(per_user_noise / 2.0, 1e-300))

    masks = _binary_matrices(m)                 # (n_masks, m, m) flip patterns
    weights = np.prod(np.where(masks > 0, p[..., None, :, :],
                               1.0 - p[..., None, :, :]), axis=(-2, -1))
    B = _data_patterns(m)                       # (m, n_pat), B[:, ::-1] = -B
    half = B.shape[1] // 2
    ncs, rows = _distinct_ncs(m)                # (n, M, m, half)
    # the (..., n, M, m, half) distinct slicer arguments, computed in
    # place; summed in relay order, as the exhaustive form's einsum sums,
    # so the scores equal it bit for bit
    coef = (A * mu[..., None, :]).real[..., None, :, :, None]     # [..., user, relay]
    arg = coef[..., 0, :] * ncs[..., None, 0, :]
    for l in range(1, m):
        arg += coef[..., l, :] * ncs[..., None, l, :]
    arg *= B[:, :half]
    arg /= sigma_real[..., None, :, None]
    pattern = np.arange(B.shape[1])
    q = _qfunc(arg)[..., np.minimum(pattern, pattern[::-1])]     # every data pattern
    q = np.take(q.reshape(lead + (-1, m, B.shape[1])), rows, axis=len(lead))
    q = q.reshape(lead + (len(table.G),) + masks.shape[:1] + q.shape[-2:])
    scores = (np.einsum("...n,...nup->...", weights[..., None, :], q)
              / (m * B.shape[1]))
    return argmin_with_ties(scores), scores


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


def decode_joint(rows, filter_outputs, gains, decoder=None):
    """Recover the m user symbols from the m relay-stream filter outputs:
    gain-normalize them (or MMSE-refine them with a decoder matrix),
    unmix by (G^T)^-1 and slice.  filter_outputs has shape (..., m, P)
    for rows (...); gains and decoder carry the same leading axes.
    """
    refined = _refine(filter_outputs, gains, decoder).real
    return hard_decision(encoder_table(refined.shape[-2]).unmix[rows] @ refined)


def detect_ncs(rows, filter_outputs, gains, decoder=None):
    """Per-relay discrete NCS estimates: gain-normalize (or MMSE-refine),
    then slice every stream to the nearest of its admissible levels;
    ties go to the lower level.  filter_outputs has shape (..., m, P)
    for rows (...), and so has the result."""
    refined = _refine(filter_outputs, gains, decoder).real
    soft = np.swapaxes(refined, -1, -2)                   # (..., P, relay)
    levels = encoder_table(refined.shape[-2]).levels[rows]
    nearest = np.argmin(np.abs(soft[..., None, :] - levels[..., None, :, :]),
                        axis=-2)
    return np.swapaxes(np.take_along_axis(levels, nearest, axis=-2), -1, -2)


def decode_with_direct(rows, ncs_estimates, direct_estimates):
    """Every user of the group, each from the first relay whose column
    carries it: cancel the other users via their stored direct-link
    estimates and slice.

    ncs_estimates and direct_estimates have shape (..., m, P) for rows
    (...), and so has the result.  A user's own direct entry is never
    read.
    """
    ncs = np.asarray(ncs_estimates, dtype=np.float64)
    table = encoder_table(ncs.shape[-2])
    ncs = np.swapaxes(np.take_along_axis(ncs, table.carrier[rows][..., :, None],
                                         axis=-2), -1, -2)        # (..., P, user)
    direct = np.asarray(direct_estimates, dtype=np.float64)
    direct = np.swapaxes(direct, -1, -2)[..., None, :]            # (..., P, 1, other)
    others = ~np.eye(ncs.shape[-1], dtype=bool)  # never read a user's own entry
    known = np.where(others, table.cancel[rows][..., None, :, :] * direct,
                     0.0).sum(axis=-1)
    return hard_decision(np.swapaxes(ncs - known, -1, -2))


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
