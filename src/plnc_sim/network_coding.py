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
`MmseDecoder(entries, fallback)`.  Designs and decoders read unit-gain
relay streams z_j = a_j + eps_j, eps_j ~ CN(0, nu_j), a stream's output
divided by its gain: none changes when a stream is scaled by a positive
factor, so nu is all they read of it, and the refinement is real.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .receivers import erfc, hard_decision


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
    """MMSE refinement matrix of unit-gain streams (or a stack of them)
    and whether it fell back to the identity, no refinement."""

    entries: np.ndarray     # (..., m, m) real
    fallback: np.ndarray    # (...,) bool


def symbol_to_bit(b):
    """The bit c of a BPSK symbol b = 1 - 2c: c = (1 - b) / 2."""
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
    encode_ncs; returns int8 (..., m, P)."""
    return np.prod(detected_by_relay, axis=-2, dtype=np.int8)


def encode_ncs(rows, detected_by_relay):
    """NCS packet for the whole pair: relay l combines its own
    detections with column l of the encoder.  rows (...) index
    encoder_table(m) and detected_by_relay is (..., m, m, P) indexed
    [..., relay, user, symbol], +-1; returns the float NCS levels
    (..., m, P)."""
    det = np.asarray(detected_by_relay)
    G = encoder_table(det.shape[-2]).G[rows]
    return np.einsum("...kl,...lkp->...lp", G, det)


def design_G_random(m, rng, count):
    """count uniform draws over the rows of encoder_table(m), (count,):
    the law of drawing (m, m) binary matrices until one is invertible.
    Each row is one bounded draw, so count draws in one call equal count
    calls of one and leave rng where they leave it."""
    return rng.integers(len(encoder_table(m).G), size=count)


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

def design_G_ml_for_channel(noise_var, training_len, rng):
    """Simulate a calibration block on the pair's unit-gain relay
    streams, then search every row for the least recovery error, for
    every reception of a stack at once.

    noise_var is (..., m), each stream's nu.  Each reception draws the
    m*T real and the m*T imaginary noise normals, as one (..., 2, m, T)
    block, and no training symbols t: no cost depends on them.  A row's
    calibration outputs are its NCS of t on the streams, a_j + eps_j
    with eps_j ~ CN(0, nu_j), and it recovers t + A eps with
    A = (G^T)^-1, whatever t, so its cost sum |A eps|^2 is the quadratic
    form tr(A S A^T) of the real noise Gram S = Re(eps eps^H).  Ties
    break to the lowest row.  Returns (rows (...), per-row costs
    (..., n)).
    """
    if training_len < 1:
        raise ValueError("calibration block must hold at least one symbol")
    nu = np.asarray(noise_var)
    m = nu.shape[-1]
    normals = rng.standard_normal(nu.shape[:-1] + (2, m, training_len))
    eps = np.sqrt(nu / 2.0)[..., None, :, None] * normals      # real, imaginary
    gram = (eps @ np.swapaxes(eps, -1, -2)).sum(axis=-3)       # (..., m, m)
    costs = gram.reshape(gram.shape[:-2] + (m * m,)) @ encoder_table(m).recovery
    return argmin_with_ties(costs), costs


# ---------------------------------------------------------------------------
# closed-form MMSE design
# ---------------------------------------------------------------------------

def design_G_mmse(rows, noise_var):
    """Closed-form MMSE refinement matrix for the NCS estimate at the
    destination; used in place of plain inversion.

    rows (...) index encoder_table(m) and noise_var (..., m) holds the
    pair's stream variances nu; the leading axes broadcast.  With
    z_j = a_j + eps_j, a = G^T b the NCS symbols of unit-variance user
    symbols b, and eps_j ~ CN(0, nu_j) independent across the relay
    sub-slots, E[a z^H] = C = G^T G and E[z z^H] = M = C + diag(nu), so
    the refinement is the real C M^-1: the textbook P_ab R_b^-1 on the
    outputs mu_j z_j is C M^-1 diag(1/mu).  An encoder whose M is
    numerically singular (condition number above 1e12) gets the
    identity instead, and so does the whole stack if the solve still
    fails.  Returns MmseDecoder(entries, fallback), unstacked for one
    row on (m,) streams.

    M is a positive semidefinite matrix plus diag(nu), so its condition
    number is below tr(M) / min_j nu_j; the condition number is computed
    only where that bound exceeds 1e10, two orders below the threshold,
    which the SVD's rounding (relative error about eps times the
    condition number) cannot bridge.
    """
    nu = np.asarray(noise_var)
    eye = np.eye(nu.shape[-1])
    C = encoder_table(nu.shape[-1]).gram[rows]
    M = C + nu[..., None, :] * eye
    least = np.min(nu, axis=-1)
    bounded = (least > 0) & (np.trace(M, axis1=-2, axis2=-1) <= 1e10 * least)
    fallback = np.zeros(bounded.shape, dtype=bool)
    if not np.all(bounded):
        fallback[~bounded] = np.linalg.cond(M[~bounded]) > 1e12
    if np.any(fallback):        # swap singular members out of the batched solve
        M = np.where(fallback[..., None, None], eye, M)
    try:
        # C and M are symmetric: C M^-1 = (M^-1 C)^T
        entries = np.swapaxes(np.linalg.solve(M, C), -1, -2)
    except np.linalg.LinAlgError:
        entries = np.zeros(M.shape)
        fallback = np.ones_like(fallback)
    if np.any(fallback):
        entries = np.where(fallback[..., None, None], eye, entries)
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


def select_G_mmse(noise_var, flip_probs):
    """Pick the row minimizing the predicted end-to-end error of the
    refined decode chain; ties break to the lowest row.

    A row's score is the closed-form error probability of the full
    decode chain: the per-user slicer error after the MMSE refinement,
    averaged over all data patterns and all relay-detection error
    patterns, the latter weighted by the given per-(user, relay)
    detection error probabilities.  This is what lets the
    statistics-based design account for interference and noise on both
    hops, which a pilot-calibrated search cannot see.  noise_var
    (..., m), the streams' nu, and flip_probs (..., m, m) may carry
    leading reception axes.  Returns (rows (...), per-row scores
    (..., n)).

    The slicer arguments repeat bit for bit: a flip on a zero entry of
    G changes no NCS, and data pattern -b gives the argument of b.  So
    Q is evaluated on each row's distinct flips (_distinct_ncs) and the
    first half of the data patterns only, then gathered back,
    contiguous, for the weighted sum over every pattern.
    """
    nu = np.asarray(noise_var, dtype=np.float64)
    m = nu.shape[-1]
    table = encoder_table(m)
    lead = nu.shape[:-1]                        # reception axes
    nu = nu[..., None, :]                       # (..., 1, m) against every row
    p = np.asarray(flip_probs, dtype=np.float64)
    A = table.unmix @ design_G_mmse(np.arange(len(table.G)), nu).entries
    per_user_noise = (A ** 2 @ nu[..., None])[..., 0]              # (..., n, m)
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
    coef = A[..., None, :, :, None]                             # [..., user, relay]
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

def _refine(filter_outputs, decoder):
    """The in-phase parts of unit-gain stream outputs (..., m, P), MMSE
    refined by a decoder matrix if one is given: the step both decoders
    share."""
    z = np.asarray(filter_outputs).real
    return z if decoder is None else decoder @ z


def decode_joint(rows, filter_outputs, decoder=None):
    """Recover the m user symbols from the m unit-gain relay streams:
    MMSE-refine them with a decoder matrix, if one is given, unmix by
    (G^T)^-1 and slice to int8 +-1.  filter_outputs has shape (..., m, P)
    for rows (...); decoder carries the same leading axes.
    """
    refined = _refine(filter_outputs, decoder)
    return hard_decision(encoder_table(refined.shape[-2]).unmix[rows] @ refined)


def detect_ncs(rows, filter_outputs, decoder=None):
    """Per-relay discrete NCS estimates of unit-gain streams: MMSE-refine
    them if a decoder is given, then slice every stream to the nearest of
    its admissible levels; ties go to the lower level.  filter_outputs
    has shape (..., m, P) for rows (...), and so has the result.

    The levels are scanned in ascending order with a running nearest
    level, which a later level replaces only where its distance is
    strictly smaller (argmin's first minimum on the same distances), so
    no array holds more than one value per output."""
    refined = _refine(filter_outputs, decoder)
    levels = encoder_table(refined.shape[-2]).levels[rows][..., None]  # (..., 2^m, m, 1)
    nearest = np.broadcast_to(levels[..., 0, :, :], refined.shape).copy()
    best = refined - nearest
    np.abs(best, out=best)
    distance, closer = np.empty_like(best), np.empty(best.shape, dtype=bool)
    for j in range(1, levels.shape[-3]):
        level = levels[..., j, :, :]
        np.abs(np.subtract(refined, level, out=distance), out=distance)
        np.less(distance, best, out=closer)
        np.copyto(best, distance, where=closer)
        np.copyto(nearest, level, where=closer)
    return nearest


def decode_with_direct(rows, ncs_estimates, direct_estimates):
    """Every user of the group, each from the first relay whose column
    carries it: cancel the other users via their stored direct-link
    estimates and slice to int8 +-1.

    ncs_estimates and direct_estimates have shape (..., m, P) for rows
    (...), and so has the result.  A user's own direct entry is never
    read.
    """
    ncs = np.asarray(ncs_estimates)
    table = encoder_table(ncs.shape[-2])
    ncs = np.swapaxes(np.take_along_axis(ncs, table.carrier[rows][..., :, None],
                                         axis=-2), -1, -2)        # (..., P, user)
    direct = np.asarray(direct_estimates)
    direct = np.swapaxes(direct, -1, -2)[..., None, :]            # (..., P, 1, other)
    others = ~np.eye(ncs.shape[-1], dtype=bool)  # never read a user's own entry
    known = np.where(others, table.cancel[rows][..., None, :, :] * direct,
                     0.0).sum(axis=-1)
    return hard_decision(np.swapaxes(ncs - known, -1, -2))


def xor_decode(ncs_symbols, direct_symbols):
    """Every user of the group: the NCS symbol times the other users'
    direct-link symbols (XOR of bits as a product of +-1 symbols).

    ncs_symbols is the destination's (..., P) estimate of the pair's
    common XOR stream and direct_symbols is (..., m, P); returns int8
    (..., m, P).  A user's own direct entry is never read.
    """
    direct = np.swapaxes(np.asarray(direct_symbols), -1, -2)
    m = direct.shape[-1]
    others = np.where(~np.eye(m, dtype=bool), direct[..., None, :], np.int8(1))
    return (np.asarray(ncs_symbols, dtype=np.int8)[..., None, :]
            * np.swapaxes(np.prod(others, axis=-1, dtype=np.int8), -1, -2))
