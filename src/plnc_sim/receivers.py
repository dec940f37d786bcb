"""RAKE and linear MMSE receive filter banks, D-dimensional on the first
hop (D = N chips, or r code coordinates) and scalar on the second, plus
the BPSK slicer and the erfc kernel the error probabilities evaluate."""

import numpy as np

from .config import ReceiverKind


# Cody's rational Chebyshev approximations (Math. Comp. 23, 1969) as
# tabulated in Cephes ndtr.c: erf x = x T(x^2) / U(x^2) on |x| < 1 and
# erfc x = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, exp(-x^2) R(x) / S(x)
# beyond.  Each pair is kept as complex coefficients, highest power
# first: the numerator in the real part, the monic denominator in the
# imaginary part.
def _pair(num, den):
    den = (1.0,) + den
    num = (0.0,) * (len(den) - len(num)) + num     # 0 t + c is exactly c
    return tuple(complex(n, d) for n, d in zip(num, den))


_ERF_TU = _pair((9.60497373987051638749e0, 9.00260197203842689217e1,
                 2.23200534594684319226e3, 7.00332514112805075473e3,
                 5.55923013010394962768e4),
                (3.35617141647503099647e1, 5.21357949780152679795e2,
                 4.59432382970980127987e3, 2.26290000613890934246e4,
                 4.92673942608635921086e4))
_ERFC_PQ = _pair((2.46196981473530512524e-10, 5.64189564831068821977e-1,
                  7.46321056442269912687e0, 4.86371970985681366614e1,
                  1.96520832956077098242e2, 5.26445194995477358631e2,
                  9.34528527171957607540e2, 1.02755188689515710272e3,
                  5.57535335369399327526e2),
                 (1.32281951154744992508e1, 8.67072140885989742329e1,
                  3.54937778887819891062e2, 9.75708501743205489753e2,
                  1.82390916687909736289e3, 2.24633760818710981792e3,
                  1.65666309194161350182e3, 5.57535340817727675546e2))
_ERFC_RS = _pair((5.64189583547755073984e-1, 1.27536670759978104416e0,
                  5.01905042251180477414e0, 6.16021097993053585195e0,
                  7.40974269950448939160e0, 2.97886665372100240670e0),
                 (2.26052863220117276590e0, 9.39603524938001434673e0,
                  1.20489539808096656605e1, 1.70814450747565897222e1,
                  9.60896809063285878198e0, 3.36907645100081516050e0))
_MAXLOG = 7.09782712893383996843e2      # Cephes: exp(-x^2) is 0 beyond
_BLOCK = 16384                          # elements per pass of erfc


def _horner_pair(t, coefs):
    """Numerator and denominator of a pair at real t, bit for bit as
    Cephes' polevl and p1evl: one complex Horner's rule evaluates both,
    since t's imaginary part is 0 and so is every cross term."""
    t = t.astype(np.complex128)
    r = t * coefs[0]
    r += coefs[1]
    for c in coefs[2:]:
        r *= t
        r += c
    return r.real, r.imag


def _erfc_block(x):
    """erfc of a 1-D block.  The 1 <= |x| < 8 branch, which holds most
    arguments, runs on every element; the other two are written over
    their own elements only, since gathering every branch costs more than
    the middle branch's wasted work."""
    a = np.minimum(np.abs(x), 27.0)          # 27^2 > MAXLOG: same result
    e = np.square(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p, q = _horner_pair(a, _ERFC_PQ)
    y = np.multiply(e, p, out=e)
    y /= q
    tail = a >= 8.0
    if tail.any():
        at = a[tail]
        sq = at * at
        et = np.exp(-sq)
        et[sq > _MAXLOG] = 0.0
        p, q = _horner_pair(at, _ERFC_RS)
        et *= p
        et /= q
        y[tail] = et
    neg = x < 0.0
    if neg.any():
        y = np.where(neg, 2.0 - y, y)
    small = a < 1.0
    if small.any():
        xs = x[small]
        p, q = _horner_pair(xs * xs, _ERF_TU)
        p = xs * p
        p /= q
        y[small] = np.subtract(1.0, p, out=p)
    return y


def erfc(x, out=None):
    """Complementary error function, elementwise, by Cephes' branches in
    its order of operations, so that values agree with
    scipy.special.erfc to the last bit or two: 1 - erf x on |x| < 1,
    erfc |x| beyond, and 2 - erfc |x| for x <= -1.  Beyond MAXLOG in x^2
    the result is 0 (2 for negative x), so huge and infinite arguments
    raise no warning.  Runs in blocks of _BLOCK elements, whose
    temporaries stay in cache; out may be x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    y = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        y[start:start + _BLOCK] = _erfc_block(flat[start:start + _BLOCK])
    y = y.reshape(x.shape)
    if out is None:
        return y
    out[...] = y
    return out


def hard_decision(soft):
    """BPSK slicer: int8 +1 when Re(x) >= 0 else -1, so 0 and -0.0 go to
    +1 and NaN to -1."""
    return (np.asarray(soft).real >= 0.0).view(np.int8) * np.int8(2) - np.int8(1)


def _mmse_bank(H, sigma2):
    """MMSE filters W = (H H^H + sigma2 I_S)^-1 H for every leading index
    of H at once.

    H is (..., S, N), complex or real: one effective vector per stream
    sharing an observation.  The row-stream form equals the textbook
    N x N one, ((H^T conj(H) + sigma2 I_N)^-1 H^T)^T, by the push-through
    identity, but solves an S x S system (6 x 6 instead of 16 x 16 on the
    paper system); it is used for every S and N.  Returns (..., S, N)
    filters.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    cov = H @ np.swapaxes(H.conj(), -1, -2) + sigma2 * np.eye(H.shape[-2])
    return np.linalg.solve(cov, H)


def source_relay_filter_bank(state, sigma2, kind: ReceiverKind):
    """Filters for every (user, relay) link of the first hop, (..., K, L, D)
    for a state whose arrays carry leading axes (...).

    The MMSE covariance at a relay sums over all K users observed
    there, so one solve per relay serves all its users.
    """
    if kind == ReceiverKind.RAKE:
        return state.h_eff_sr.copy()
    return _mmse_bank(state.h_eff_sr.swapaxes(-3, -2), sigma2).swapaxes(-3, -2)


def code_coordinates(codes):
    """The codes (K, N) in an orthonormal basis of their span, (K, r)
    with r = min(K, N): real F with F F^T = C C^T, the codes' Gram, from
    the QR of C^T."""
    return np.linalg.qr(codes.T, mode="r").T


def source_relay_outputs(h_sr, coords, sigma2, kind: ReceiverKind):
    """What every filter of source_relay_filter_bank makes of its own
    link, from the link gains h_sr (..., K, L) and the codes'
    coordinates F (code_coordinates) alone, with no N-chip array: the
    desired gains w^H h, real, and the filter energies ||w||^2, each
    (..., K, L).

    RAKE's w = h c gives |h|^2 for both.  At a relay the MMSE bank is
    W = (D R D^H + sigma2 I)^-1 D C with D = diag(h) and R = C C^T; D's
    phases cancel out of both numbers, and so does the basis of the
    chip space, so they are those of the MMSE bank on the real
    r-dimensional vectors A F, A = diag|h|, one K x K system
    (A R A + sigma2 I) per relay (Verdu, Multiuser Detection, ch. 6).
    Read from that bank, the numbers keep the chip-space precision even
    when R is singular (two codes equal up to sign, or K > N), and a
    zero gain gives a zero filter row, as in chip space.
    """
    a = np.abs(h_sr)
    if kind == ReceiverKind.RAKE:
        return a ** 2, a ** 2
    H = np.swapaxes(a, -1, -2)[..., None] * coords             # (..., L, K, r)
    W = _mmse_bank(H, sigma2)
    return (np.swapaxes(np.sum(W * H, axis=-1), -1, -2),
            np.swapaxes(np.sum(W * W, axis=-1), -1, -2))


def source_dest_filter_bank(state, sigma2, kind: ReceiverKind):
    """Direct-link filters for every user at the destination, (..., K, D)
    for a state whose arrays carry leading axes (...)."""
    if kind == ReceiverKind.RAKE:
        return state.h_eff_sd.copy()
    return _mmse_bank(state.h_eff_sd, sigma2)


def rank_one_outputs(filters, h, sigma2):
    """What scalar filters f (relay_dest_filter_bank) make of streams
    h * code * b + n on one unit-norm code, n ~ CN(0, sigma2 I_N): the
    output is conj(f) h b + |f| CN(0, sigma2).  Returns the gains
    conj(f) h, the noise powers sigma2 |f|^2 and the colourings |f|;
    filters broadcast against h."""
    colour = np.abs(filters)
    return filters.conj() * h, sigma2 * colour ** 2, colour


def relay_dest_filter_bank(state, sigma2, kind: ReceiverKind):
    """Second-hop filters, one scalar per relay stream, (..., L) for a
    state whose arrays carry leading axes (...), as the coefficient f of
    the filter f * code.

    The second hop schedules one relay stream per sub-slot (or the XOR
    pair's combined stream), so each observation holds one code in white
    noise: f = h for RAKE and, as the MMSE covariance holds that stream
    plus noise only, (h h^H + s I)^-1 h code = h / (s + |h|^2) code.  A
    relay whose gain is zero gets the zero filter, a stream of no power
    and no noise: the bank serves every relay of a channel block."""
    h = state.h_rd
    if kind == ReceiverKind.RAKE:
        return h.copy()
    return h / (sigma2 + np.abs(h) ** 2)


def effective_gains(filters, h_eff):
    """w^H h for matching rows of two (..., N) arrays -> (...,) complex."""
    return np.sum(filters.conj() * h_eff, axis=-1)


def detection_error_probs(users, state, filters_sr, sigma2):
    """Per-(user, relay) BPSK detection error probability at the pair's
    relays, from the post-filter SINR with residual interference treated
    as Gaussian.  state and filters_sr (K, relays, D) are the pair's,
    its relays in order on the relay axis.  Returns an (m_users,
    relays) matrix; users (..., m), the state's arrays and the bank may
    carry leading reception axes (...), which the result gains."""
    users = np.asarray(users)
    W = np.swapaxes(np.take_along_axis(filters_sr, users[..., :, None, None],
                                       axis=-3), -3, -2)      # (relay, user, D)
    cross = W.conj() @ np.moveaxis(state.h_eff_sr, -3, -1)   # (relay, user, K)
    power = np.abs(cross) ** 2
    noise = sigma2 * np.sum(np.abs(W) ** 2, axis=-1)
    signal = np.take_along_axis(power, users[..., None, :, None], axis=-1)[..., 0]
    gamma = signal / (power.sum(axis=-1) - signal + noise)
    return np.swapaxes(0.5 * erfc(np.sqrt(gamma)), -1, -2)
