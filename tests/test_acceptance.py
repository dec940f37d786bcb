"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The BER sweeps use the full scenario (K=6, L=6,
N=16, J=4, m=2, BPSK, MMSE receivers, 2e5 bits per point).
"""

import time
from itertools import product

import numpy as np
import pytest

from plnc_sim import (BufferBank, DecoderKind, ReceiverKind, Scheme,
                      SlotMachine, SystemConfig, build_sinr_table, decide_action,
                      design_G_mmse, design_G_random, decode_joint,
                      decode_with_direct, detect_ncs, draw_channel,
                      encoder_table, generate_codebook, hard_decision,
                      run_sweep, run_trial)
from plnc_sim.cli import main
from plnc_sim.network_coding import argmin_with_ties, design_G_ml_for_channel
from plnc_sim.receivers import (relay_dest_filter_bank,
                                source_relay_filter_bank)
from plnc_sim.signal_model import complex_gaussian

from oracles import (invertible_binary, max_link_hop_ber,
                     ml_calibration_outputs, rayleigh_bpsk_ber,
                     relay_chain_ber)

SNR_POINTS = [6.0, 10.0, 14.0]
BITS_PER_POINT = 200_000


def report_line(num, ok, text):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {text}")


def paper_config(**kw):
    defaults = dict(num_users=6, num_relays=6, spreading_gain=16,
                    buffer_size=4, group_size=2, packet_length=1000,
                    receiver=ReceiverKind.MMSE, rng_seed=2024)
    defaults.update(kw)
    return SystemConfig(**defaults)


def significant_gap(worse, better):
    """True when worse.ber - better.ber exceeds two combined MC errors."""
    gap = worse.ber - better.ber
    return gap > 2.0 * np.hypot(worse.stderr, better.stderr)


@pytest.fixture(scope="module")
def sweep_results():
    """One shared sweep for the BER-ordering criteria: the three linear
    designs plus XOR buffered, and the random baseline unbuffered."""
    cfg = paper_config()
    n_packets = BITS_PER_POINT // (cfg.group_size * cfg.packet_length)
    t0 = time.perf_counter()
    buffered = run_sweep(cfg, SNR_POINTS, n_packets,
                         schemes=[Scheme.RANDOM, Scheme.ML,
                                  Scheme.MMSE_DESIGN, Scheme.XOR],
                         buffer_modes=[True])
    unbuffered = run_sweep(cfg, SNR_POINTS, n_packets,
                           schemes=[Scheme.RANDOM], buffer_modes=[False])
    elapsed = time.perf_counter() - t0
    points = {}
    for p in buffered.points + unbuffered.points:
        scheme = p.scheme_label.split("-")[0]
        mode = p.scheme_label.split("-")[1]
        points[(scheme, mode, p.snr_db)] = p
    return points, elapsed


class TestCriterion1Fig3Ordering:
    def test_design_ordering(self, sweep_results):
        points, elapsed = sweep_results
        ordering_ok = True
        detail = []
        for worse_name, better_name in (("random", "ml"), ("ml", "mmse")):
            n_significant = 0
            for snr in SNR_POINTS:
                worse = points[(worse_name, "buffered", snr)]
                better = points[(better_name, "buffered", snr)]
                if significant_gap(better, worse):
                    ordering_ok = False      # significant inversion
                if significant_gap(worse, better):
                    n_significant += 1
                detail.append(f"{better_name}<{worse_name}@{snr:g}dB "
                              f"{better.ber:.2e}/{worse.ber:.2e}")
            if n_significant < 2:
                ordering_ok = False
        runtime_ok = elapsed < 600.0
        ok = ordering_ok and runtime_ok
        report_line(1, ok, "BER(mmse) <= BER(ml) <= BER(random), gaps > 2 "
                           f"stderr at >=2 of 3 points, runtime {elapsed:.0f}s "
                           f"< 600s; {'; '.join(detail)}")
        assert ordering_ok, detail
        assert runtime_ok, f"sweep took {elapsed:.0f}s"


class TestCriterion2BufferGain:
    def test_buffered_beats_unbuffered(self, sweep_results):
        points, _ = sweep_results
        ok = True
        detail = []
        for snr in SNR_POINTS:
            buf = points[("random", "buffered", snr)]
            unbuf = points[("random", "unbuffered", snr)]
            good = significant_gap(unbuf, buf)
            ok = ok and good
            detail.append(f"{snr:g}dB buf={buf.ber:.2e} unbuf={unbuf.ber:.2e}")
        report_line(2, ok, "buffered (J=4) below unbuffered by > 2 stderr at "
                           f"6/10/14 dB; {'; '.join(detail)}")
        assert ok, detail


class TestCriterion3XorVsLinear:
    def test_linear_outperforms_xor(self, sweep_results):
        points, _ = sweep_results
        xor = points[("xor", "buffered", 10.0)]
        lin = points[("random", "buffered", 10.0)]
        ok = significant_gap(xor, lin)
        report_line(3, ok, f"linear random-G {lin.ber:.2e} < XOR "
                           f"{xor.ber:.2e} at 10 dB, same protocol/receiver")
        assert ok


class TestCriterion4MmseDesignOracle:
    def test_closed_form_matches_sample_ls(self):
        rng = np.random.default_rng(41)
        sigma2 = 0.2
        worst = 0.0
        for _ in range(20):
            h = complex_gaussian(rng, (2, 16))
            w = h / (sigma2 + np.sum(np.abs(h) ** 2, axis=1))[:, None]
            row = design_G_random(2, rng, 1)[0]
            G = encoder_table(2).G[row]
            gains = np.sum(w.conj() * h, axis=1)
            nvar = sigma2 * np.sum(np.abs(w) ** 2, axis=1)
            T = 100_000
            b = np.where(rng.standard_normal((2, T)) >= 0, 1.0, -1.0)
            a = G.T @ b
            z = gains[:, None] * a + complex_gaussian(rng, (2, T)) \
                * np.sqrt(nvar)[:, None]
            ls = np.linalg.solve((z @ z.conj().T).T, (a @ z.conj().T).T).T
            dec = design_G_mmse(row, gains, nvar)
            rel = np.linalg.norm(dec.entries - ls) / np.linalg.norm(dec.entries)
            worst = max(worst, rel)
        ok = worst <= 1e-2
        report_line(4, ok, f"closed-form decode matrix vs sample-LS minimizer: "
                           f"worst relative Frobenius distance {worst:.2e} <= 1e-2 "
                           "over 20 realizations, 1e5 samples each")
        assert ok


class TestCriterion5MlDesignOracle:
    def test_exhaustive_matches_bruteforce(self):
        # the design's search against plain loops over the explicit
        # calibration block, drawn from a generator in the design's start
        # state: hard-decided training symbols, then the block's noise
        rng = np.random.default_rng(51)
        cands = invertible_binary(2)
        agree = 0
        for i in range(100):
            h = complex_gaussian(rng, (2, 16))
            sigma2 = float(rng.uniform(0.05, 0.5))
            w = h / (sigma2 + np.sum(np.abs(h) ** 2, axis=1))[:, None]
            gains = np.sum(w.conj() * h, axis=1)
            nvar = sigma2 * np.sum(np.abs(w) ** 2, axis=1)
            row, _ = design_G_ml_for_channel(gains, nvar, 100,
                                             np.random.default_rng([51, i]))
            calibration = np.random.default_rng([51, i])
            training = hard_decision(calibration.standard_normal((2, 100)))
            outs = ml_calibration_outputs(gains, nvar, training, calibration)
            oracle = []
            for j, cand in enumerate(cands):
                total = 0.0
                for t in range(training.shape[1]):
                    rec = np.linalg.solve(cand.T.astype(complex),
                                          outs[j][:, t] / gains)
                    total += float(np.sum(np.abs(training[:, t] - rec) ** 2))
                oracle.append(total)
            best = argmin_with_ties(oracle)
            if row == best:
                agree += 1
        ok = agree == 100
        report_line(5, ok, f"exhaustive design equals independent brute-force "
                           f"argmin on {agree}/100 random calibration blocks "
                           "(deterministic tie-break)")
        assert ok


class TestCriterion6NoiselessExactness:
    def test_every_scheme_and_decoder(self):
        combos = [(s, d) for s in (Scheme.RANDOM, Scheme.ML, Scheme.MMSE_DESIGN)
                  for d in (DecoderKind.JOINT, DecoderKind.DIRECT)]
        combos.append((Scheme.XOR, DecoderKind.DIRECT))
        failures = []
        for scheme, decoder in combos:
            cfg = SystemConfig(num_users=2, num_relays=2, spreading_gain=16,
                               buffer_size=4, group_size=2, packet_length=500,
                               snr_db=120.0, receiver=ReceiverKind.MMSE,
                               nc_design=scheme, decoder=decoder, rng_seed=6)
            res = run_trial(cfg, 66, n_packets=10)
            assert res.bits_total == 10_000
            if res.bit_errors:
                failures.append((scheme.value, decoder.value, res.bit_errors))
        ok = not failures
        report_line(6, ok, "sigma2 = 1e-12, single group: zero errors over 1e4 "
                           f"bits for every scheme and both decoders {failures or ''}")
        assert ok, failures


class TestCriterion7SmallInstanceBruteForce:
    def test_encode_decode_identities(self):
        bad = []
        for row, cand in enumerate(encoder_table(2).G):
            for pattern in product((-1.0, 1.0), repeat=2):
                b = np.array(pattern)[:, None]              # one (m, 1) column
                ncs = cand.T @ b
                joint = decode_joint(row, ncs.astype(complex), np.ones(2))
                if not np.array_equal(joint, b):
                    bad.append(("joint", cand.tolist(), pattern))
                est = detect_ncs(row, ncs.astype(complex), np.ones(2))
                got = decode_with_direct(row, est, b)
                for k in (0, 1):
                    if got[k, 0] != b[k, 0]:
                        bad.append(("direct", cand.tolist(), pattern, k))
        ok = not bad
        report_line(7, ok, "all 6 invertible encoders x 4 patterns decode "
                           f"exactly through both paths {bad or ''}")
        assert ok, bad


class TestCriterion8SinrOracle:
    @staticmethod
    def empirical_sr(pair, state, W, sigma2, rng, T):
        K, L, _ = state.h_eff_sr.shape
        num = interference = noise_power = 0.0
        for l in range(L):
            noise = complex_gaussian(rng, (T, W.shape[2]), sigma2)
            for k in range(K):
                w = W[k, l]
                b = np.where(rng.standard_normal(T) >= 0, 1.0, -1.0)
                power = np.mean(np.abs((np.conj(w) @ state.h_eff_sr[k, l]) * b) ** 2)
                if l in pair:
                    num += power
                    noise_power += np.mean(np.abs(noise @ np.conj(w)) ** 2)
                else:
                    interference += power
        return num / (interference + noise_power)

    @staticmethod
    def empirical_rd(pair, state, W, code, sigma2, rng, T):
        # chip-level relay streams h_rd * code and N-chip filters f * code
        # on an explicit unit-norm code
        num = interference = noise_power = 0.0
        for l in range(len(state.h_rd)):
            w = W[l] * code
            b = np.where(rng.standard_normal(T) >= 0, 1.0, -1.0)
            power = np.mean(np.abs((np.conj(w) @ (state.h_rd[l] * code)) * b) ** 2)
            if l in pair:
                num += power
                noise = complex_gaussian(rng, (T, code.size), sigma2)
                noise_power += np.mean(np.abs(noise @ np.conj(w)) ** 2)
            else:
                interference += power
        return num / (interference + noise_power)

    def test_analytic_within_five_percent(self):
        cfg = paper_config(snr_db=10.0)
        book = generate_codebook(cfg)
        rng = np.random.default_rng(81)
        sigma2 = cfg.noise_var
        code = book.codes[0]
        T = 100_000
        worst = 0.0
        for trial in range(20):
            state = draw_channel(cfg, book, rng)
            kind = (ReceiverKind.RAKE, ReceiverKind.MMSE)[trial % 2]
            Wsr = source_relay_filter_bank(state, sigma2, kind)
            Wrd = relay_dest_filter_bank(state, sigma2, kind)
            pair = (0, 1)
            an_sr, an_rd = build_sinr_table(state, Wsr, Wrd, sigma2, [pair])[0]
            em_sr = self.empirical_sr(pair, state, Wsr, sigma2, rng, T)
            em_rd = self.empirical_rd(pair, state, Wrd, code, sigma2, rng, T)
            worst = max(worst, abs(an_sr - em_sr) / em_sr,
                        abs(an_rd - em_rd) / em_rd)
        ok = worst <= 0.05
        report_line(8, ok, f"analytic SINR vs 1e5-symbol empirical estimate: "
                           f"worst deviation {worst:.3%} <= 5% over 20 "
                           "realizations, both hops, both receivers")
        assert ok


class TestCriterion9BufferFuzz:
    def test_hundred_thousand_slots(self):
        rng = np.random.default_rng(91)
        J = 4
        bank = BufferBank(6, capacity=J)
        pairs = {0: (0, 1), 1: (2, 3), 2: (4, 5)}
        pushed = {p: [] for p in pairs}
        popped = {p: [] for p in pairs}
        serial = 0
        violations = []
        for slot in range(100_000):
            table = rng.random((3, 2))
            for pid, relays in pairs.items():
                if all(len(bank.buffers[r]) == 0 for r in relays):
                    if not bank.can_receive(relays):
                        violations.append((slot, pid, "empty not receivable"))
                if all(len(bank.buffers[r]) == J for r in relays):
                    if not bank.can_transmit(relays):
                        violations.append((slot, pid, "full not transmittable"))
            action, pair_id, relays, _, _ = decide_action(table, list(pairs.values()),
                                                          bank)
            before = bank.occupancies()
            if action == "receive":
                bank.push_pair(relays, serial)
                pushed[pair_id].append(serial)
                serial += 1
            else:
                popped[pair_id].append(bank.pop_pair(relays))
            after = bank.occupancies()
            if not all(0 <= o <= J for o in after):
                violations.append((slot, "occupancy bound"))
            if sum(abs(a - b) for a, b in zip(after, before)) != 2:
                violations.append((slot, "half duplex"))   # one pair action only
        for pid in pairs:
            if popped[pid] != pushed[pid][:len(popped[pid])]:
                violations.append((pid, "fifo order"))
        ok = not violations
        report_line(9, ok, "1e5 random-SINR slots: occupancy bounds, FIFO, "
                           f"half-duplex and eligibility all hold {violations[:3]}")
        assert ok, violations[:10]


class TestCriterion10Determinism:
    def test_csv_identical_across_parallelism(self, tmp_path):
        args = ["sweep", "--snr", "6,10", "--bits", "8000", "--schemes",
                "random,xor", "--seed", "7"]
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=100\n")
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        code1 = main(args + ["--config", str(cfg), "--workers", "1",
                             "--out", str(out1)])
        code2 = main(args + ["--config", str(cfg), "--workers", "3",
                             "--out", str(out2)])
        ok = (code1 == 0 and code2 == 0
              and out1.read_bytes() == out2.read_bytes())
        report_line(10, ok, "identical config+seed give bit-identical CSV "
                            "with 1 and 3 worker processes")
        assert ok


# The one-user, one-relay chain (K = L = m = 1, N = 8, P = 16) has no
# interference, so its end-to-end BER has a closed form: every stage
# (SNR definition, fading, receivers, slicer, coding, buffer protocol,
# scoring) is on the path.  One machine of 20000 packets per point, with
# the xor and random lanes; a bit error count per packet is a cluster,
# so z is taken over packets.
ANCHOR_PACKETS = 20_000
ANCHOR_Z = 4.0


def chain_z(expected_ber, seed, **kw):
    """Per lane (xor, random), the packet-level z of the chain's BER
    against expected_ber."""
    cfg = SystemConfig(num_users=1, num_relays=1, spreading_gain=8,
                       group_size=1, packet_length=16, rng_seed=2017, **kw)
    mach = SlotMachine(cfg, seed, schemes=[Scheme.XOR, Scheme.RANDOM])
    mach.run_until(ANCHOR_PACKETS)
    log = mach.log
    errors = log["bit_errors"][log["transmit"]].astype(np.float64)   # (packets, lanes)
    stderr = errors.std(axis=0, ddof=1) / np.sqrt(len(errors))
    return (errors.mean(axis=0) - expected_ber * cfg.packet_length) / stderr


class TestCriterion11UnbufferedChainClosedForm:
    @pytest.mark.parametrize("receiver", list(ReceiverKind))
    @pytest.mark.parametrize("snr_db", [0.0, 6.0, 10.0, 14.0])
    def test_ber_is_two_rayleigh_hops(self, snr_db, receiver):
        # BER = 2 P (1 - P), P the Rayleigh BPSK error at mean SNR 1/sigma2
        expected = relay_chain_ber(rayleigh_bpsk_ber(10.0 ** (snr_db / 10.0)))
        z = chain_z(expected, [11, int(snr_db), receiver == ReceiverKind.MMSE],
                    snr_db=snr_db, receiver=receiver, buffers_enabled=False)
        ok = bool(np.all(np.abs(z) <= ANCHOR_Z))
        report_line(11, ok, f"unbuffered K=L=m=1 chain at {snr_db:g} dB, "
                            f"{receiver.value}: BER {expected:.4g}, packet-level "
                            f"z (xor, random) = {np.round(z, 2).tolist()}")
        assert ok, z


class TestCriterion12BufferedChainClosedForm:
    @pytest.mark.parametrize("receiver", list(ReceiverKind))
    @pytest.mark.parametrize("J,snr_db", [(1, 6.0), (4, 10.0)])
    def test_ber_is_two_max_link_hops(self, J, snr_db, receiver):
        # one relay of capacity J: BER = 2 P_J (1 - P_J) with
        # P_J = P / J + (1 - 1/J)(2 P(snr) - P(snr / 2))
        expected = relay_chain_ber(max_link_hop_ber(10.0 ** (snr_db / 10.0), J))
        z = chain_z(expected, [12, J, int(snr_db), receiver == ReceiverKind.MMSE],
                    snr_db=snr_db, receiver=receiver, buffer_size=J)
        ok = bool(np.all(np.abs(z) <= ANCHOR_Z))
        report_line(12, ok, f"buffered K=L=m=1 chain, J={J}, at {snr_db:g} dB, "
                            f"{receiver.value}: BER {expected:.4g}, packet-level "
                            f"z (xor, random) = {np.round(z, 2).tolist()}")
        assert ok, z
