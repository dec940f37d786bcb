"""Scenario configuration and the enums shared by every module."""

import numbers
from dataclasses import dataclass
from enum import Enum


class ReceiverKind(str, Enum):
    RAKE = "rake"
    MMSE = "mmse"


class Scheme(str, Enum):
    """Network coding scheme / coding matrix design."""

    XOR = "xor"
    RANDOM = "random"
    ML = "ml"
    MMSE_DESIGN = "mmse"


class DecoderKind(str, Enum):
    """Destination decoding path for the linear schemes."""

    JOINT = "joint"      # invert the m-equation system of the relay streams
    DIRECT = "direct"    # cancel known users via stored direct-link estimates


class PairMode(str, Enum):
    FIXED_GROUPS = "fixed"   # L/m disjoint relay pairs, one per user group
    ALL_PAIRS = "all"        # every unordered relay pair is a candidate


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one simulation.

    The per-user SNR is defined as 10*log10(1/sigma2) with unit-norm
    spreading codes and unit amplitudes, so `noise_var` is derived from
    `snr_db` directly.
    """

    num_users: int = 6
    num_relays: int = 6
    spreading_gain: int = 16
    buffer_size: int = 4
    group_size: int = 2
    packet_length: int = 1000
    snr_db: float = 10.0
    receiver: ReceiverKind = ReceiverKind.MMSE
    nc_design: Scheme = Scheme.RANDOM
    decoder: DecoderKind = DecoderKind.JOINT
    buffers_enabled: bool = True
    pair_mode: PairMode = PairMode.FIXED_GROUPS
    ml_training_len: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("num_users", "num_relays", "spreading_gain",
                     "buffer_size", "group_size", "packet_length",
                     "ml_training_len"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        seed = self.rng_seed   # a float, string or out-of-range seed would alias another
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ValueError(f"rng_seed must be an integer in [0, 2**64), got {seed!r}")
        snr = self.snr_db      # beyond 3000 dB in magnitude noise_var under- or overflows
        if isinstance(snr, bool) or not isinstance(snr, numbers.Real) or not abs(snr) < 3000:
            raise ValueError(f"snr_db must be a real number in (-3000, 3000) dB, got {snr!r}")
        # the modules compare against enum members and branch on truth: a
        # string such as "JOINT" or "no" would silently select the other branch
        for name, kind in (("receiver", ReceiverKind), ("nc_design", Scheme),
                           ("decoder", DecoderKind), ("pair_mode", PairMode),
                           ("buffers_enabled", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        if self.num_users % self.group_size != 0:
            raise ValueError("num_users must be divisible by group_size")
        if self.num_relays % self.group_size != 0:
            raise ValueError("num_relays must be divisible by group_size")
        if self.num_users > self.num_relays and (     # pairs are the groups' relays
                self.pair_mode == PairMode.FIXED_GROUPS or not self.buffers_enabled):
            short = list(range(self.num_relays // self.group_size, self.num_groups))
            raise ValueError(f"groups {short} have fewer than m={self.group_size} "
                             "relays (K > L): their users would never be served")
        if self.nc_design == Scheme.MMSE_DESIGN and self.group_size > 3:
            # select_G_mmse gathers a reception's slicer errors of every
            # invertible binary encoder over all 2^(m^2) detection-flip and
            # 2^m data patterns: 17 MB at m=3, about 7e11 bytes at m=4
            raise ValueError("the mmse design supports group size m <= 3, "
                             f"got m={self.group_size}")

    @property
    def noise_var(self) -> float:
        """Total variance per complex chip sample (sigma^2)."""
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def num_groups(self) -> int:
        return self.num_users // self.group_size


def check_count(name, value, least):
    """value as an int if it is an integer of at least least, a NumPy
    integer too but never a bool; otherwise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ValueError(f"{name} must be >= {least} (an integer, not a bool), "
                         f"got {value!r}")
    return int(value)


# Keys accepted in the flat key=value config file consumed by the CLI.
_FILE_KEYS = {
    "K": ("num_users", int),
    "L": ("num_relays", int),
    "N": ("spreading_gain", int),
    "J": ("buffer_size", int),
    "m": ("group_size", int),
    "P": ("packet_length", int),
    "receiver": ("receiver", ReceiverKind),
    "schemes": ("schemes", str),
    "seed": ("rng_seed", int),
}


def read_config_file(path):
    """Parse a flat key=value config file; unknown or repeated keys are
    rejected.

    Returns a dict of SystemConfig field overrides plus an optional
    'schemes' entry (comma-separated list kept as a string).
    """
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FILE_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field_name, caster = _FILE_KEYS[key]
            if field_name in overrides:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            try:
                overrides[field_name] = caster(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return overrides
