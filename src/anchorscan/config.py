"""Compile-time knobs, all defaultable from the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

#: Key lengths the filter bank can hold: 2 hits the exact bitmap, 4 and 8 the
#: xor units. Window trimming always lands on one of these.
SUPPORTED_KEY_LENGTHS = (2, 4, 8)


@dataclass(frozen=True)
class CompileConfig:
    # fragment splitting: a repetition over a class with population greater
    # than long_pop_threshold counts as a gap component when its bound exceeds
    # long_count_threshold (or is unbounded).
    long_pop_threshold: int = 128
    long_count_threshold: int = 50

    # filter key extraction
    max_key_prob: float = 1e-4      # keys must be rarer than this under uniform bytes
    max_key_len: int = 8            # longest candidate window considered
    max_expansion: int = 1024       # concrete byte strings a key may expand to
    alt_cap: int = 64               # alternative linearizations per fragment

    # filter bank
    fingerprint_bits: int = 8
    filter_seed: int = 0x5EED
    filter_build_attempts: int = 100

    # automata
    state_cap: int = 1_000_000

    # verification
    record_cap: int = 64

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "CompileConfig":
        """Read a stored config, rejecting values a compile could not have
        written with ValueError: a database's config drives its scans, and
        a bad `record_cap` there silently drops matches or fails mid-scan."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(CompileConfig)}
        config = CompileConfig(**{k: v for k, v in data.items() if k in names})
        for name, (lo, hi) in _INT_RANGES.items():
            value = getattr(config, name)
            if type(value) is not int:
                raise ValueError(f"config {name} must be an integer, got {value!r}")
            if lo is not None and value < lo:
                raise ValueError(f"config {name} must be at least {lo}, got {value}")
            if hi is not None and value > hi:
                raise ValueError(f"config {name} must be at most {hi}, got {value}")
        prob = config.max_key_prob
        if type(prob) not in (int, float) or not 0 < prob < math.inf:
            raise ValueError(f"config max_key_prob must be a positive number, got {prob!r}")
        return config


#: inclusive (lo, hi) bounds of the integer settings, None where any value
#: compiles: the thresholds only compare against class sizes and counts
_INT_RANGES = {
    "long_pop_threshold": (None, None),
    "long_count_threshold": (None, None),
    "max_key_len": (2, None),
    "max_expansion": (1, None),
    "alt_cap": (1, None),
    "fingerprint_bits": (1, 32),
    "filter_seed": (0, 2**64 - 1),
    "filter_build_attempts": (1, None),
    "state_cap": (1, None),
    "record_cap": (1, None),
}
