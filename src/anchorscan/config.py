"""Compile-time settings, each one set by an `anchorscan compile` flag."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "CompileConfig":
        """Read a stored config, rejecting values a compile could not have
        written with ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(CompileConfig)}
        config = CompileConfig(**{k: v for k, v in data.items() if k in names})
        for name, lo in _INT_MINIMUMS.items():
            value = getattr(config, name)
            if type(value) is not int:
                raise ValueError(f"config {name} must be an integer, got {value!r}")
            if lo is not None and value < lo:
                raise ValueError(f"config {name} must be at least {lo}, got {value}")
        prob = config.max_key_prob
        if type(prob) not in (int, float) or not 0 < prob < math.inf:
            raise ValueError(f"config max_key_prob must be a positive number, got {prob!r}")
        return config


#: inclusive lower bounds of the integer settings, None where any value
#: compiles: the thresholds only compare against class sizes and counts
_INT_MINIMUMS = {
    "long_pop_threshold": None,
    "long_count_threshold": None,
    "max_key_len": 2,
}
