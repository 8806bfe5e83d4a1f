"""Compile-time settings, each one set by an `anchorscan compile` flag."""
from __future__ import annotations

from dataclasses import dataclass

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
