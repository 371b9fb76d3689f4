"""Configuration, domain types and stage decisions shared by all engines.

Samples are plain non-negative ints that must fit the configured data width;
there is no wrapper type, and :func:`check_samples` is the one check every
entry point applies.  The clocked engines carry samples as int64
(:func:`as_samples`), the batch paths at the sample dtype
(:func:`narrowest_uint`).  All engines treat rank M = 1 as "find the
maximum" and M = N as "find the minimum".

The chain records validate once, in ``_ChainTiming``, and name the shape of
one clock's input (``lanes``); :mod:`rankpipe.core` runs every record
through one clocked engine and one batch entry.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

MAX_DATA_BITS = 16


class ConfigError(ValueError):
    """Invalid engine, window, or filter configuration."""


class FramingError(RuntimeError):
    """A first-data marker arrived where the stream framing forbids one."""


def _integral(value, what: str) -> int:
    """``value`` as an int (numpy integers included); floats are rejected,
    never truncated, and so are bools, never read as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be integers, not bools, got {value}")
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be integers, got {value!r}") from None


def _count(value, what: str) -> int:
    """``value`` as a non-negative int: a count of sets or columns."""
    value = _integral(value, what)
    if value < 0:
        raise ConfigError(f"{what} must be non-negative, got {value}")
    return value


def _integer_fields(record) -> None:
    """Store every field of a frozen params record as an int."""
    for name in (f.name for f in fields(record)):
        object.__setattr__(record, name, _integral(getattr(record, name),
                                                   f"{name} values"))


def counter_preset(rank: int, counter_bits: int) -> int:
    """Accumulator preset ``2**(C-1) - M``.

    Starting the count here turns bit C-1 of the accumulator into the
    ``count >= M`` comparator for free: that bit's mask is ``preset + M``.
    """
    rank = _integral(rank, "rank values")
    counter_bits = _integral(counter_bits, "counter_bits values")
    if counter_bits < 1:
        raise ConfigError(f"counter_bits must be at least 1, got {counter_bits}")
    half = 1 << (counter_bits - 1)
    if not 1 <= rank <= half:
        raise ConfigError(f"rank {rank} outside [1, {half}] for "
                          f"{counter_bits}-bit counters")
    return half - rank


def counter_width(set_size: int, rank: int) -> int:
    """Accumulator width C for rank M of N samples (1 <= M <= N): the
    narrowest of at least 8 bits whose presets neither start below zero
    (M <= 2**(C-1)) nor wrap past the comparator bit (N - M < 2**(C-1))."""
    if not 1 <= rank <= set_size:
        raise ConfigError(
            f"rank must satisfy 1 <= M <= N, got M={rank} N={set_size}")
    half = max(rank, set_size - rank + 1)
    return max(8, (half - 1).bit_length() + 1)


def quarter_width(data_bits: int, bits_resolved: int) -> int:
    """Quarter width of a B-bit range with ``bits_resolved`` bits resolved."""
    data_bits = _integral(data_bits, "data_bits values")
    bits_resolved = _integral(bits_resolved, "bits_resolved values")
    if not 0 <= bits_resolved <= data_bits - 2:
        raise ConfigError(f"no quarters remain with {bits_resolved} of "
                          f"{data_bits} bits resolved")
    return 1 << (data_bits - bits_resolved - 2)


def priority(msbs, weights=(1, 2, 3), out=None):
    """A stage's priority encode: the weight (by default the result bits 1
    to 3) of the highest boundary whose MSB is nonzero, or 0.  ``msbs``
    stacks one MSB per boundary on axis 0, lowest first; ``out`` gets the
    weighted stack."""
    msbs = np.asarray(msbs)
    weights = np.asarray(weights).reshape((-1,) + (1,) * (msbs.ndim - 1))
    return np.multiply(msbs != 0, weights, out=out).max(axis=0)


def padded_bits(bits: int) -> int:
    """Round an odd sample width up to the even width the 2-bit stages need."""
    return bits + 1 if bits % 2 else bits


def narrowest_uint(bits: int) -> np.dtype:
    """The narrowest unsigned dtype holding ``bits`` bits: uint8 up to 8,
    uint16 up to 16, and so on to uint64.  It is the sample dtype of B-bit
    data and the accumulator dtype of C-bit counters."""
    return np.dtype(f"uint{max(8, 1 << (bits - 1).bit_length())}")


def _array(data) -> np.ndarray:
    """``data`` as an array, refusing rows of unequal length."""
    try:
        return np.asarray(data)
    except ValueError:  # numpy's refusal of a ragged sequence
        raise ConfigError("sample rows must all be one length") from None


def check_samples(data, data_bits: int) -> np.ndarray:
    """``data`` as an array of its own dtype, once every sample is checked
    to be an integer in ``[0, 2**data_bits)``; floats are rejected, never
    truncated.  Empty input passes whatever its dtype.  A bound the dtype
    already keeps is not scanned for.  Callers cast the checked samples
    where they store them: to int64 (:func:`as_samples`), or to the sample
    dtype (:func:`narrowest_uint`) on the batch paths."""
    data = _array(data)
    if data.size == 0:
        return data
    if data.dtype.kind not in "iu":
        raise ConfigError(f"samples must be integers that fit in {data_bits} "
                          f"bits, got {data.dtype} data")
    limits = np.iinfo(data.dtype)
    if limits.min < 0 and data.min() < 0:
        raise ConfigError("samples must be non-negative")
    if limits.max >= 1 << data_bits and int(data.max()) >= 1 << data_bits:
        raise ConfigError(f"samples must fit in {data_bits} bits")
    return data


def as_samples(data, data_bits: int) -> np.ndarray:
    """``data`` as a checked int64 array: what the clocked engines carry."""
    return check_samples(data, data_bits).astype(np.int64, copy=False)


class _ChainTiming:
    """The cycle contract of every engine, from ``set_cycles``: the clocks
    one set spends in a stage (N samples, or Cw columns).  A run starts
    ``sets`` sets every ``cadence`` cycles from cycle 0.  It is the one
    validator of every record: integer fields, each of ``_sizes`` at least
    1, ``data_bits`` in range and padded to even, ``pipe_latency`` >= 0,
    and 1 <= M <= N."""

    def __post_init__(self):
        _integer_fields(self)
        if not 2 <= self.data_bits <= MAX_DATA_BITS:
            raise ConfigError(
                f"data_bits must be in [2, {MAX_DATA_BITS}], got {self.data_bits}"
            )
        object.__setattr__(self, "data_bits", padded_bits(self.data_bits))
        if self.pipe_latency < 0:
            raise ConfigError("pipe_latency must be non-negative")
        for name in self._sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        counter_width(self.set_size, self.rank)  # raises unless 1 <= M <= N

    @property
    def stages(self) -> int:
        """Number of 2-bit refinement stages (B/2)."""
        return self.data_bits // 2

    @property
    def counter_bits(self) -> int:
        """Accumulator width C of N and M (:func:`counter_width`)."""
        return counter_width(self.set_size, self.rank)

    @property
    def pipe_delay(self) -> int:
        """Per-stage data delay: set cycles plus the latency L."""
        return self.set_cycles + self.pipe_latency

    @property
    def alignment(self) -> int:
        """Cycles from a set's first sample to its result (and dv) pulse."""
        return self.stages * self.pipe_delay - 1

    @property
    def drain_cycles(self) -> int:
        """Idle clocks after the last sample that flush the final result."""
        return (self.stages - 1) * self.pipe_delay + self.pipe_latency

    @property
    def cadence(self) -> int:
        """Cycles between the starts of back-to-back sets."""
        return self.set_cycles

    def starts(self, columns: int) -> int:
        """Sets a stream of ``columns`` cycles starts: whole sets."""
        sets, rest = divmod(_count(columns, "column counts"), self.set_cycles)
        if rest:
            raise FramingError(f"stream length {columns} is not a multiple "
                               f"of the set length {self.set_cycles}")
        return sets

    def fire(self, sets: int) -> np.ndarray:
        """The dv cycles of a run."""
        sets = _count(sets, "set counts")
        first = self.alignment
        return np.arange(first, first + sets * self.cadence, self.cadence)

    def cycles(self, sets: int) -> int:
        """Cycles of a run, through its last dv cycle; on a chain that is
        sets * N + drain_cycles."""
        sets = _count(sets, "set counts")
        return (sets - 1) * self.cadence + self.alignment + 1

    def comparisons(self, sets: int) -> int:
        """Boundary comparisons of a run: 3 per sample in every stage."""
        sets = _count(sets, "set counts")
        return 3 * self.set_size * self.stages * sets


@dataclass(frozen=True)
class FilterParams(_ChainTiming):
    """Static configuration of a single-channel engine.

    ``data_bits`` is the sample width; odd widths are zero-padded up to the
    next even value.  ``set_size`` (N) counts samples per data set and
    ``rank`` (M) selects the M-th largest.  ``pipe_latency`` (L), keyword
    only, is the per-stage internal pipeline depth.  The counter width
    follows from N and M (:attr:`counter_bits`), so any N and M in range
    make a record.
    """

    data_bits: int
    set_size: int
    rank: int
    pipe_latency: int = field(default=5, kw_only=True)

    _sizes = ("set_size",)
    lanes = ()  # the shape of one clock's input: a sample

    @property
    def set_cycles(self) -> int:
        """Cycles one set occupies a stage: one sample per clock."""
        return self.set_size


@dataclass(frozen=True)
class McParams(_ChainTiming):
    """Configuration of a K-channel engine consuming one column per clock.

    A window spans ``columns`` (Cw) clock cycles of ``channels`` (K) samples
    each; the effective set size is N = K * Cw and must satisfy every
    single-channel invariant.  ``pipe_latency`` is keyword only, as on
    :class:`FilterParams`.
    """

    channels: int
    columns: int
    rank: int
    data_bits: int = 8
    pipe_latency: int = field(default=5, kw_only=True)

    _sizes = ("channels", "columns")

    @property
    def lanes(self) -> tuple[int]:  # one clock's input: a column of K
        return (self.channels,)

    @property
    def set_size(self) -> int:
        return self.channels * self.columns

    @property
    def set_cycles(self) -> int:
        """Cycles one window occupies a stage: one column per clock."""
        return self.columns


@dataclass(frozen=True)
class SlidingParams(McParams):
    """A W x W sliding ensemble: W staggered W-channel chains that start a
    window every clock and share one first stage."""

    cadence = 1

    def __post_init__(self):
        super().__post_init__()
        if self.columns % 2 == 0 or self.channels != self.columns:
            raise ConfigError("sliding ensembles support odd window sides only")

    def starts(self, columns: int) -> int:
        """Window starts over ``columns`` > 0 columns: whole cadences of W."""
        if not _count(columns, "column counts"):
            raise ConfigError("sliding runs need at least one column")
        return -(-columns // self.columns) * self.columns

    def comparisons(self, sets: int) -> int:
        """Every chain's first stage has the root range's boundaries, so it
        compares each column once for all; later stages, each window."""
        return 3 * (self.channels * self.cycles(sets)
                    + self.set_size * (self.stages - 1) * sets)


@dataclass(frozen=True)
class PartialMedian:
    """Resolved high-bit prefix of the eventual result.

    Stands for the surviving value range
    ``[prefix, prefix + 2**(B - bits_resolved) - 1]``; the unresolved low
    bits of ``prefix`` are zero.  ``PartialMedian()`` is the root token
    covering the full range.
    """

    prefix: int = 0
    bits_resolved: int = 0

    def __post_init__(self):
        _integer_fields(self)
        if self.bits_resolved < 0 or self.bits_resolved % 2:
            raise ConfigError("bits_resolved must be a non-negative even count")
        if self.prefix < 0:
            raise ConfigError("prefix must be non-negative")

    def _quarter(self, data_bits: int) -> int:
        """The quarter width of this range of ``data_bits``-bit samples,
        once it is checked to be one: below 2**B, its unresolved low bits
        zero."""
        q = quarter_width(data_bits, self.bits_resolved)
        if self.prefix >> data_bits or self.prefix % (4 * q):
            raise ConfigError(f"{self} is no range of {data_bits}-bit samples")
        return q

    def refined(self, quarter: int, data_bits: int) -> "PartialMedian":
        """Narrow to one of the four quarters (0..3) of this range."""
        q = self._quarter(data_bits)
        if not 0 <= _integral(quarter, "quarters") <= 3:
            raise ConfigError(f"quarter must be in 0..3, got {quarter}")
        return PartialMedian(self.prefix + quarter * q, self.bits_resolved + 2)


@dataclass(frozen=True)
class CycleOutput:
    """Per-clock engine output: ``result`` is meaningful only when ``dv``.

    ``dout`` is the raw input delayed to alignment with results: on a dv
    cycle it carries the first sample (or column) of the set that result
    belongs to.
    """

    dv: bool
    dout: object
    result: int
