"""Bit-exact serialization helpers.

Representations are audited at bit granularity, so serialization must not
hide word-level rounding: a writer tracks the exact number of bits written
and the reader consumes exactly that many.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates values MSB-first into a growing bit string.

    Whole bytes leave the accumulator as soon as they are complete, so it
    never holds more than 7 bits between writes and a write costs time in
    its own width, not in the length of the stream written so far.
    """

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0      # the bits not yet in a whole byte
        self._pending = 0  # how many: always < 8 between writes
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        pending = self._pending + nbits
        if pending >= 8:
            keep = pending & 7
            self._bytes += (acc >> keep).to_bytes(pending >> 3, "big")
            acc &= (1 << keep) - 1
            pending = keep
        self._acc, self._pending = acc, pending
        self._nbits += nbits

    @property
    def bit_length(self) -> int:
        return self._nbits

    def getvalue(self) -> bytes:
        """Bytes holding the stream, zero-padded at the tail to a byte edge."""
        if not self._pending:
            return bytes(self._bytes)
        return bytes(self._bytes) + (self._acc << (8 - self._pending)).to_bytes(1, "big")


class BitReader:
    """Consumes values MSB-first from bytes produced by BitWriter."""

    def __init__(self, data: bytes, bit_length: int) -> None:
        if len(data) * 8 < bit_length:
            raise ValueError("buffer shorter than declared bit length")
        self._val = int.from_bytes(data, "big") >> ((len(data) * 8) - bit_length)
        self._remaining = bit_length

    def read(self, nbits: int) -> int:
        if nbits > self._remaining:
            raise ValueError("read past end of bit stream")
        self._remaining -= nbits
        out = self._val >> self._remaining
        self._val &= (1 << self._remaining) - 1
        return out

    @property
    def remaining(self) -> int:
        return self._remaining
