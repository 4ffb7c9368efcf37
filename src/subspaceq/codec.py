"""Variable-rate codec for signed integer index sequences.

Integers are grouped by magnitude into nested classes: class 0 holds {0},
class b >= 1 holds the 2^b integers n with ceil(log2(|n|+1)) = b. An integer is
transmitted as the b-bit binary representation of its zero-based rank within
its class (ascending numeric order, negatives first), followed by a dedicated
parsing symbol 'p'. The channel alphabet is therefore ternary {0, 1, p} and one
symbol accounts for log2(3) bits. Zero encodes as the bare parsing symbol.

Streams are materialized as plain strings over "01p" so tests can inspect them;
the learning loop only needs the real-valued bit cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BITS_PER_SYMBOL = math.log2(3.0)
PARSE = "p"

__all__ = [
    "BITS_PER_SYMBOL",
    "CodedStream",
    "MalformedStream",
    "partition_index",
    "encode_integer",
    "decode_codeword",
    "encode_sequence",
    "decode_sequence",
    "sequence_bit_cost",
]


class MalformedStream(ValueError):
    """Stream text that cannot be parsed back into integers."""


@dataclass(frozen=True)
class CodedStream:
    symbols: str          # over the alphabet {0, 1, p}
    integer_count: int
    bit_cost: float       # log2(3) * len(symbols), never rounded

    def __post_init__(self):
        assert self.bit_cost == BITS_PER_SYMBOL * len(self.symbols)


def partition_index(n: int) -> int:
    """Magnitude class of ``n``: the codeword length ceil(log2(|n|+1))."""
    return abs(int(n)).bit_length()


def encode_integer(n: int) -> str:
    """Codeword for ``n``: its zero-based in-class rank in b binary symbols."""
    n = int(n)
    b = partition_index(n)
    if b == 0:
        return ""
    # class b ascending: -2^b+1 .. -2^(b-1), then 2^(b-1) .. 2^b-1
    rank = n + (1 << b) - 1 if n < 0 else n
    return format(rank, f"0{b}b")


def decode_codeword(word: str) -> int:
    """Inverse of encode_integer for a single codeword."""
    b = len(word)
    if b == 0:
        return 0
    if any(c not in "01" for c in word):
        raise MalformedStream(f"invalid codeword symbol in {word!r}")
    rank = int(word, 2)
    # lower half of the ranks holds the negatives
    return rank - (1 << b) + 1 if rank < (1 << (b - 1)) else rank


def encode_sequence(ns) -> CodedStream:
    """Encode a sequence of integers, one parsing symbol after each."""
    parts = []
    count = 0
    for n in ns:
        parts.append(encode_integer(n))
        parts.append(PARSE)
        count += 1
    symbols = "".join(parts)
    return CodedStream(symbols, count, BITS_PER_SYMBOL * len(symbols))


def decode_sequence(stream) -> list[int]:
    """Exact inverse of encode_sequence.

    Accepts a CodedStream or a raw symbol string. The empty string is the valid
    encoding of the empty sequence; any other stream must end with the parsing
    symbol.
    """
    text = stream.symbols if isinstance(stream, CodedStream) else stream
    if text == "":
        return []
    bad = set(text) - set("01" + PARSE)
    if bad:
        raise MalformedStream(f"invalid symbols {sorted(bad)}")
    if not text.endswith(PARSE):
        raise MalformedStream("missing trailing parsing symbol")
    return [decode_codeword(w) for w in text[:-1].split(PARSE)]


def sequence_bit_cost(ns) -> float:
    """Bit cost of encode_sequence(ns) without materializing symbols."""
    return BITS_PER_SYMBOL * sum(1 + partition_index(n) for n in ns)
