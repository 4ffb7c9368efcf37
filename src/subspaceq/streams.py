"""Counter-based random streams keyed by (run, iteration, agent, purpose).

Every stochastic draw in the simulator comes from a Philox generator whose key
is derived from the master seed and the Monte-Carlo run index, and whose counter
encodes (iteration, agent, purpose). Two consequences:

* runs are independent and can execute in any order or in parallel without
  changing a single drawn bit;
* the draw consumed by agent k at iteration i does not depend on how many draws
  other agents made, so a recursion written out agent by agent sees the same
  gradient noise as run under a shared master seed.
"""

from __future__ import annotations

import numpy as np

from . import _ziggurat_tables

# purpose codes, one per independent stream lane within an (iteration, agent) cell
GRADIENT = 0
QUANTIZE = 1

# spawn-key domains under the master seed
_DOMAIN_SETUP = 0
_DOMAIN_RUN = 1

__all__ = ["GRADIENT", "QUANTIZE", "StreamField", "setup_rng"]

# Philox4x64-10 as numpy's philox.h computes it (Salmon et al., "Parallel
# random numbers: as easy as 1, 2, 3", SC 2011): the multipliers of counter
# words 0 and 2, split into 32-bit halves for the high words of their
# products, and the Weyl increments of the two key words between rounds
_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                        dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MUL_LO, _MUL_HI = _MULTIPLIERS & _LOW32, _MULTIPLIERS >> _SHIFT32
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10

# Philox blocks of four words that one chunk of a lane computes at most,
# unless one round alone needs more; its transient arrays then stay under
# about 1 MB (tracemalloc peaks of 0.85 and 0.87 MB for the QUANTIZE and
# GRADIENT lanes at baseline's 50 agents)
_CHUNK_BLOCKS = 4096

# the fields of a word that numpy's ziggurat reads: the layer index in bits
# 0-7, the sign in bit 8 and a 52-bit magnitude above it
_LAYER = np.uint64(0xFF)
_SIGN = np.uint64(0x100)
_MAGNITUDE_SHIFT = np.uint64(9)
_MAGNITUDE = np.uint64(2**52 - 1)


class StreamField:
    """Lattice of independent generators for one Monte-Carlo run.

    One Philox generator serves every cell: stream() resets its counter to
    the cell's coordinates and empties its buffers, which reproduces exactly
    the draws of a fresh ``Generator(Philox(key, counter=[0, purpose, agent,
    iteration]))`` at a fraction of the construction cost. The reset hands
    the bit generator a state held as Python ints, which it reads about
    three times faster than numpy arrays. The returned generator is
    therefore valid only until the next stream() call on the same field;
    draw from it at once and do not keep it.

    draws() reads whole rounds of a lane without the generator: one array
    Philox4x64-10 computes a chunk of consecutive rounds for all the agents
    asked for, and later calls in that chunk read what it kept. QUANTIZE
    words become uniforms as random() makes them; GRADIENT words go through
    the fast path of numpy's ziggurat, one word a normal, and only a cell
    with a word that the fast path rejects is drawn again through stream().
    iterations, when given, is the number of rounds the run reads: no chunk
    reaches past it unless a later round is asked for.
    """

    def __init__(self, master_seed: int, run: int = 0, iterations=None):
        ss = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_RUN, run))
        self._key = ss.generate_state(2, np.uint64)
        self.master_seed = master_seed
        self.run = run
        self.iterations = iterations
        self._bits = np.random.Philox(key=self._key)
        self._generator = np.random.Generator(self._bits)
        # the low counter word is left free-running; stream() pins the others
        self._cell = {"counter": [0, 0, 0, 0], "key": self._key.tolist()}
        self._fresh = {
            "bit_generator": "Philox",
            "state": self._cell,
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._schedule = _key_schedule(self._key)
        # the last chunk of each lane: ((agents, width), first round, draws)
        self._chunks = {GRADIENT: (None, 0, ()), QUANTIZE: (None, 0, ())}

    def stream(self, iteration: int, agent: int, purpose: int) -> np.random.Generator:
        self._cell["counter"] = [0, purpose, agent, iteration]
        self._bits.state = self._fresh
        return self._generator

    def draws(self, purpose: int, iteration: int, agents, width: int) -> np.ndarray:
        """The (len(agents), width) draws of cells (iteration, k, purpose)
        for k in agents, row by row: what stream(iteration, k,
        purpose).standard_normal(width) draws for GRADIENT, and .random(width)
        for QUANTIZE. The rows are a read-only view of the lane's chunk.

        A chunk spans _CHUNK_BLOCKS over the Philox blocks of one round
        consecutive rounds, from a multiple of that length, clipped at
        iterations. A call with the agents and width of the lane's last
        chunk and an iteration inside it reads that chunk; any other call
        computes its own. An empty list of agents computes nothing."""
        agents = list(agents)
        if not agents:
            return np.empty((0, width))
        held, first, draws = self._chunks[purpose]
        if held != (agents, width) or not 0 <= iteration - first < len(draws):
            rounds = max(1, _CHUNK_BLOCKS // (len(agents) * -(-width // 4)))
            first = iteration - iteration % rounds
            if self.iterations is not None:
                rounds = min(rounds, max(self.iterations, iteration + 1) - first)
            draws = self._chunk(purpose, first, rounds, agents, width)
            self._chunks[purpose] = ((agents, width), first, draws)
        return draws[iteration - first]

    def _chunk(self, purpose, first, rounds, agents, width):
        """The (rounds, agents, width) draws of lane purpose in rounds first,
        first + 1, ... for agents, read-only. GRADIENT cells with a word
        that numpy's ziggurat rejects are drawn through stream()."""
        words = self._words(purpose, first, rounds, agents, width)
        if purpose == QUANTIZE:
            draws = (words >> np.uint64(11)) * 2.0 ** -53
        else:
            draws, accepted = _ziggurat(words)
            for r, a in zip(*np.nonzero(~accepted.all(axis=2))):
                self.stream(first + int(r), agents[a], GRADIENT).standard_normal(
                    out=draws[r, a])
        draws.flags.writeable = False
        return draws

    def _words(self, purpose, first, rounds, agents, width):
        """The first width words of cells (i, k, purpose), for rounds i =
        first, first + 1, ... and agents k, as a (rounds, agents, width)
        uint64 array. Block j = 1, 2, ... of a cell is the Philox of counter
        [j, purpose, k, i], as the generator's counter increments before
        each block; its four words are the cell's next four."""
        blocks = -(-width // 4)
        shape = (2, rounds, len(agents), blocks)
        even = np.empty(shape, dtype=np.uint64)     # counter words 0 and 2
        odd = np.empty(shape, dtype=np.uint64)      # counter words 1 and 3
        even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
        even[1] = np.array(agents, dtype=np.uint64)[:, None]
        odd[0] = purpose
        odd[1] = np.arange(first, first + rounds, dtype=np.uint64)[:, None, None]
        even, odd = _philox(self._schedule, even.reshape(2, -1),
                            odd.reshape(2, -1))
        words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
        return words.reshape(rounds, len(agents), 4 * blocks)[..., :width]


def _ziggurat(words):
    """The fast path of numpy's random_standard_normal on each word: (the
    normal it returns, whether it returns one). Layer i = w & 0xFF draws
    x = r * WI[i] for the magnitude r = (w >> 9) & (2**52 - 1), negated
    when bit 8 is set (r = 0 then gives -0.0, as in C), and accepts it iff
    r < KI[i]. A rejected word's layer-0 tail and wedge tests read further
    words and call libm, so they stay with the generator."""
    layer = (words & _LAYER).astype(np.intp)
    magnitude = (words >> _MAGNITUDE_SHIFT) & _MAGNITUDE
    x = magnitude * _ziggurat_tables.WI[layer]
    np.negative(x, out=x, where=(words & _SIGN).astype(bool))
    return x, magnitude < _ziggurat_tables.KI[layer]


def _key_schedule(key) -> list:
    """The key of each Philox round as a (2, 1) uint64 column, the Weyl
    increments added in Python ints modulo 2**64."""
    words = [int(k) for k in key]
    schedule = []
    for _ in range(_ROUNDS):
        schedule.append(np.array(words, dtype=np.uint64)[:, None])
        words = [(w + inc) % 2**64 for w, inc in zip(words, _WEYL)]
    return schedule


def _philox(schedule, even, odd):
    """Philox4x64 of the blocks whose counter words 0 and 2 are the rows of
    even and words 1 and 3 those of odd, (2, N) uint64 arrays; returns the
    output words in the same layout, after one round per key of schedule
    (_key_schedule). Each round multiplies words 0 and 2 by their constants
    into 128-bit products, the high halves from 32-bit partial products;
    uint64 arithmetic wraps, which gives the low halves."""
    for key in schedule:
        lo, hi = even & _LOW32, even >> _SHIFT32
        carry = lo * _MUL_LO
        carry >>= _SHIFT32
        carry += hi * _MUL_LO
        middle = carry & _LOW32
        carry >>= _SHIFT32
        middle += lo * _MUL_HI
        middle >>= _SHIFT32
        hi *= _MUL_HI
        hi += carry
        hi += middle
        low = even * _MULTIPLIERS
        # words 0, 2 <- high halves of words 2, 0 ^ words 1, 3 ^ key;
        # words 1, 3 <- low halves of words 2, 0
        even = hi[::-1] ^ odd ^ key
        odd = low[::-1]
    return even, odd


def setup_rng(master_seed: int, label: int = 0) -> np.random.Generator:
    """Generator for one-off setup draws (topologies, variance profiles, targets).

    ``label`` separates independent setup uses under the same master seed.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_SETUP, label))
    return np.random.default_rng(ss)
