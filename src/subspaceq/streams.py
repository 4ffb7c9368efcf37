"""Counter-based random streams keyed by (run, iteration, agent, purpose).

Every stochastic draw in the simulator comes from a Philox generator whose key
is derived from the master seed and the Monte-Carlo run index, and whose counter
encodes (iteration, agent, purpose). Two consequences:

* runs are independent and can execute in any order or in parallel without
  changing a single drawn bit;
* the draw consumed by agent k at iteration i does not depend on how many draws
  other agents made, so alternative recursions (e.g. the scalar diffusion form)
  see identical gradient noise under a shared master seed.
"""

from __future__ import annotations

import numpy as np

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

# Philox blocks of four words that one uniforms() chunk computes at most,
# unless one round alone needs more; its transient arrays then stay under
# about 1 MB (753 KB measured at baseline's 50 agents and width 5)
_CHUNK_BLOCKS = 4096


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

    normals() fills one preallocated row per agent with a round's GRADIENT
    normals, each cell reset through stream(): numpy's ziggurat reads its
    words one by one. uniforms() fills them with QUANTIZE uniforms computed
    without the generator: one array Philox4x64-10 serves a chunk of
    consecutive rounds for all its agents at once, and later calls in that
    chunk read what it kept.
    """

    def __init__(self, master_seed: int, run: int = 0):
        ss = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_RUN, run))
        self._key = ss.generate_state(2, np.uint64)
        self.master_seed = master_seed
        self.run = run
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
        # the last uniforms() chunk: ((agents, width), first round, draws)
        self._chunk = (None, 0, ())

    def stream(self, iteration: int, agent: int, purpose: int) -> np.random.Generator:
        self._cell["counter"] = [0, purpose, agent, iteration]
        self._bits.state = self._fresh
        return self._generator

    def normals(self, iteration: int, agents, out: np.ndarray) -> np.ndarray:
        """Fill out[k], for each agent k in agents, with the standard normals
        of cell (iteration, k, GRADIENT); other rows stay as they are."""
        stream = self.stream
        for k in agents:
            stream(iteration, k, GRADIENT).standard_normal(out=out[k])
        return out

    def uniforms(self, iteration: int, agents, out: np.ndarray) -> np.ndarray:
        """Fill out[k], for each agent k in agents, with the uniforms on
        [0, 1) of cell (iteration, k, QUANTIZE), those that
        stream(iteration, k, QUANTIZE).random(width) draws; other rows stay
        as they are, and an empty list of agents computes nothing.

        The draws are computed a chunk of consecutive rounds at a time:
        _CHUNK_BLOCKS over the Philox blocks of one round, starting at a
        multiple of that length. A call with the agents and width of the
        last chunk and an iteration inside it reads that chunk; any other
        call computes its own."""
        agents = list(agents)
        if not agents:
            return out
        width = out.shape[1]
        held, first, draws = self._chunk
        if held != (agents, width) or not 0 <= iteration - first < len(draws):
            rounds = max(1, _CHUNK_BLOCKS // (len(agents) * -(-width // 4)))
            first = iteration - iteration % rounds
            draws = self._draw(first, rounds, agents, width)
            self._chunk = ((agents, width), first, draws)
        out[agents] = draws[iteration - first]
        return out

    def _draw(self, first, rounds, agents, width):
        """The (rounds, agents, width) QUANTIZE uniforms of rounds first,
        first + 1, ... for agents. Block j = 1, 2, ... of cell (i, k) is the
        Philox of counter [j, QUANTIZE, k, i], as the generator's counter
        increments before each block; its four words are the cell's next
        four draws, each the double (w >> 11) * 2**-53."""
        blocks = -(-width // 4)
        shape = (2, rounds, len(agents), blocks)
        even = np.empty(shape, dtype=np.uint64)     # counter words 0 and 2
        odd = np.empty(shape, dtype=np.uint64)      # counter words 1 and 3
        even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
        even[1] = np.array(agents, dtype=np.uint64)[:, None]
        odd[0] = QUANTIZE
        odd[1] = np.arange(first, first + rounds, dtype=np.uint64)[:, None, None]
        even, odd = _philox(self._schedule, even.reshape(2, -1),
                            odd.reshape(2, -1))
        words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
        words = words.reshape(rounds, len(agents), 4 * blocks)[..., :width]
        return (words >> np.uint64(11)) * 2.0 ** -53


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
