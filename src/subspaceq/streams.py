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

    normals() and uniforms() fill one preallocated row per agent with a
    round's GRADIENT or QUANTIZE draws, each cell reset through stream().
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
        [0, 1) of cell (iteration, k, QUANTIZE); other rows stay as they
        are."""
        stream = self.stream
        for k in agents:
            stream(iteration, k, QUANTIZE).random(out=out[k])
        return out


def setup_rng(master_seed: int, label: int = 0) -> np.random.Generator:
    """Generator for one-off setup draws (topologies, variance profiles, targets).

    ``label`` separates independent setup uses under the same master seed.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_SETUP, label))
    return np.random.default_rng(ss)
