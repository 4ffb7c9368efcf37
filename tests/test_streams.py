"""Tests for the counter-based stream lattice."""

import numpy as np

from subspaceq.streams import GRADIENT, QUANTIZE, StreamField

L = 5

# every kind of draw the simulator makes from a cell
DRAWS = {
    "random(l)": lambda g: g.random(L),
    "random()": lambda g: g.random(),
    "standard_normal(l+1)": lambda g: g.standard_normal(L + 1),
    "permutation(l)": lambda g: g.permutation(L),
}


def fresh(field, iteration, agent, purpose):
    bits = np.random.Philox(key=field._key, counter=[0, purpose, agent, iteration])
    return np.random.Generator(bits)


def shuffled_cells(seed):
    cells = [(i, k, p) for i in range(6) for k in range(7)
             for p in (GRADIENT, QUANTIZE)]
    order = np.random.default_rng(seed).permutation(len(cells))
    return [cells[c] for c in order]


def test_stream_equals_fresh_generator_in_any_cell_order():
    field = StreamField(1234, run=3)
    for name, draw in DRAWS.items():
        for cell in shuffled_cells(len(name)):
            got = draw(field.stream(*cell))
            assert np.array_equal(got, draw(fresh(field, *cell))), (name, cell)


def test_stream_reset_clears_partial_words():
    # permutation consumes 32-bit halves and random() whole words; each
    # reset must forget the half word and the buffer the last cell left
    field = StreamField(99, run=0)
    kinds = list(DRAWS.values())
    for c, cell in enumerate(shuffled_cells(7)):
        first, second = kinds[c % 4], kinds[(c + 1) % 4]
        g = field.stream(*cell)
        got = (first(g), second(g))
        ref = fresh(field, *cell)
        want = (first(ref), second(ref))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), cell


def test_runs_and_seeds_are_separate_lattices():
    a = StreamField(5, run=0).stream(0, 0, GRADIENT).random(L)
    b = StreamField(5, run=1).stream(0, 0, GRADIENT).random(L)
    c = StreamField(6, run=0).stream(0, 0, GRADIENT).random(L)
    assert not np.array_equal(a, b) and not np.array_equal(a, c)
