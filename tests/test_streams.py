"""Tests for the counter-based stream lattice."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspaceq.streams import _CHUNK_BLOCKS, GRADIENT, QUANTIZE, StreamField

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


# each array call and the draw it must reproduce from a fresh cell
ARRAY_CALLS = {
    "normals": (GRADIENT, lambda g, width: g.standard_normal(width)),
    "uniforms": (QUANTIZE, lambda g, width: g.random(width)),
}


def chunk_rounds(agents, width):
    """The rounds one uniforms() chunk spans for these agents and width."""
    return max(1, _CHUNK_BLOCKS // (max(1, len(agents)) * -(-width // 4)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), run=st.integers(0, 3),
       chunk=st.one_of(st.integers(0, 3), st.integers(0, 2**30)),
       agents=st.lists(st.integers(0, 40), unique=True, max_size=12),
       shapes=st.lists(st.tuples(st.integers(1, 41), st.integers(1, 9)),
                       min_size=2, max_size=2),
       jumps=st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)),
                      max_size=5),
       call=st.sampled_from(sorted(ARRAY_CALLS)), partial=st.booleans(),
       cell=st.tuples(st.integers(0, 2**40), st.integers(0, 40)))
# a third Philox block at widths 8 and 9; no agents
@example(seed=1, run=0, chunk=0, agents=[0, 5, 2], shapes=[(6, 8), (6, 9)],
         jumps=[(1, 1), (0, -1)], call="uniforms", partial=True, cell=(3, 1))
@example(seed=2, run=1, chunk=1, agents=[], shapes=[(4, 5), (7, 3)],
         jumps=[(1, 0)], call="uniforms", partial=False, cell=(0, 0))
# fewer agents of the same width, in a round the last chunk holds
@example(seed=3, run=2, chunk=0, agents=[0, 5, 2, 1], shapes=[(6, 5), (3, 5)],
         jumps=[(1, -3)], call="uniforms", partial=False, cell=(0, 0))
def test_array_calls_equal_fresh_generators(seed, run, chunk, agents, shapes,
                                            jumps, call, partial, cell):
    # one field serves every call: the rounds around a chunk edge in order,
    # then rounds near it in any order, each call on one of two (rows,
    # width) shapes with the agents that fit it, in any order; every row
    # but theirs stays as it was
    field = StreamField(seed, run=run)
    purpose, draw = ARRAY_CALLS[call]
    if partial:
        # a half word left by a cell's permutation must not reach the call
        field.stream(*cell, QUANTIZE).permutation(L)

    def visit(shape, offset):
        rows, width = shapes[shape]
        readers = [k for k in agents if k < rows]
        edge = (chunk + 1) * chunk_rounds(readers, width)
        return max(0, edge + offset), readers, rows, width

    visits = [visit(0, offset) for offset in (-2, -1, 0, 1)]
    visits += [visit(shape, offset) for shape, offset in jumps]
    for iteration, readers, rows, width in visits:
        out = np.full((rows, width), np.nan)
        assert getattr(field, call)(iteration, readers, out) is out
        for k in range(rows):
            want = (draw(fresh(field, iteration, k, purpose), width)
                    if k in readers else np.full(width, np.nan))
            assert np.array_equal(out[k], want, equal_nan=True), (iteration, k)
    # nor may what the calls leave reach a later cell: permutation consumes
    # 32-bit halves, random() whole words
    g = field.stream(*cell, QUANTIZE)
    got = (g.permutation(L), g.random())
    ref = fresh(field, *cell, QUANTIZE)
    assert np.array_equal(got[0], ref.permutation(L)) and got[1] == ref.random()
