"""Tests for the counter-based stream lattice."""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspaceq import streams
from subspaceq._ziggurat_tables import KI, WI
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
    """The rounds one chunk of a lane spans for these agents and width."""
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
@example(seed=1, run=0, chunk=0, agents=[0, 5, 2], shapes=[(6, 8), (6, 9)],
         jumps=[(1, 1), (0, -1)], call="normals", partial=True, cell=(3, 1))
# the normals of a chunk edge at width 6, l + 1 for l = 5, for an agent
# subset in shuffled order, then the same agents in another order
@example(seed=4, run=1, chunk=2, agents=[9, 2, 7, 0, 4], shapes=[(12, 6), (9, 6)],
         jumps=[(0, -1), (1, 0), (0, 2)], call="normals", partial=False,
         cell=(0, 0))
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


def ziggurat_fast_path(words):
    """Each word's normal on numpy's ziggurat fast path, read from the
    tables, and whether the fast path returns it."""
    layer = words & np.uint64(0xFF)
    magnitude = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    x = magnitude * WI[layer]
    x = np.where(words & np.uint64(0x100), -x, x)
    return x, magnitude < KI[layer]


def gradient_words(key, iteration, agent, width):
    """The first width words of GRADIENT cell (iteration, agent), from a
    fresh Philox."""
    return np.random.Philox(key=key, counter=[0, GRADIENT, agent, iteration]
                            ).random_raw(width)


def rejected_cells(key, iterations, agents, width):
    """The GRADIENT cells (iteration, agent) among these whose first width
    words hold one that numpy's ziggurat fast path rejects."""
    return {(i, k) for i in range(iterations) for k in agents
            if not ziggurat_fast_path(gradient_words(key, i, k, width))[1].all()}


def test_ziggurat_tables():
    assert KI.shape == WI.shape == (256,)
    assert KI.dtype == np.uint64 and WI.dtype == np.float64
    assert KI[1] == 0 and (KI[2:] > 0).all()
    assert KI[0] == 0x000EF33D8025EF6A
    assert KI[255] == 0x000F1A5A4B331C4A
    assert WI[0] == 8.683627060801306e-16


def test_normals_cover_every_ziggurat_branch():
    # every cell of 400 rounds at 20 agents equals a fresh generator's
    # normals; among them are cells whose words all take the fast path and
    # land in each of its 255 layers, and cells that leave it through each
    # slow branch of numpy's ziggurat: the tail of layer 0, layer 1 (which
    # never accepts) and a wedge test that accepts or rejects
    field = StreamField(2024, run=1)
    width, agents = 6, range(20)
    fast_layers, branches = set(), set()
    for i in range(400):
        got = field.draws(GRADIENT, i, agents, width)
        for k in agents:
            want = np.random.Generator(np.random.Philox(
                key=field._key, counter=[0, GRADIENT, k, i])).standard_normal(width)
            assert got[k].tobytes() == want.tobytes(), (i, k)
            words = gradient_words(field._key, i, k, width)
            x, accepted = ziggurat_fast_path(words)
            layers = (words & np.uint64(0xFF)).tolist()
            if accepted.all():
                fast_layers.update(layers)
                continue
            j = int(np.argmin(accepted))
            if layers[j] in (0, 1):
                branches.add(f"layer {layers[j]}")
            else:
                branches.add("wedge accepts" if want[j] == x[j]
                             else "wedge rejects")
    assert fast_layers == set(range(256)) - {1}
    assert branches == {"layer 0", "layer 1", "wedge accepts", "wedge rejects"}


def test_chunks_stop_at_the_last_round(monkeypatch):
    # a field told its run's rounds computes no cell past the last of them,
    # in either lane, and still serves a later round asked for
    generated = Counter()
    philox = streams._philox

    def recording(schedule, even, odd):
        first = even[0] == 1
        generated.update(zip(odd[0][first].tolist(), odd[1][first].tolist(),
                             even[1][first].tolist()))
        return philox(schedule, even, odd)

    monkeypatch.setattr(streams, "_philox", recording)
    field = StreamField(8, run=2, iterations=3)
    for purpose in (GRADIENT, QUANTIZE):
        for i in range(3):
            field.draws(purpose, i, [1, 3], 5)
    assert generated == Counter({(p, i, k): 1 for p in (GRADIENT, QUANTIZE)
                                 for i in range(3) for k in (1, 3)})
    got = field.normals(7, [3], np.zeros((4, 5)))[3]
    assert np.array_equal(got, fresh(field, 7, 3, GRADIENT).standard_normal(5))
