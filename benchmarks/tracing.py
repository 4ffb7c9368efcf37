"""Spans at the library's module boundaries, recorded from outside it.

Tracer.patched() swaps each name in BOUNDARIES for a wrapper that records a
span (name, start, end, parent) and restores the originals on exit, so no
file under src/ changes. A wrapper goes on the name the caller actually looks
up: analysis imports ``run`` into its own namespace and learning imports
``compute_wopt``, so those are wrapped where they are read.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

from subspaceq import analysis, cli, graphs, learning, quantizers, streams

# (owner, attribute, span name); two attributes may share one span name
BOUNDARIES = (
    (cli, "load_config", "cli.load_config"),
    (cli, "build_setup", "cli.build_setup"),
    (graphs, "load_topology", "graphs.topology"),
    (graphs, "build_topology", "graphs.topology"),
    (graphs, "subspace_smooth", "graphs.subspace"),
    (graphs, "subspace_consensus", "graphs.subspace"),
    (graphs, "build_combination", "graphs.build_combination"),
    (graphs, "validate_combination", "graphs.validate_combination"),
    (analysis, "spectral_report", "analysis.spectral_report"),
    (analysis, "gamma_bound", "analysis.gamma_bound"),
    (analysis, "rate_distortion_sweep", "analysis.sweep"),
    (learning, "run", "learning.run"),
    (analysis, "run", "learning.run"),
    (learning, "compute_wopt", "graphs.compute_wopt"),
    (learning, "step", "learning.step"),
    (streams.StreamField, "stream", "streams.stream"),
    (quantizers, "quantize_batch", "quantizers.batch"),
    (quantizers, "quantize", "quantizers.message"),
    (quantizers, "reconstruct", "quantizers.message"),
)

# spans whose peak traced allocation is recorded as well
ALLOCATION = {"graphs.build_combination"}


class Tracer:
    """In-memory span store for one traced job of one run."""

    def __init__(self, workload, run_id):
        self.workload = workload
        self.run_id = run_id
        self.names = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.alloc_peak = {}          # span name -> largest peak, bytes
        self._stack = [-1]

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        if name not in ALLOCATION:
            return traced

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(peak, self.alloc_peak.get(name, 0))

        return measured

    @contextmanager
    def patched(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in BOUNDARIES]
        try:
            for owner, attr, name in BOUNDARIES:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64))

    def layers(self) -> dict:
        """name -> (calls, self seconds, total seconds). Self time is a
        span's duration minus the time its child spans cover."""
        nid, start, end, parent = self._arrays()
        dur = (end - start) / 1e9
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - covered, minlength=k)
        total_s = np.bincount(nid, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        nid, start, end, parent = self._arrays()
        np.savez_compressed(path, name_id=nid, start_ns=start, end_ns=end,
                            parent=parent, names=np.array(self.names),
                            workload=self.workload, run_id=self.run_id)
