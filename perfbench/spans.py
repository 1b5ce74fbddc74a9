"""In-memory span tracing around calls into statutelab's public functions.

``instrument`` swaps each traced function for a wrapper in every
``statutelab`` module namespace that holds it (``rankers`` imports its own
copy of ``encode_sentence_cnn``, ``macro_f2``, ``top_n`` ...), and puts the
originals back on exit.  A span is (name, start, end, parent, run id); the
run id is the benchmark operation (query, step, batch) the span belongs to.
Calls and self time (span duration minus the time its child spans cover)
are aggregated as spans close, so they cover every span even when the span
log itself is capped.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TENSOR_OPS = (
    "matmul", "matvec", "vecmat", "dot", "conv1d", "tanh", "softmax", "softmax_rows",
    "sparsemax", "stack_rows", "gather_rows", "slice_cols", "transpose", "concat_cols",
    "add", "mul", "scale", "avg_pool", "ce_negsample", "stack", "backward",
)

# (module, function) pairs timed by the traced run; the span name is
# "<module>.<function>"
TRACED = (
    [("corpus", f) for f in ("load_corpus", "chunk_corpus")]
    + [("lexical", f) for f in ("tokenize", "build_index", "save_index", "load_index", "top_n")]
    + [("store", "read_bundle")]
    + [("tensor", f) for f in TENSOR_OPS]
    + [("encoders", f) for f in ("encode_sentence_cnn", "encode_paragraph", "self_attention")]
    + [("rankers", f) for f in ("load_model", "rank", "semantic_score", "grid_search_alpha", "train_ranker")]
    + [("evalkit", "macro_f2")]
    + [("inject", f) for f in ("tre_train", "tre_forward", "tre_needle_loss", "tre_evaluate")]
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)


class Tracer:
    """Span log plus per-name aggregates for one traced run."""

    def __init__(self, max_spans: int = 1_000_000):
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.max_spans = max_spans
        self.dropped = 0
        self.log_name = array("i")
        self.log_parent = array("i")
        self.log_run = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self._stack: list[list] = []  # [name id, start, child seconds, log index]
        self.run_id = -1
        self.phase = "setup"
        self.hooks = {}

    def enter(self, nid: int) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        pos = len(self.log_name)
        if pos < self.max_spans:
            self.log_name.append(nid)
            self.log_parent.append(parent)
            self.log_run.append(self.run_id)
            self.log_start.append(0.0)
            self.log_end.append(0.0)
        else:
            pos = -1
            self.dropped += 1
        start = time.perf_counter()
        if pos >= 0:
            self.log_start[pos] = start
        self._stack.append([nid, start, 0.0, pos])

    def exit(self) -> float:
        end = time.perf_counter()
        nid, start, child, pos = self._stack.pop()
        dur = end - start
        if pos >= 0:
            self.log_end[pos] = end
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        return dur

    def metric(self, name: str, field: str):
        i = self.index[name]
        return {"calls": self.calls, "self_s": self.self_s, "s": self.total_s}[field][i]

    def write(self, path) -> None:
        """Write the span log as an .npz; ``name`` indexes ``names``."""
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.log_name, dtype=np.int32),
            parent=np.frombuffer(self.log_parent, dtype=np.int32),
            run=np.frombuffer(self.log_run, dtype=np.int32),
            start=np.frombuffer(self.log_start, dtype=np.float64),
            end=np.frombuffer(self.log_end, dtype=np.float64),
        )


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.index[name]
    hook = tracer.hooks.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tracer.exit()
        if hook is not None:
            hook(args, out, dur)
        return out

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Trace every function in TRACED while the block runs."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("statutelab") and m]
    swapped = []
    for mod_name, fn_name in TRACED:
        original = getattr(sys.modules[f"statutelab.{mod_name}"], fn_name)
        wrapped = _wrap(tracer, f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    swapped.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in swapped:
            setattr(mod, attr, original)
