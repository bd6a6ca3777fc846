"""Span recorder that wraps expertmerge's public functions from outside.

A traced run replaces each function named in TRACED with a wrapper at every
module attribute that refers to it, so callers that imported the function by
name (``from .catalog import load_active``) are traced as well.  Spans stay in
memory as tuples and are written out as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from contextlib import contextmanager
from pathlib import Path

# layer (module) -> public functions timed in the traced run
TRACED = {
    "embedding": ("embed", "embed_corpus"),
    "clustering": ("bisecting_kmeans",),
    "model": ("train_base", "train_adapter", "nll_and_grad", "perplexity", "forward", "generate"),
    "routing": ("route", "route_fixed_n"),
    "catalog": (
        "save_adapter",
        "load_adapter",
        "save_manifest",
        "load_catalog",
        "save_base",
        "load_base",
        "load_active",
        "timed_route_merge",
    ),
    "merging": ("merge_adapters", "apply_merged"),
    "evaluation": (
        "split_holdout",
        "global_finetune",
        "ttt_adapt",
        "expert_cluster_matrix",
        "ensemble_perplexity",
        "run_table1",
    ),
    "pipeline": ("build_catalog", "load_built"),
}


def _scored_tokens(bound: inspect.BoundArguments) -> int:
    """Tokens a model.perplexity call scores, from its arguments."""
    args = bound.arguments
    epl = args.get("eval_prefix_len", 0)
    max_len = args.get("max_seq_len", 100_000)
    return sum(min(len(doc), max_len) + 1 - epl for doc in args["docs"])


# span name -> function of the call's arguments whose value the span records
ANNOTATE = {"model.perplexity": _scored_tokens}


class Recorder:
    """In-memory spans: (name, start_ns, end_ns, parent index, tag, value).

    ``tag`` is the phase name (``"build"``, ``"eval"``, ...) or the integer
    request id of a serve request; spans of one request share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.tag: str | int = "run"

    @contextmanager
    def span(self, name: str, tag: str | int | None = None):
        if tag is not None:
            self.tag = tag
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start, None)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int, value) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.tag, value)

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter_ns()
            value = None
            try:
                if annotate is not None:
                    value = annotate(signature.bind(*args, **kwargs))
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, value)

        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, (name, start, end, parent, tag, value) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                rec["request" if isinstance(tag, int) else "phase"] = tag
                if value is not None:
                    rec["value"] = value
                out.write(json.dumps(rec) + "\n")


def _package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Bindings:
    """Every module attribute of the package that refers to a TRACED function,
    with the wrapper that replaces it while tracing is installed.

    ``problems`` lists traced names the program no longer has.
    """

    def __init__(self, recorder: Recorder, package) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        self.problems: list[str] = []
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    self.problems.append(f"{layer}.{fname} not found")
                    continue
                wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{fname}", fn))
        self.swaps = []  # (module, attribute, original, wrapper)
        for mod in _package_modules(package):
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.swaps.append((mod, attr, value, hit[1]))

    @contextmanager
    def installed(self):
        """Replace every binding with its wrapper while the block runs."""
        for mod, attr, _, wrapper in self.swaps:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self.swaps:
                setattr(mod, attr, original)


def self_times(spans) -> list[int]:
    """Per-span duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for name, start, end, parent, tag, value in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]
