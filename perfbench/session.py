"""The phases of one benchmark session and the checks on their outputs.

A session is what a user of expertmerge does with one corpus: build a
catalog, evaluate it (the paper's Table 1), then answer prompts one at a
time.  Every call goes through the public functions of the expertmerge
modules, looked up on the module at call time so that a traced run sees
the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from expertmerge import catalog, embedding, evaluation, merging, model, pipeline, routing
from expertmerge.config import RunConfig

GEN_TOKENS = 64
# p99 needs at least 1000 samples to have 10 beyond it; the first
# MIN_REQUESTS generations also form the serve digest
MIN_REQUESTS = 1000
WARMUP_REQUESTS = 20
PROMPT_CHARS = (8, 120)
PROMPT_CHUNK = 4096

# ROADMAP Baseline perplexities at corpus seed 0 (printed to 4 decimals;
# the tolerance covers that rounding and last-digit BLAS differences)
SEED0_PPL = {
    "base": 4.7830,
    "finetune": 4.4255,
    "ttmm_tau": 2.1664,
    "ttmm_fixed_1": 2.1720,
    "ttmm_fixed_10": 2.1649,
    "ensemble_fixed_3": 2.1483,
    "ensemble_fixed_10": 2.1484,
    "ttt": 2.6206,
}
SEED0_TOL = 5e-4


@dataclass
class Tally:
    """Attempted and failed operations by kind, with the reason for each failure."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def attempt(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] += n

    def fail(self, kind: str, reasons: list[str]) -> None:
        self.failed[kind] += 1
        self.problems.extend(f"{kind}: {r}" for r in reasons)

    def table(self) -> dict:
        return {
            k: {"attempted": n, "succeeded": n - self.failed[k], "failed": self.failed[k]}
            for k, n in self.attempted.items()
        }


def session_config(seed: int) -> RunConfig:
    """Default RunConfig with the workload seed as the corpus seed."""
    return RunConfig().with_overrides({"corpus.seed": seed})


# ---------------------------------------------------------------- build


def run_build(docs: list[str], cfg: RunConfig, out_dir: Path, tally: Tally):
    tally.attempt("build")
    tally.attempt("expert", cfg.n_clusters)
    start = time.perf_counter()
    built = pipeline.build_catalog(docs, cfg, out_dir)
    build_s = time.perf_counter() - start
    digest = check_build(out_dir, cfg.n_clusters, tally)
    return built, build_s, digest


def check_build(out_dir: Path, K: int, tally: Tally) -> str:
    """Reload the catalog, check every adapter file, digest manifest + adapters."""
    problems = []
    cat = catalog.load_catalog(out_dir)
    base = catalog.load_base(out_dir)
    if cat.K != K:
        problems.append(f"catalog has {cat.K} experts, expected {K}")
    if base.fingerprint() != cat.base_fingerprint:
        problems.append("base fingerprint differs from the manifest")
    digest = hashlib.sha256((out_dir / catalog.MANIFEST_NAME).read_bytes())
    for rec in cat.records:
        path = out_dir / rec.adapter_path
        blob = path.read_bytes()
        digest.update(rec.adapter_path.encode())
        digest.update(blob)
        bad = []
        if len(blob) != rec.byte_size:
            bad.append(f"size {len(blob)} != manifest byte_size {rec.byte_size}")
        if blob[-8:].hex() != rec.checksum:
            bad.append("checksum differs from the manifest")
        try:
            catalog.load_adapter(path, cat.base_fingerprint)
        except ValueError as exc:
            bad.append(f"load_adapter: {exc}")
        if bad:
            tally.fail("expert", [f"expert {rec.expert_id}: {b}" for b in bad])
    if problems:
        tally.fail("build", problems)
    return digest.hexdigest()


# ---------------------------------------------------------------- eval


def run_eval(docs: list[str], cfg: RunConfig, cat_dir: Path, seed: int, tally: Tally):
    """load_built + run_table1 with every default method, as `expertmerge eval` does."""
    methods = evaluation.DEFAULT_METHODS
    tally.attempt("eval_row", len(methods))
    start = time.perf_counter()
    built = pipeline.load_built(docs, cat_dir)
    report = evaluation.run_table1(
        docs, built.embeddings, built.assignment, built.split, built.base, built.catalog, cfg
    )
    eval_s = time.perf_counter() - start
    ppl = report.perplexities
    bad: dict[str, list[str]] = {}
    for m in methods:
        value = ppl.get(m)
        if value is None or not math.isfinite(value) or value < 1.0:
            bad.setdefault(m, []).append(f"perplexity {value!r}")
    if not bad and not ppl["ttmm_tau"] < ppl["finetune"] < ppl["base"]:
        for m in ("ttmm_tau", "finetune", "base"):
            bad.setdefault(m, []).append("ttmm_tau < finetune < base does not hold")
    if seed == 0:
        for m, ref in SEED0_PPL.items():
            if m in ppl and abs(ppl[m] - ref) > SEED0_TOL:
                bad.setdefault(m, []).append(f"{ppl[m]:.6f} differs from baseline {ref:.4f}")
    for m, reasons in bad.items():
        tally.fail("eval_row", [f"{m}: {r}" for r in reasons])
    return ppl, eval_s


# ---------------------------------------------------------------- serve


@dataclass
class Server:
    """A loaded catalog ready to answer prompts with one routing config."""

    cfg: RunConfig
    routing_cfg: routing.RoutingConfig
    cat: catalog.ExpertCatalog
    base: model.BaseParams
    dense: bool

    @property
    def vocab_chars(self) -> set[str]:
        """Symbols generated text may hold: all but EOS, which ends generation."""
        return set(self.base.vocab.symbols) - {model.EOS}


def set_up(cat_dir: Path, cfg: RunConfig, dense: bool) -> tuple[Server, int]:
    """Load the catalog and base model; return the server and the time taken (ns)."""
    routing_cfg = dataclasses.replace(cfg.routing, tau=0.0) if dense else cfg.routing
    start = time.perf_counter_ns()
    cat = catalog.load_catalog(cat_dir)
    base = catalog.load_base(cat_dir)
    took = time.perf_counter_ns() - start
    return Server(cfg, routing_cfg, cat, base, dense), took


def prompt_stream(docs: list[str], split, seed):
    """Endless seeded stream of (prompt, generation seed).

    Each prompt is a substring of PROMPT_CHARS characters taken at a random
    offset of a diagnostic-holdout document, which no expert trained on.
    """
    holdout = [docs[i] for k in sorted(split.holdout) for i in split.holdout[k]]
    rng = np.random.default_rng(seed)
    lo, hi = PROMPT_CHARS
    while True:
        pick = rng.integers(len(holdout), size=PROMPT_CHUNK)
        length = rng.integers(lo, hi + 1, size=PROMPT_CHUNK)
        where = rng.random(PROMPT_CHUNK)
        gen_seed = rng.integers(2**31, size=PROMPT_CHUNK)
        for d, n, u, g in zip(pick, length, where, gen_seed):
            doc = holdout[d]
            n = min(int(n), len(doc))
            off = int(u * (len(doc) - n + 1))
            yield doc[off : off + n], int(g)


def warm_up(server: Server, docs: list[str], split, seed: int, clock: ThreadClock) -> None:
    """Answer WARMUP_REQUESTS prompts from a stream apart from the measured one."""
    prompts = prompt_stream(docs, split, [seed, 1])
    for _ in range(WARMUP_REQUESTS):
        answer(server, *next(prompts), clock)


class ThreadClock:
    """Clocks of the calling thread that tell apart the time it ran or chose
    to wait from the time a CPU was held from it."""

    def __init__(self) -> None:
        self.fd = os.open("/proc/thread-self/schedstat", os.O_RDONLY)

    def read(self) -> tuple[int, int, int]:
        """(CPU time ns, run-queue wait ns, voluntary context switches)."""
        cpu = time.thread_time_ns()
        queued = int(os.pread(self.fd, 128, 0).split()[1])
        return cpu, queued, resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw

    def close(self) -> None:
        os.close(self.fd)


def held_ns(wall: int, before: tuple[int, int, int], after: tuple[int, int, int]) -> int:
    """Part of a `wall`-long interval in which the thread was ready to run but
    held off the CPU, by another task (run-queue wait) or by the hypervisor
    (steal, which the thread's CPU clock leaves out).

    If the thread never blocked, everything but its CPU time was held.  If it
    blocked (I/O, a lock, a sleep, waiting for another thread), only the
    run-queue wait is known to be held; steal is then left in.
    """
    cpu, queued, blocks = (a - b for a, b in zip(after, before))
    # the CPU clock is read just outside the wall interval, so it can
    # exceed it by the few microseconds the reads take
    return max(wall - cpu, 0) if blocks == 0 else queued


def answer(server: Server, prompt: str, gen_seed: int, clock: ThreadClock):
    """Text -> next-token distribution (timed as TTFT, wall clock), then generation.

    Routing, loading and merging go through catalog.timed_route_merge, the
    composition `expertmerge generate --method merged` uses.  Also returns
    the part of TTFT in which the thread was held off the CPU.
    """
    c0 = clock.read()
    t0 = time.perf_counter_ns()
    query = embedding.embed(server.cfg.embedder, prompt)
    merged, report = catalog.timed_route_merge(server.cat, query, server.routing_cfg)
    adapted = merging.apply_merged(server.base, merged)
    dist = model.forward(adapted, None, prompt)
    t1 = time.perf_counter_ns()
    held = held_ns(t1 - t0, c0, clock.read())
    text = model.generate(adapted, None, prompt, GEN_TOKENS, gen_seed)
    t2 = time.perf_counter_ns()
    return dist, merged.provenance, report, text, t1 - t0, held, t2 - t1


def check_answer(server: Server, prompt: str, dist, weights, text: str) -> list[str]:
    bad = []
    if not np.isfinite(dist).all():
        bad.append("non-finite next-token probability")
    elif (dist < 0).any():
        bad.append("negative next-token probability")
    elif abs(float(dist.sum()) - 1.0) > 1e-9:
        bad.append(f"next-token distribution sums to {float(dist.sum())!r}")
    if server.dense and weights.n_active != server.cat.K:
        bad.append(f"n_active {weights.n_active} != K {server.cat.K} at tau 0")
    if not text.startswith(prompt):
        bad.append("generation does not continue the prompt")
    elif not set(text[len(prompt) :]) <= server.vocab_chars:
        bad.append("generated text leaves the vocabulary")
    return bad


@dataclass
class ServeStats:
    ttft_ns: dict[int, int] = field(default_factory=dict)  # request id -> wall clock
    held_ns: list[int] = field(default_factory=list)  # TTFT held off the CPU
    gen_ns: int = 0
    busy_ns: int = 0  # wall time spent answering and checking requests
    tokens: int = 0
    prompt_chars: int = 0
    n_active: Counter = field(default_factory=Counter)
    prompt_len_hist: Counter = field(default_factory=Counter)
    repeats: int = 0
    bos_texts: int = 0  # generations that sampled the BOS marker mid-text
    experts_read: set = field(default_factory=set)
    bytes_read: int = 0
    seen: set = field(default_factory=set)  # merge weights of earlier requests
    text_digest: object = field(default_factory=hashlib.sha256)

    @property
    def requests(self) -> int:
        return len(self.ttft_ns)

    def unheld_ttft_ns(self) -> list[int]:
        """Wall-clock TTFT less the time the thread was held off the CPU."""
        return [t - h for t, h in zip(self.ttft_ns.values(), self.held_ns)]

    @property
    def digest(self) -> str:
        """sha256 of the first MIN_REQUESTS generations."""
        return self.text_digest.hexdigest()


def _length_bin(n: int) -> str:
    lo = 8
    while lo * 2 <= n:
        lo *= 2
    return f"{lo}-{min(lo * 2 - 1, PROMPT_CHARS[1])}"


def serve_one(
    server: Server,
    prompt: str,
    gen_seed: int,
    i: int,
    clock: ThreadClock,
    tally: Tally,
    stats: ServeStats,
    rec=None,
) -> None:
    """Answer request `i` and check it.  A request that raises is counted as
    failed; the caller goes on with the next one."""
    tally.attempt("request")
    start = time.perf_counter_ns()
    try:
        with rec.span("serve.request", tag=i) if rec else nullcontext():
            dist, weights, report, text, ttft, held, gen = answer(
                server, prompt, gen_seed, clock
            )
    except Exception as exc:  # one failed request must not end the run
        tally.fail("request", [f"request {i}: {type(exc).__name__}: {exc}"])
        return
    bad = check_answer(server, prompt, dist, weights, text)
    if bad:
        tally.fail("request", [f"request {i}: {b}" for b in bad])
    if i < MIN_REQUESTS:
        stats.text_digest.update(text.encode("utf-8") + b"\n")
    key = tuple(sorted(weights.entries.items()))
    stats.repeats += key in stats.seen
    stats.seen.add(key)
    stats.ttft_ns[i] = ttft
    stats.held_ns.append(held)
    stats.gen_ns += gen
    stats.tokens += len(text) - len(prompt)
    stats.bos_texts += model.BOS in text[len(prompt) :]
    stats.prompt_chars += len(prompt)
    stats.prompt_len_hist[_length_bin(len(prompt))] += 1
    stats.n_active[weights.n_active] += 1
    stats.experts_read.update(weights.entries)
    stats.bytes_read += report.bytes_loaded
    stats.busy_ns += time.perf_counter_ns() - start


class HostClock:
    """A fixed piece of CPU work, timed now and then through a run.

    Its wall time tracks the speed the host gives this process: on a small
    shared VM it drifts over minutes, and every timed metric drifts with it.
    The work is like a request's: 64-wide float64 products and a Python loop.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((64, 64)) / 8.0
        self.rows = rng.standard_normal((16, 64))
        self.samples: dict[str, list[int]] = {}

    def sample(self, phase: str, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter_ns()
            y = self.rows
            for _ in range(100):
                y = np.tanh(y @ self.matrix)
            acc = 0
            for j in range(20_000):
                acc += j * j
            self.samples.setdefault(phase, []).append(time.perf_counter_ns() - start)

    def medians_ms(self) -> dict[str, float]:
        every = [t for ts in self.samples.values() for t in ts]
        out = {phase: statistics.median(ts) / 1e6 for phase, ts in self.samples.items()}
        out["all"] = statistics.median(every) / 1e6
        return out
