"""expertmerge benchmark: one seeded session of build, eval and serving.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_sparse --seed 0 --seconds 30 --trace 0

Each run generates the default corpus at the seed, builds a catalog, runs
the Table 1 evaluation, and then answers prompts in a closed loop for
--seconds.  The workload picks the routing of the serving phase.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
the public functions of every layer are wrapped with spans and the last
line holds the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "expertmerge"

WORKLOADS = {"serve_sparse": False, "serve_dense": True}  # name -> dense routing
BLAS_THREADS = 1

TTFT_PHASES = (
    "embedding.embed",
    "routing.route",
    "catalog.load_active",
    "merging.merge_adapters",
    "merging.apply_merged",
    "model.forward",
)
# set-up takes ~10 ms, so it is sampled many times, spread through serving
SETUP_EVERY_S = 0.1
# HostClock samples before each phase, and one per CLOCK_EVERY_S of serving
CLOCK_SAMPLES = 5
CLOCK_EVERY_S = 0.5
LAYERS = ("embedding", "clustering", "model", "routing", "catalog", "merging", "evaluation", "pipeline")


def pin_threads() -> None:
    """One BLAS thread: the 64-wide products gain nothing from more, and
    a second thread on a 2-core box doubles the spread of tail latency."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))


def tree_hash(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(path.relative_to(top).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "program_sha256": tree_hash(SRC / "expertmerge"),
        "benchmark_sha256": tree_hash(Path(__file__).resolve().parent),
    }


def remember(key: str, digest: str, env: dict) -> str | None:
    """Store a digest for this program, benchmark and key; return the one
    stored earlier."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    version = f"{env['program_sha256'][:16]}-{env['benchmark_sha256'][:16]}"
    earlier = known.setdefault(f"{version}:{key}", digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return None if earlier == digest else earlier


def percentile_ms(ns, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.fromiter(ns, dtype=np.float64), q)) / 1e6


def end_to_end(setup_ns, build_s, eval_s, ppl, stats) -> dict:
    m = {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "build_s": (build_s, "s"),
        "eval_s": (eval_s, "s"),
        "ttft_p50_ms": (percentile_ms(stats.ttft_ns.values(), 50), "ms"),
        "ttft_p99_ms": (percentile_ms(stats.unheld_ttft_ns(), 99), "ms"),
        "decode_tok_s": (stats.tokens / (stats.gen_ns / 1e9), "tok/s"),
        "prompts_per_s": (stats.requests / (stats.busy_ns / 1e9), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for method in ("base", "finetune", "ttmm_tau", "ensemble_fixed_10", "ttt"):
        m[f"ppl_{method}"] = (ppl[method], "ppl")
    return m


def span_checks(spans, stats, K, setups, problems) -> list[str]:
    """Compare span counts with counts the benchmark knows independently."""
    counts = defaultdict(int)
    for name, _s, _e, _p, tag, _v in spans:
        counts[(name, "serve" if isinstance(tag, int) else tag)] += 1
    fails = list(problems)
    reads = sum(n * c for n, c in stats.n_active.items())
    expect = {
        ("catalog.load_adapter", "serve"): reads,
        ("model.train_adapter", "build"): K,
        ("catalog.load_catalog", "setup"): setups,
        ("catalog.load_base", "setup"): setups,
    }
    for name in TTFT_PHASES + ("catalog.timed_route_merge", "model.generate"):
        expect[(name, "serve")] = stats.requests
    for (name, phase), want in expect.items():
        if counts[(name, phase)] != want:
            fails.append(f"{counts[(name, phase)]} {name} spans in {phase}, expected {want}")
    return fails


def ttft_accounting(spans, plain, traced) -> dict:
    """Per prompt, answered once untraced and once traced: the tracing
    overhead, and how far the six TTFT phase spans are from untraced TTFT."""
    phases = defaultdict(int)  # request -> ns in the six TTFT phases
    for name, start, end, _p, tag, _v in spans:
        if name in TTFT_PHASES and isinstance(tag, int):
            phases[tag] += end - start
    ids = sorted(plain.ttft_ns.keys() & traced.ttft_ns.keys())
    overhead = statistics.median(traced.ttft_ns[i] - plain.ttft_ns[i] for i in ids) / 1e3
    residual = statistics.median(phases[i] - plain.ttft_ns[i] for i in ids) / 1e3
    return {
        "pairs": len(ids),
        "untraced_ttft_p50_us": statistics.median(plain.ttft_ns[i] for i in ids) / 1e3,
        "traced_ttft_p50_us": statistics.median(traced.ttft_ns[i] for i in ids) / 1e3,
        "six_phases_p50_us": statistics.median(phases[i] for i in ids) / 1e3,
        "overhead_us": overhead,
        "six_phases_minus_untraced_us": residual,
        "within_overhead": abs(residual) <= abs(overhead),
    }


def per_layer(spans, traced, acct, build_s, eval_s, setup_ns, clock) -> dict:
    from tracing import self_times

    selfs = self_times(spans)
    by = defaultdict(lambda: defaultdict(list))  # phase -> name -> durations (ns)
    value = defaultdict(int)  # (phase, name) -> summed span value
    layer_self = defaultdict(int)
    for i, (name, start, end, parent, tag, v) in enumerate(spans):
        phase = "serve" if isinstance(tag, int) else tag
        by[phase][name].append(end - start)
        if v is not None:
            value[(phase, name)] += v
        layer_self[name.split(".")[0]] += selfs[i]

    def p50_us(phase, name):
        return statistics.median(by[phase][name]) / 1e3

    def total_s(phase, name):
        return sum(by[phase][name]) / 1e9

    def calls(phase, name):
        return len(by[phase][name])

    build_self = next(
        selfs[i] for i, s in enumerate(spans) if s[0] == "pipeline.build_catalog" and s[4] == "build"
    )
    reads = calls("serve", "catalog.load_adapter")
    nll_calls = calls("build", "model.nll_and_grad") + calls("eval", "model.nll_and_grad")
    nll_s = total_s("build", "model.nll_and_grad") + total_s("eval", "model.nll_and_grad")
    n_active = [n for n, c in traced.n_active.items() for _ in range(c)]
    m = {
        "embedding.embed.p50_us": (p50_us("serve", "embedding.embed"), "us"),
        "embedding.chars": (traced.prompt_chars / traced.requests, "chars"),
        "embedding.embed_corpus.s": (total_s("build", "embedding.embed_corpus"), "s"),
        "clustering.bisecting_kmeans.s": (total_s("build", "clustering.bisecting_kmeans"), "s"),
        "model.train_base.s": (total_s("build", "model.train_base"), "s"),
        "model.train_adapter.s": (total_s("build", "model.train_adapter"), "s"),
        "model.train_adapter.calls": (calls("build", "model.train_adapter"), "count"),
        "model.nll_and_grad.calls": (nll_calls, "count"),
        "model.nll_and_grad.s": (nll_s, "s"),
        "model.perplexity.calls": (calls("eval", "model.perplexity"), "count"),
        "model.perplexity.s": (total_s("eval", "model.perplexity"), "s"),
        "model.scored_tokens": (value[("eval", "model.perplexity")], "count"),
        "model.forward.p50_us": (p50_us("serve", "model.forward"), "us"),
        "model.generate.us_per_token": (
            sum(by["serve"]["model.generate"]) / 1e3 / max(traced.tokens, 1),
            "us",
        ),
        "routing.route.p50_us": (p50_us("serve", "routing.route"), "us"),
        "routing.n_active.mean": (statistics.fmean(n_active), "count"),
        "routing.n_active.max": (max(n_active), "count"),
        "catalog.load_active.p50_us": (p50_us("serve", "catalog.load_active"), "us"),
        "catalog.adapter_reads": (reads, "count"),
        "catalog.bytes_read": (traced.bytes_read, "bytes"),
        "catalog.reread_ratio": (reads / len(traced.experts_read), "ratio"),
        "catalog.load_catalog.ms": (p50_us("setup", "catalog.load_catalog") / 1e3, "ms"),
        "catalog.load_base.ms": (p50_us("setup", "catalog.load_base") / 1e3, "ms"),
        "catalog.save_adapter.s": (total_s("build", "catalog.save_adapter"), "s"),
        "merging.merge_adapters.p50_us": (p50_us("serve", "merging.merge_adapters"), "us"),
        "merging.experts_merged": (sum(n_active), "count"),
        "merging.apply_merged.p50_us": (p50_us("serve", "merging.apply_merged"), "us"),
        "merging.weights_repeat_share": (traced.repeats / traced.requests, "share"),
        "evaluation.global_finetune.s": (total_s("eval", "evaluation.global_finetune"), "s"),
        "evaluation.ttt_adapt.s": (total_s("eval", "evaluation.ttt_adapt"), "s"),
        "evaluation.expert_cluster_matrix.s": (
            total_s("eval", "evaluation.expert_cluster_matrix"),
            "s",
        ),
        "evaluation.ensemble_perplexity.s": (
            total_s("eval", "evaluation.ensemble_perplexity"),
            "s",
        ),
        "pipeline.build_catalog.self_s": (build_self / 1e9, "s"),
        "pipeline.load_built.s": (total_s("eval", "pipeline.load_built"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
    m.update(
        {
            "trace.ttft_p50_us": (acct["traced_ttft_p50_us"], "us"),
            "trace.untraced_ttft_p50_us": (acct["untraced_ttft_p50_us"], "us"),
            "trace.overhead_ttft_p50_us": (acct["overhead_us"], "us"),
            "trace.ttft_phases_p50_us": (acct["six_phases_p50_us"], "us"),
            "trace.ttft_phases_share": (
                acct["six_phases_p50_us"] / acct["traced_ttft_p50_us"],
                "share",
            ),
            "trace.build_s": (build_s, "s"),
            "trace.eval_s": (eval_s, "s"),
            "trace.setup_s": (statistics.median(setup_ns) / 1e9, "s"),
            "trace.spans": (len(spans), "count"),
            "host.clock_ms": (clock.medians_ms()["all"], "ms"),
        }
    )
    return m


def run(args):
    import expertmerge
    import session
    import tracing
    from expertmerge import corpus

    dense = WORKLOADS[args.workload]
    tally = session.Tally()
    clock = session.HostClock()
    rec = tracing.Recorder() if args.trace else None
    bindings = tracing.Bindings(rec, expertmerge) if rec else None

    @contextmanager
    def phase(name):
        """Spans for one phase; in a traced run every layer is wrapped."""
        if rec is None:
            yield
            return
        with bindings.installed(), rec.span(f"bench.{name}", tag=name):
            yield

    cfg = session.session_config(args.seed)
    docs, _, _ = corpus.generate_corpus(cfg.corpus)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    thread_clock = session.ThreadClock()
    try:
        clock.sample("build", CLOCK_SAMPLES)
        with phase("build"):
            built, build_s, build_digest = session.run_build(docs, cfg, work, tally)
        clock.sample("eval", CLOCK_SAMPLES)
        with phase("eval"):
            ppl, eval_s = session.run_eval(docs, cfg, work, args.seed, tally)
        clock.sample("serve", CLOCK_SAMPLES)
        with phase("setup"):
            server, took = session.set_up(work, cfg, dense)
        setup_ns = [took]
        with phase("warmup"):
            session.warm_up(server, docs, built.split, args.seed, thread_clock)

        plain = session.ServeStats()
        stats = plain if rec is None else session.ServeStats()
        prompts = session.prompt_stream(docs, built.split, args.seed)
        now = time.perf_counter()
        end, next_setup, next_clock = now + args.seconds, now + SETUP_EVERY_S, now
        i = 0
        while i < session.MIN_REQUESTS or time.perf_counter() < end:
            now = time.perf_counter()
            if now >= next_setup:
                with phase("setup"):
                    setup_ns.append(session.set_up(work, cfg, dense)[1])
                next_setup = now + SETUP_EVERY_S
            if now >= next_clock:
                clock.sample("serve")
                next_clock = now + CLOCK_EVERY_S
            prompt, gen_seed = next(prompts)
            if rec is None:
                session.serve_one(server, prompt, gen_seed, i, thread_clock, tally, plain)
            else:
                # each prompt is answered untraced and traced, the order
                # alternating, so a pair sees the same host speed and
                # equally warm caches
                for on in (False, True) if i % 2 == 0 else (True, False):
                    if on:
                        with bindings.installed():
                            session.serve_one(server, prompt, gen_seed, i, thread_clock, tally, stats, rec)
                    else:
                        session.serve_one(server, prompt, gen_seed, i, thread_clock, tally, plain)
            i += 1
    finally:
        thread_clock.close()
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    tally.attempt("digest", 2)
    earlier = remember(f"build:{args.seed}", build_digest, env)
    if earlier:
        tally.fail("digest", [f"build digest {build_digest} != {earlier} of an earlier run"])
    earlier = remember(f"{args.workload}:{args.seed}", plain.digest, env)
    if earlier or plain.digest != stats.digest:
        tally.fail("digest", [f"serve digest {plain.digest} differs from an earlier pass"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "host_clock_ms": clock.medians_ms(),
        "inputs": {
            "corpus_sha256": hashlib.sha256("\n".join(docs).encode("utf-8")).hexdigest(),
            "documents": len(docs),
            "corpus_chars": sum(map(len, docs)),
            "routing": {"tau": server.routing_cfg.tau, "beta": server.routing_cfg.beta},
            "requests": stats.requests,
            "prompt_len_hist": dict(
                sorted(stats.prompt_len_hist.items(), key=lambda kv: int(kv[0].split("-")[0]))
            ),
            "n_active_hist": dict(sorted(stats.n_active.items())),
            "weights_repeat_share": stats.repeats / max(stats.requests, 1),
            "generations_with_bos": stats.bos_texts,
        },
        "ttft_ms": {
            "wall_p50": percentile_ms(plain.ttft_ns.values(), 50),
            "wall_p99": percentile_ms(plain.ttft_ns.values(), 99),
            "held_p99": percentile_ms(plain.held_ns, 99),
            "held_share": sum(plain.held_ns) / sum(plain.ttft_ns.values()),
        },
        "setups": len(setup_ns),
        "digests": {"build": build_digest, "serve_first_1000": plain.digest},
        "perplexities": ppl,
    }
    if rec is None:
        metrics = end_to_end(setup_ns, build_s, eval_s, ppl, stats)
    else:
        spans = rec.spans
        tally.attempt("span_check")
        fails = span_checks(spans, stats, cfg.n_clusters, len(setup_ns), bindings.problems)
        if fails:
            tally.fail("span_check", fails)
        acct = ttft_accounting(spans, plain, stats)
        record["ttft_accounting"] = acct
        tally.attempt("ttft_accounting")
        if not acct["within_overhead"]:
            tally.fail(
                "ttft_accounting",
                [
                    f"six TTFT phases differ from untraced TTFT by "
                    f"{acct['six_phases_minus_untraced_us']:.1f} us, more than the "
                    f"{acct['overhead_us']:.1f} us tracing overhead"
                ],
            )
        metrics = per_layer(spans, stats, acct, build_s, eval_s, setup_ns, clock)
        trace_path = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
        rec.write_jsonl(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    record["operations"] = tally.table()
    record["problems"] = tally.problems[:50]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "expertmerge" / "__init__.py").is_file():
        print(f"perfbench: no expertmerge package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    try:
        record, tally = run(args)
    except Exception:
        traceback.print_exc()
        print("perfbench: the session failed before it could report", file=sys.stderr)
        return 1
    for problem in tally.problems[:50]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(record, indent=1))
    result = {
        "correct": not tally.problems,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
