"""On-disk expert catalog: adapter serialization, manifest, checked loading
of experts by id, the timed route-load-merge and the tau×beta latency sweep.

Adapter binary format (little-endian throughout):

    magic "TTMM" | version u16 | base fingerprint (32 bytes)
    | matrix count u32 | per matrix: name length u32, name utf-8,
      d_out u32, d_in u32, r u32, alpha f32, A row-major f32, B row-major f32
    | checksum u64 (blake2b-64 of all preceding bytes)

The manifest is a human-readable key/value text file; adapters live in
an adapters/ subdirectory next to it.
"""

from __future__ import annotations

import hashlib
import re
import statistics
import struct
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as lm
from . import routing
from .merging import MergedAdapter, merge_adapters
from .routing import RoutingConfig

MAGIC = b"TTMM"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.txt"
ADAPTER_DIR = "adapters"


def _checksum64(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def save_adapter(
    adapter: lm.LoraAdapter, path: str | Path, base_fingerprint: bytes
) -> tuple[int, str]:
    """Write the adapter in the binary format; returns the byte size and the
    checksum hex that its manifest record holds."""
    if len(base_fingerprint) != 32:
        raise ValueError("base fingerprint must be 32 bytes")
    chunks = [MAGIC, struct.pack("<H", FORMAT_VERSION), base_fingerprint]
    names = sorted(adapter.factors)
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        a, b = adapter.factors[name]
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        d_out, d_in = b.shape[0], a.shape[1]
        chunks.append(struct.pack("<III", d_out, d_in, adapter.rank))
        chunks.append(struct.pack("<f", adapter.alpha))
        chunks.append(np.ascontiguousarray(a, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    payload = b"".join(chunks)
    checksum = struct.pack("<Q", _checksum64(payload))
    Path(path).write_bytes(payload + checksum)
    return len(payload) + len(checksum), checksum.hex()


def load_adapter(
    path: str | Path,
    base_fingerprint: bytes | None = None,
    checksum: str | None = None,
    byte_size: int | None = None,
) -> lm.LoraAdapter:
    """Read an adapter and verify its checksum; if given, also verify the
    base fingerprint and that the file matches its manifest record: its
    checksum equals `checksum` (hex) and its length equals `byte_size`."""
    blob = Path(path).read_bytes()
    if byte_size is not None and len(blob) != byte_size:
        raise ValueError(
            f"adapter {path} is {len(blob)} bytes, its manifest byte_size is {byte_size}"
        )
    if len(blob) < len(MAGIC) + 2 + 32 + 4 + 8:
        raise ValueError(f"corrupt adapter: {path} (truncated)")
    payload, (stored,) = blob[:-8], struct.unpack("<Q", blob[-8:])
    if _checksum64(payload) != stored:
        raise ValueError(f"corrupt adapter: {path} (checksum mismatch)")
    if checksum is not None and blob[-8:].hex() != checksum:
        raise ValueError(f"adapter {path} does not match its manifest checksum {checksum}")
    off = 0
    if payload[:4] != MAGIC:
        raise ValueError(f"corrupt adapter: {path} (bad magic)")
    off = 4
    (version,) = struct.unpack_from("<H", payload, off)
    off += 2
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported adapter format version {version}")
    fingerprint = payload[off : off + 32]
    off += 32
    if base_fingerprint is not None and fingerprint != base_fingerprint:
        raise ValueError(f"adapter {path} was trained against a different base model")
    factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    rank = None
    alpha = None
    rank_alpha = None  # the raw r and alpha fields of the first matrix
    try:  # a malformed length field points past the payload
        (count,) = struct.unpack_from("<I", payload, off)
        off += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", payload, off)
            off += 4
            name = payload[off : off + name_len].decode("utf-8")
            off += name_len
            d_out, d_in, r = struct.unpack_from("<III", payload, off)
            off += 12
            (a,) = struct.unpack_from("<f", payload, off)
            off += 4
            # every matrix repeats the adapter's rank and alpha; compare bits,
            # so that a NaN alpha is left to LoraAdapter's own check
            if rank_alpha is not None and payload[off - 8 : off] != rank_alpha:
                raise ValueError(f"matrix {name!r} has another rank or alpha")
            rank_alpha, rank, alpha = payload[off - 8 : off], r, a
            a_n = r * d_in
            b_n = d_out * r
            if off + 4 * (a_n + b_n) > len(payload):
                raise ValueError(f"matrix {name!r} runs past the end")
            a_mat = np.frombuffer(payload, dtype="<f4", count=a_n, offset=off).reshape(r, d_in)
            off += 4 * a_n
            b_mat = np.frombuffer(payload, dtype="<f4", count=b_n, offset=off).reshape(d_out, r)
            off += 4 * b_n
            factors[name] = (a_mat.copy(), b_mat.copy())
    except (struct.error, ValueError) as exc:
        raise ValueError(f"corrupt adapter: {path} ({exc})") from exc
    if off != len(payload):
        raise ValueError(f"corrupt adapter: {path} (trailing bytes)")
    if rank is None:
        raise ValueError(f"corrupt adapter: {path} (no matrices)")
    return lm.LoraAdapter(factors=factors, rank=rank, alpha=alpha)


@dataclass
class ExpertRecord:
    expert_id: int
    cluster_size: int
    adapter_path: str  # relative to the catalog directory
    byte_size: int
    checksum: str  # hex of the trailing u64


@dataclass
class ExpertCatalog:
    root: Path
    records: list[ExpertRecord]
    centroids: np.ndarray  # (K, d) float32; row k is expert k's unit-norm centroid
    embedder_fingerprint: str
    base_fingerprint: bytes

    def __post_init__(self) -> None:
        ids = [r.expert_id for r in self.records]
        if ids != list(range(len(ids))):
            raise ValueError("expert ids must be dense in [0, K)")

    @property
    def K(self) -> int:
        return len(self.records)

    def adapter_file(self, expert_id: int) -> Path:
        return self.root / self.records[expert_id].adapter_path


@dataclass
class LatencyReport:
    select_duration: float
    load_duration: float
    merge_duration: float
    n_active: int
    bytes_loaded: int


def _fmt_floats(values: np.ndarray) -> str:
    # repr of the exact float64 value of each float32 entry round-trips
    # bit-exactly through text
    return " ".join(repr(float(v)) for v in values)


def _parse_floats(text: str) -> np.ndarray:
    # the inverse of _fmt_floats: parse as float64, then round to float32
    return np.array(text.split(), dtype=np.float64).astype(np.float32)


def save_manifest(catalog: ExpertCatalog) -> Path:
    lines = [
        f"catalog_version: {FORMAT_VERSION}",
        f"embedder_fingerprint: {catalog.embedder_fingerprint}",
        f"base_fingerprint: {catalog.base_fingerprint.hex()}",
        f"num_experts: {catalog.K}",
        "",
    ]
    for rec, centroid in zip(catalog.records, catalog.centroids):
        lines.extend(
            [
                f"expert_id: {rec.expert_id}",
                f"cluster_size: {rec.cluster_size}",
                f"adapter_path: {rec.adapter_path}",
                f"byte_size: {rec.byte_size}",
                f"checksum: {rec.checksum}",
                f"centroid: {_fmt_floats(centroid)}",
                "",
            ]
        )
    path = catalog.root / MANIFEST_NAME
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


HEADER_KEYS = ("catalog_version", "embedder_fingerprint", "base_fingerprint", "num_experts")
CHECKSUM_HEX = re.compile(r"[0-9a-f]{16}")
CENTROID_NORM_TOL = 1e-5


def load_catalog(root: str | Path) -> ExpertCatalog:
    """Read and check the manifest: every header and record key present,
    every field parsed, and the centroids one finite (K, d) matrix of rows
    within CENTROID_NORM_TOL of unit norm. Any fault raises ValueError
    naming the manifest."""
    root = Path(root)
    path = root / MANIFEST_NAME
    text = path.read_text(encoding="utf-8")
    header: dict[str, str] = {}
    fields: list[dict[str, str]] = []
    current: dict[str, str] = {}

    def flush() -> None:
        if current:
            fields.append(dict(current))
            current.clear()

    for line in text.splitlines():
        line = line.strip()
        if not line:
            flush()
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "expert_id":
            flush()
        if key in HEADER_KEYS:
            header[key] = value
        else:
            current[key] = value
    flush()

    def bad(problem: str) -> ValueError:
        return ValueError(f"manifest {path}: {problem}")

    where = "header"
    try:
        version = int(header["catalog_version"])
        num_experts = int(header["num_experts"])
        embedder_fingerprint = header["embedder_fingerprint"]
        base_fingerprint = bytes.fromhex(header["base_fingerprint"])
        records, rows = [], []
        for i, rec in enumerate(fields):
            where = f"record {i}"
            rows.append(_parse_floats(rec["centroid"]))
            records.append(
                ExpertRecord(
                    expert_id=int(rec["expert_id"]),
                    cluster_size=int(rec["cluster_size"]),
                    adapter_path=rec["adapter_path"],
                    byte_size=int(rec["byte_size"]),
                    checksum=rec["checksum"],
                )
            )
    except KeyError as exc:
        raise bad(f"{where} has no {exc.args[0]}") from exc
    except ValueError as exc:
        raise bad(f"{where} has an unparsable field ({exc})") from exc
    if version != FORMAT_VERSION:
        raise bad(f"unsupported catalog version {version}")
    if len(base_fingerprint) != 32:
        raise bad("base_fingerprint is not 32 bytes")
    if len(records) != num_experts:
        raise bad(f"num_experts is {num_experts} but there are {len(records)} records")
    if not records:
        raise bad("no experts")
    for rec in records:
        if not CHECKSUM_HEX.fullmatch(rec.checksum):
            raise bad(f"expert {rec.expert_id} checksum {rec.checksum!r} is not 16 hex digits")
    if len({len(row) for row in rows}) != 1:
        raise bad("centroids differ in length")
    centroids = np.stack(rows)
    if not np.isfinite(centroids).all():
        raise bad("centroid has a non-finite entry")
    norms = np.linalg.norm(centroids.astype(np.float64), axis=1)
    off = np.flatnonzero(np.abs(norms - 1.0) > CENTROID_NORM_TOL)
    if off.size:
        raise bad(f"centroid {off[0]} has norm {norms[off[0]]}, not 1")
    try:
        return ExpertCatalog(
            root=root,
            records=records,
            centroids=centroids,
            embedder_fingerprint=embedder_fingerprint,
            base_fingerprint=base_fingerprint,
        )
    except ValueError as exc:
        raise bad(str(exc)) from exc


def save_base(base: lm.BaseParams, root: str | Path) -> None:
    root = Path(root)
    np.savez(root / "base.npz", **{name: getattr(base, name) for name in lm.DENSE_NAMES})
    (root / "vocab.txt").write_text(base.vocab.symbols[2:], encoding="utf-8")


def load_base(root: str | Path) -> lm.BaseParams:
    root = Path(root)
    arrays = np.load(root / "base.npz")
    chars = (root / "vocab.txt").read_text(encoding="utf-8")
    vocab = lm.Vocab(symbols=lm.BOS + lm.EOS + chars)
    return lm.BaseParams(vocab=vocab, **{name: arrays[name] for name in lm.DENSE_NAMES})


def load_active(catalog: ExpertCatalog, ids: Iterable[int]) -> dict[int, lm.LoraAdapter]:
    """Load the adapters of the given expert ids, each checked against its
    manifest record (checksum, byte size) and the catalog's base."""
    adapters: dict[int, lm.LoraAdapter] = {}
    for k in ids:
        if not 0 <= k < catalog.K:
            raise ValueError(f"expert id {k} is not in 0..{catalog.K - 1}")
        path = catalog.adapter_file(k)
        if not path.exists():
            raise FileNotFoundError(f"adapter file missing for expert {k}: {path}")
        record = catalog.records[k]
        adapters[k] = load_adapter(
            path, catalog.base_fingerprint, record.checksum, record.byte_size
        )
    return adapters


def timed_route_merge(
    catalog: ExpertCatalog, query: np.ndarray, cfg: RoutingConfig
) -> tuple[MergedAdapter, LatencyReport]:
    """route -> load_active -> merge_adapters with per-phase wall timing."""
    t0 = time.monotonic()
    weights = routing.route(query, catalog, cfg)
    t1 = time.monotonic()
    adapters = load_active(catalog, weights.support)
    t2 = time.monotonic()
    merged = merge_adapters(weights, adapters)
    t3 = time.monotonic()
    report = LatencyReport(
        select_duration=t1 - t0,
        load_duration=t2 - t1,
        merge_duration=t3 - t2,
        n_active=weights.n_active,
        bytes_loaded=sum(catalog.records[k].byte_size for k in weights.support),
    )
    return merged, report


def bench_sweep(
    catalog: ExpertCatalog,
    query: np.ndarray,
    taus: list[float],
    betas: list[float],
    repetitions: int,
) -> list[dict]:
    """Median select/load/merge latency per (tau, beta) cell."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows = []
    for tau in taus:
        for beta in betas:
            route_cfg = RoutingConfig(beta=beta, tau=tau)
            selects, loads, merges = [], [], []
            n_active = 0
            bytes_loaded = 0
            for _ in range(repetitions):
                _, rep = timed_route_merge(catalog, query, route_cfg)
                selects.append(rep.select_duration)
                loads.append(rep.load_duration)
                merges.append(rep.merge_duration)
                n_active = rep.n_active
                bytes_loaded = rep.bytes_loaded
            rows.append(
                {
                    "tau": tau,
                    "beta": beta,
                    "n_active": n_active,
                    "bytes_loaded": bytes_loaded,
                    "select_ms": 1e3 * statistics.median(selects),
                    "load_ms": 1e3 * statistics.median(loads),
                    "merge_ms": 1e3 * statistics.median(merges),
                }
            )
    return rows


def bench_csv(rows: list[dict]) -> str:
    """bench_sweep rows as CSV text with a header line."""
    lines = ["tau,beta,n_active,select_ms,load_ms,merge_ms,bytes_loaded"]
    for row in rows:
        lines.append(
            f"{row['tau']},{row['beta']},{row['n_active']},"
            f"{row['select_ms']:.4f},{row['load_ms']:.4f},{row['merge_ms']:.4f},"
            f"{row['bytes_loaded']}"
        )
    return "\n".join(lines) + "\n"
