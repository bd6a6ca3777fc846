import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CallCounter, heaviest
from expertmerge import catalog as cat
from expertmerge import model as lm
from expertmerge.routing import RoutingConfig


@pytest.fixture
def fingerprint(small_base):
    return small_base.fingerprint()


@pytest.fixture
def adapter(small_base):
    cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1)
    return lm.train_adapter(small_base, ["abcd", "efgh"], cfg, 7, rank=2)


def test_roundtrip_bitwise(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    loaded = cat.load_adapter(path, fingerprint)
    assert (loaded.shapes, loaded.rank) == (adapter.shapes, adapter.rank)
    assert loaded.alpha == pytest.approx(adapter.alpha)
    assert np.array_equal(loaded.theta, adapter.theta)


def test_byte_count_formula(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    written, checksum = cat.save_adapter(adapter, path, fingerprint)
    # independent size computation from the format description: magic,
    # version, fingerprint, (d_out, d_in) per target, rank, alpha, the
    # factors and the checksum
    expected = 4 + 2 + 32 + 8 * len(lm.TARGET_NAMES) + 4 + 4 + 8
    for d_out, d_in in adapter.shapes:
        expected += 4 * adapter.rank * (d_in + d_out)
    assert written == expected
    assert path.stat().st_size == expected
    # the checksum a manifest record holds is the file's trailing u64
    assert checksum == path.read_bytes()[-8:].hex()


def test_file_is_header_then_flat_factors(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    blob = path.read_bytes()
    assert blob[:4] == b"TTMM" and struct.unpack_from("<H", blob, 4) == (4,)
    values = np.frombuffer(blob[cat.HEADER.size : -8], dtype="<f4")
    assert np.array_equal(values, adapter.theta)


def test_truncated_file_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="corrupt adapter"):
        cat.load_adapter(path)


def test_single_bit_flip_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum mismatch"):
        cat.load_adapter(path)


def test_wrong_fingerprint_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    other = bytes(32)
    with pytest.raises(ValueError, match="different base"):
        cat.load_adapter(path, other)


def test_trailing_bytes_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    payload = path.read_bytes()[:-8] + b"\x00"
    path.write_bytes(payload + struct.pack("<Q", cat._checksum64(payload)))
    with pytest.raises(ValueError, match="trailing bytes"):
        cat.load_adapter(path)


def test_non_finite_adapter_rejected(tmp_path, adapter, fingerprint):
    # both pass the checksum: the writer stored them faithfully
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    good = path.read_bytes()[:-8]
    alpha_at = cat.HEADER.size - 4
    for at, value, message in (
        (alpha_at, np.nan, "alpha must be positive and finite"),
        (len(good) - 4, np.inf, "non-finite entries in adapter factors"),  # last B entry
    ):
        payload = bytearray(good)
        struct.pack_into("<f", payload, at, value)
        path.write_bytes(bytes(payload) + struct.pack("<Q", cat._checksum64(bytes(payload))))
        with pytest.raises(ValueError, match=message):
            cat.load_adapter(path, fingerprint)


def test_length_must_match_header_shapes(tmp_path, adapter, fingerprint):
    # the header says block0 has one more input column than the file holds
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    payload = bytearray(path.read_bytes()[:-8])
    d_in_at = 4 + 2 + 32 + 4
    (d_in,) = struct.unpack_from("<I", payload, d_in_at)
    assert d_in == adapter.shapes[0][1]
    struct.pack_into("<I", payload, d_in_at, d_in + 1)
    path.write_bytes(bytes(payload) + struct.pack("<Q", cat._checksum64(bytes(payload))))
    missing = 4 * adapter.rank
    with pytest.raises(ValueError, match=rf"corrupt adapter.*\({missing} missing bytes"):
        cat.load_adapter(path, fingerprint)


def test_format_1_adapter_rejected(tmp_path, adapter, fingerprint):
    # format 1: a matrix count, then per matrix its name, dims, rank and alpha
    records = [struct.pack("<I", len(adapter.factors))]
    for name, (a, b) in adapter.factors.items():
        records.append(struct.pack("<I", len(name)) + name.encode())
        records.append(struct.pack("<IIIf", b.shape[0], a.shape[1], adapter.rank, adapter.alpha))
        records.append(a.astype("<f4").tobytes() + b.astype("<f4").tobytes())
    payload = b"TTMM" + struct.pack("<H", 1) + fingerprint + b"".join(records)
    path = tmp_path / "e.adapter"
    path.write_bytes(payload + struct.pack("<Q", cat._checksum64(payload)))
    with pytest.raises(ValueError, match="^unsupported adapter format version 1$"):
        cat.load_adapter(path, fingerprint)


def test_format_2_adapter_rejected(tmp_path, adapter, fingerprint):
    # format-2 and format-3 adapters have the format-4 layout under their version
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    for version in (2, 3):
        payload = bytearray(path.read_bytes()[:-8])
        struct.pack_into("<H", payload, len(cat.MAGIC), version)
        path.write_bytes(bytes(payload) + struct.pack("<Q", cat._checksum64(bytes(payload))))
        with pytest.raises(ValueError, match=f"^unsupported adapter format version {version}$"):
            cat.load_adapter(path, fingerprint)


_u32 = st.integers(0, 2**32 - 1)
_dim = st.integers(0, 4) | _u32
_header_fields = st.builds(
    lambda dims, rank, alpha: struct.pack(f"<{len(dims)}IIf", *dims, rank, alpha),
    st.lists(_dim, min_size=2 * len(lm.TARGET_NAMES), max_size=2 * len(lm.TARGET_NAMES)),
    st.integers(0, 3) | _u32,
    st.floats(width=32),
)
_body = st.binary(max_size=256) | st.builds(
    lambda fields, data: fields + data, _header_fields, st.binary(max_size=256)
)


@settings(max_examples=400, deadline=None)
@given(body=_body)
def test_malformed_body_raises_value_error(tmp_path_factory, body):
    # valid magic, version and checksum around arbitrary shapes and factor bytes
    payload = cat.MAGIC + struct.pack("<H", cat.FORMAT_VERSION) + bytes(32) + body
    path = tmp_path_factory.getbasetemp() / "fuzz.adapter"
    path.write_bytes(payload + struct.pack("<Q", cat._checksum64(payload)))
    try:
        cat.load_adapter(path)
    except ValueError:
        pass


def build_catalog_dir(tmp_path, base, n_experts, docs):
    root = tmp_path / "catalog"
    (root / cat.ADAPTER_DIR).mkdir(parents=True)
    fp = base.fingerprint()
    rng = np.random.default_rng(0)
    records = []
    for k in range(n_experts):
        cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1)
        adapter = lm.train_adapter(base, docs, cfg, 100 + k, rank=2)
        rec = cat.ExpertRecord(k, cluster_size=5 + k, byte_size=0, checksum="")
        rec.byte_size, rec.checksum = cat.save_adapter(adapter, root / rec.adapter_path, fp)
        records.append(rec)
    c = rng.standard_normal((n_experts, 16))
    catalog = cat.ExpertCatalog(
        root=root,
        records=records,
        centroids=(c / np.linalg.norm(c, axis=1, keepdims=True)).astype(np.float32),
        embedder_fingerprint="emb-test",
        base_fingerprint=fp,
    )
    cat.save_manifest(catalog)
    return catalog


def test_manifest_roundtrip(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 4, ["abcd", "efgh"])
    loaded = cat.load_catalog(catalog.root)
    assert loaded.K == 4
    assert loaded.embedder_fingerprint == "emb-test"
    assert loaded.base_fingerprint == catalog.base_fingerprint
    assert loaded.records == catalog.records
    assert [rec.adapter_path for rec in loaded.records] == [
        f"adapters/expert_{k:04d}.bin" for k in range(4)
    ]
    # five header lines, then one line per expert
    lines = (catalog.root / cat.MANIFEST_NAME).read_text().splitlines()
    assert len(lines) == 5 + 4
    assert lines[5:] == [f"expert: {r.cluster_size} {r.checksum}" for r in catalog.records]
    # centroids round-trip bit-exactly through centroids.npy
    assert loaded.centroids.dtype == np.float32
    assert np.array_equal(loaded.centroids, catalog.centroids)


def _drop_line(key: str):
    return lambda text: re.sub(rf"^{key}: .*\n", "", text, count=1, flags=re.M)


def _set_field(key: str, value: str):
    return lambda text: re.sub(rf"^{key}: .*$", f"{key}: {value}", text, count=1, flags=re.M)


def _sub(pattern: str, repl: str):
    """The first line matching pattern, rewritten to repl."""
    return lambda text: re.sub(pattern, repl, text, count=1, flags=re.M)


def _not_one_line(n: int, line: str) -> str:
    """The error of manifest line n (from 1) holding line."""
    return re.escape(
        f"line {n} is not a header key given once or "
        f"expert: <cluster size> <checksum> ({line!r})"
    )


def _manifest(edit):
    """A catalog damage: edit(text) of the manifest; its error names the manifest."""

    def damage(root):
        path = root / cat.MANIFEST_NAME
        path.write_text(edit(path.read_text()))

    return cat.MANIFEST_NAME, damage


def _centroids(edit):
    """A catalog damage: edit(matrix) of centroids.npy; its error names that file."""

    def damage(root):
        path = root / cat.CENTROIDS_NAME
        np.save(path, edit(np.load(path)), allow_pickle=False)

    return cat.CENTROIDS_NAME, damage


def _with(c, index, value):
    c = c.copy()
    c[index] = value
    return c


def _no_centroids(root):
    (root / cat.CENTROIDS_NAME).unlink()


def _no_manifest(root):
    (root / cat.MANIFEST_NAME).unlink()


def _manifest_not_utf8(root):
    path = root / cat.MANIFEST_NAME
    path.write_bytes(b"\xff" + path.read_bytes())


BAD_MANIFESTS = {
    "no manifest": ((cat.MANIFEST_NAME, _no_manifest), "cannot read it .*No such file"),
    "manifest not utf-8": (
        (cat.MANIFEST_NAME, _manifest_not_utf8),
        "cannot read it .*'utf-8' codec can't decode byte 0xff",
    ),
    "no num_experts": (_manifest(_drop_line("num_experts")), "header has no num_experts"),
    "no base_fingerprint": (
        _manifest(_drop_line("base_fingerprint")),
        "header has no base_fingerprint",
    ),
    "no adapter_bytes": (_manifest(_drop_line("adapter_bytes")), "header has no adapter_bytes"),
    "no catalog_version": (
        _manifest(_drop_line("catalog_version")),
        r"line 1 is not catalog_version: <n> \('embedder_fingerprint: emb-test'\)$",
    ),
    "empty manifest": (_manifest(lambda text: ""), r"line 1 is not catalog_version: <n> \(''\)$"),
    "no checksum": (_manifest(_sub(r"^(expert: \d+) .*$", r"\1")), _not_one_line(6, "expert: 5")),
    "expert line of 3 fields": (
        _manifest(_sub(r"^expert: 5 (.*)$", r"expert: 5 \1 7")),
        r"line 6 is not a header key given once .*'expert: 5 [0-9a-f]{16} 7'",
    ),
    "not key: value": (
        _manifest(_sub(r"^(num_experts: .*)$", r"\1\nhello")),
        _not_one_line(5, "hello"),
    ),
    "no space after colon": (
        _manifest(_sub(r"^num_experts: ", "num_experts:")),
        _not_one_line(4, "num_experts:4"),
    ),
    "blank line": (_manifest(lambda text: text + "\n"), _not_one_line(10, "")),
    "repeated header key": (
        _manifest(_sub(r"^(adapter_bytes: .*)$", r"\1\n\1")),
        r"line 6 is not a header key given once .*'adapter_bytes: \d+'",
    ),
    "repeated catalog_version": (
        _manifest(_sub(r"^(catalog_version: .*)$", r"\1\n\1")),
        _not_one_line(2, "catalog_version: 4"),
    ),
    "unknown header key": (
        _manifest(_sub(r"^(num_experts: .*)$", r"\1\nexpert_id: 0")),
        _not_one_line(5, "expert_id: 0"),
    ),
    "no centroid": ((cat.CENTROIDS_NAME, _no_centroids), "cannot read centroids.npy"),
    "nan centroid entry": (_centroids(lambda c: _with(c, (0, 0), np.nan)), "non-finite"),
    "inf centroid entry": (_centroids(lambda c: _with(c, (0, -1), np.inf)), "non-finite"),
    "short centroid": (_centroids(lambda c: c[:-1]), r"\(3, 16\), expected float32 \(4, None\)"),
    "empty centroid": (_centroids(lambda c: c[:, :0]), "centroid 0 in centroids.npy has norm"),
    "centroid not unit norm": (
        _centroids(lambda c: 1.001 * c),
        "centroid 0 in centroids.npy has norm",
    ),
    "centroid entry not a number": (_centroids(lambda c: c.astype(str)), "expected float32"),
    "adapter_bytes not an int": (
        _manifest(_set_field("adapter_bytes", "12x")),
        r"unparsable field \(invalid literal for int\(\) with base 10: '12x'\)",
    ),
    "cluster_size not an int": (
        _manifest(_sub(r"^expert: 5 ", "expert: five ")),
        r"unparsable field \(invalid literal for int\(\) with base 10: 'five'\)",
    ),
    "num_experts not an int": (_manifest(_set_field("num_experts", "4.0")), "unparsable"),
    "base_fingerprint not hex": (_manifest(_set_field("base_fingerprint", "zz")), "unparsable"),
    "base_fingerprint short": (
        _manifest(_set_field("base_fingerprint", "ab" * 31)),
        "not 32 bytes",
    ),
    "checksum not hex": (
        _manifest(_sub(r"^expert: 5 .*$", "expert: 5 " + "x" * 16)),
        "expert 0 checksum 'x{16}' is not 16 hex digits",
    ),
    "other catalog version": (
        _manifest(_set_field("catalog_version", "1")),
        "unsupported catalog version 1$",
    ),
    "count mismatch": (_manifest(_set_field("num_experts", "5")), "num_experts is 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_load_catalog_checks_manifest(tmp_path, small_base, case):
    catalog = build_catalog_dir(tmp_path, small_base, 4, ["abcd", "efgh"])
    (name, damage), message = BAD_MANIFESTS[case]
    before = {p.name: p.read_bytes() for p in catalog.root.iterdir() if p.is_file()}
    damage(catalog.root)
    assert {p.name: p.read_bytes() for p in catalog.root.iterdir() if p.is_file()} != before
    with pytest.raises(ValueError, match=message) as info:
        cat.load_catalog(catalog.root)
    assert str(catalog.root) in str(info.value) and name in str(info.value)


def test_format_1_catalog_rejected(tmp_path, small_base):
    # a format-1 manifest holds each centroid as a text line, and no centroids.npy exists
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    manifest = catalog.root / cat.MANIFEST_NAME
    text = _set_field("catalog_version", "1")(manifest.read_text())
    manifest.write_text(re.sub(r"^(expert: .*)$", r"\1\ncentroid: 1.0 0.0", text, flags=re.M))
    (catalog.root / cat.CENTROIDS_NAME).unlink()
    with pytest.raises(ValueError, match=r"manifest.txt: unsupported catalog version 1$"):
        cat.load_catalog(catalog.root)


def test_format_2_catalog_rejected(tmp_path, small_base):
    # format 2 kept the base in base.npz; its manifest names version 2
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    manifest = catalog.root / cat.MANIFEST_NAME
    manifest.write_text(_set_field("catalog_version", "2")(manifest.read_text()))
    with pytest.raises(ValueError, match=r"manifest.txt: unsupported catalog version 2$"):
        cat.load_catalog(catalog.root)


def test_format_3_catalog_rejected(tmp_path, small_base):
    # a format-3 manifest as the format-3 build wrote it: six lines per expert
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    (catalog.root / cat.MANIFEST_NAME).write_text(
        "catalog_version: 3\n"
        "embedder_fingerprint: 5f0c3e5a2c7d9b1e\n"
        f"base_fingerprint: {'ab' * 32}\n"
        "num_experts: 2\n"
        "\n"
        "expert_id: 0\n"
        "cluster_size: 5\n"
        "adapter_path: adapters/expert_0000.bin\n"
        "byte_size: 1320\n"
        "checksum: 0123456789abcdef\n"
        "\n"
        "expert_id: 1\n"
        "cluster_size: 6\n"
        "adapter_path: adapters/expert_0001.bin\n"
        "byte_size: 1320\n"
        "checksum: fedcba9876543210\n"
    )
    with pytest.raises(ValueError, match=r"manifest.txt: unsupported catalog version 3$"):
        cat.load_catalog(catalog.root)


def test_save_manifest_refuses_adapters_of_different_sizes(tmp_path, small_base):
    # one adapter_bytes cannot state two sizes; nothing is written
    catalog = build_catalog_dir(tmp_path, small_base, 3, ["abcd"])
    before = {p.name: p.read_bytes() for p in catalog.root.iterdir() if p.is_file()}
    size = catalog.records[0].byte_size
    catalog.records[2].byte_size += 4
    message = rf"catalog {re.escape(str(catalog.root))}: adapter byte sizes \[{size}, {size + 4}\]"
    with pytest.raises(ValueError, match=message):
        cat.save_manifest(catalog)
    assert {p.name: p.read_bytes() for p in catalog.root.iterdir() if p.is_file()} == before


def test_load_active_reads_only_support(tmp_path, small_base, monkeypatch):
    catalog = build_catalog_dir(tmp_path, small_base, 6, ["abcd", "efgh"])
    reads = CallCounter(monkeypatch, cat, "load_adapter")
    adapters = cat.load_active(catalog, [1, 4])
    assert reads.calls == 2
    assert sorted(adapters) == [1, 4]


def test_load_active_missing_expert(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    for k in (7, 2, -1):
        with pytest.raises(ValueError, match=rf"expert id {k} is not in 0\.\.1"):
            cat.load_active(catalog, [k])
    path = catalog.adapter_file(0)
    path.unlink()
    with pytest.raises(ValueError, match=rf"^adapter {re.escape(str(path))}: cannot read it \("):
        cat.load_active(catalog, [0])


def test_load_active_rejects_swapped_adapter_files(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd", "efgh"])
    first, second = catalog.adapter_file(0), catalog.adapter_file(1)
    blob0, blob1 = first.read_bytes(), second.read_bytes()
    first.write_bytes(blob1)
    second.write_bytes(blob0)
    for k in (0, 1):
        with pytest.raises(ValueError, match=rf"expert_000{k}\.bin .*manifest checksum"):
            cat.load_active(catalog, [k])
        # the file itself is intact; only the manifest record tells them apart
        cat.load_adapter(catalog.adapter_file(k), catalog.base_fingerprint)


def test_timed_route_merge(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 5, ["abcd", "efgh"])
    query = catalog.centroids[2]
    for beta in (1e-3, 1.0):  # a sharp and a flat routing
        merged, report = cat.timed_route_merge(catalog, query, RoutingConfig(beta=beta, tau=0.0))
        support = merged.provenance.support
        assert heaviest(merged.provenance) == 2
        # the fields a serving benchmark reads
        assert report.n_active == len(support)
        assert report.bytes_loaded == sum(catalog.records[k].byte_size for k in support)
        assert report.select_duration >= 0.0
        assert report.load_duration >= 0.0
        assert report.merge_duration >= 0.0
    assert report.n_active == 5


def test_base_roundtrip(tmp_path, small_base):
    cat.save_base(small_base, tmp_path)
    # one (2V+2h, h) float32 array: the rows of embed_table, block0, block1, out_proj
    rows = np.load(tmp_path / cat.BASE_NAME, allow_pickle=False)
    v, h = small_base.embed_table.shape
    assert rows.dtype == np.float32 and rows.shape == (2 * (v + h), h)
    assert np.array_equal(rows, np.concatenate([getattr(small_base, n) for n in lm.DENSE_NAMES]))
    loaded = cat.load_base(tmp_path)
    assert loaded.vocab.symbols == small_base.vocab.symbols
    for name in ("embed_table", "block0", "block1", "out_proj"):
        assert np.array_equal(getattr(loaded, name), getattr(small_base, name))
    assert loaded.fingerprint() == small_base.fingerprint()


def test_load_base_reads_the_file_in_full_at_every_call(tmp_path, small_base):
    # no cache across calls and no lazy (memory-mapped) read: a rewrite of
    # base.npy shows at the next call, and a bad entry fails in load_base
    cat.save_base(small_base, tmp_path)
    before = cat.load_base(tmp_path)
    path = tmp_path / cat.BASE_NAME
    rows = np.load(path)
    np.save(path, rows + 1.0)
    after = cat.load_base(tmp_path)
    assert np.array_equal(after.embed_table, before.embed_table + 1.0)
    assert after.fingerprint() != before.fingerprint()
    rows[-1, -1] = np.inf
    np.save(path, rows)
    with pytest.raises(ValueError, match=r"cannot read base\.npy \(non-finite entries in out_proj"):
        cat.load_base(tmp_path)
