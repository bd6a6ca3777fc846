import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CallCounter
from expertmerge import catalog as cat
from expertmerge import model as lm
from expertmerge.routing import RoutingConfig


@pytest.fixture
def fingerprint(small_base):
    return small_base.fingerprint()


@pytest.fixture
def adapter(small_base):
    cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=7)
    return lm.train_adapter(small_base, ["abcd", "efgh"], cfg, rank=2)


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
    assert blob[:4] == b"TTMM" and struct.unpack_from("<H", blob, 4) == (2,)
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
        cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=100 + k)
        adapter = lm.train_adapter(base, docs, cfg, rank=2)
        rel = f"{cat.ADAPTER_DIR}/expert_{k:03d}.adapter"
        size, checksum = cat.save_adapter(adapter, root / rel, fp)
        records.append(
            cat.ExpertRecord(
                expert_id=k, cluster_size=5 + k, adapter_path=rel, byte_size=size, checksum=checksum
            )
        )
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
    for orig, got in zip(catalog.records, loaded.records):
        assert got.expert_id == orig.expert_id
        assert got.cluster_size == orig.cluster_size
        assert got.byte_size == orig.byte_size
        assert got.checksum == orig.checksum
    # centroids round-trip bit-exactly through centroids.npy
    assert loaded.centroids.dtype == np.float32
    assert np.array_equal(loaded.centroids, catalog.centroids)


def _drop_line(key: str):
    return lambda text: re.sub(rf"^{key}: .*\n", "", text, count=1, flags=re.M)


def _set_field(key: str, value: str):
    return lambda text: re.sub(rf"^{key}: .*$", f"{key}: {value}", text, count=1, flags=re.M)


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


BAD_MANIFESTS = {
    "no num_experts": (_manifest(_drop_line("num_experts")), "header has no num_experts"),
    "no base_fingerprint": (
        _manifest(_drop_line("base_fingerprint")),
        "header has no base_fingerprint",
    ),
    "no checksum": (_manifest(_drop_line("checksum")), "record 0 has no checksum"),
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
    "byte_size not an int": (_manifest(_set_field("byte_size", "12x")), "unparsable"),
    "expert_id not an int": (_manifest(_set_field("expert_id", "one")), "unparsable"),
    "num_experts not an int": (_manifest(_set_field("num_experts", "4.0")), "unparsable"),
    "base_fingerprint not hex": (_manifest(_set_field("base_fingerprint", "zz")), "unparsable"),
    "base_fingerprint short": (
        _manifest(_set_field("base_fingerprint", "ab" * 31)),
        "not 32 bytes",
    ),
    "checksum not hex": (_manifest(_set_field("checksum", "x" * 16)), "not 16 hex digits"),
    "other catalog version": (
        _manifest(_set_field("catalog_version", "1")),
        "unsupported catalog version 1$",
    ),
    "count mismatch": (_manifest(_set_field("num_experts", "5")), "num_experts is 5"),
    "ids not dense": (_manifest(_set_field("expert_id", "7")), "dense"),
    # an adapter file outside the catalog's adapters/ directory
    "adapter_path absolute": (
        _manifest(_set_field("adapter_path", "/abs/outside.bin")),
        r"expert 0 adapter_path '/abs/outside.bin' is not adapters/<name>",
    ),
    "adapter_path escapes": (
        _manifest(_set_field("adapter_path", "../outside.bin")),
        r"expert 0 adapter_path '\.\./outside.bin' is not adapters/<name>",
    ),
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
    manifest.write_text(re.sub(r"^(checksum: .*)$", r"\1\ncentroid: 1.0 0.0", text, flags=re.M))
    (catalog.root / cat.CENTROIDS_NAME).unlink()
    with pytest.raises(ValueError, match=r"manifest.txt: unsupported catalog version 1$"):
        cat.load_catalog(catalog.root)


def test_catalog_dense_id_validation(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    records = list(catalog.records)
    records[1].expert_id = 5
    with pytest.raises(ValueError, match="dense"):
        cat.ExpertCatalog(
            root=catalog.root,
            records=records,
            centroids=catalog.centroids,
            embedder_fingerprint="x",
            base_fingerprint=catalog.base_fingerprint,
        )


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
    catalog.adapter_file(0).unlink()
    with pytest.raises(FileNotFoundError, match="adapter file missing"):
        cat.load_active(catalog, [0])


def test_load_active_rejects_swapped_adapter_files(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd", "efgh"])
    first, second = catalog.adapter_file(0), catalog.adapter_file(1)
    blob0, blob1 = first.read_bytes(), second.read_bytes()
    first.write_bytes(blob1)
    second.write_bytes(blob0)
    for k in (0, 1):
        with pytest.raises(ValueError, match=rf"expert_00{k}\.adapter .*manifest checksum"):
            cat.load_active(catalog, [k])
        # the file itself is intact; only the manifest record tells them apart
        cat.load_adapter(catalog.adapter_file(k), catalog.base_fingerprint)


def test_timed_route_merge(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 5, ["abcd", "efgh"])
    query = catalog.centroids[2]
    for beta in (1e-3, 1.0):  # a sharp and a flat routing
        merged, report = cat.timed_route_merge(catalog, query, RoutingConfig(beta=beta, tau=0.0))
        support = merged.provenance.support
        assert merged.provenance.argmax() == 2
        # the fields a serving benchmark reads
        assert report.n_active == len(support)
        assert report.bytes_loaded == sum(catalog.records[k].byte_size for k in support)
        assert report.select_duration >= 0.0
        assert report.load_duration >= 0.0
        assert report.merge_duration >= 0.0
    assert report.n_active == 5


def test_base_roundtrip(tmp_path, small_base):
    cat.save_base(small_base, tmp_path)
    loaded = cat.load_base(tmp_path)
    assert loaded.vocab.symbols == small_base.vocab.symbols
    for name in ("embed_table", "block0", "block1", "out_proj"):
        assert np.array_equal(getattr(loaded, name), getattr(small_base, name))
    assert loaded.fingerprint() == small_base.fingerprint()
