import itertools
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmerge.config import RunConfig
from expertmerge.embedding import (
    EmbedderConfig,
    bucket_sign,
    embed,
    embed_corpus,
    ngrams,
)

CFG = EmbedderConfig(dim=64, ngram_orders=(2, 3), hash_seed=123)


def reference_embed(config, text):
    """One bucket_sign call and one += per gram occurrence: the loop the
    batched embedder must match bit for bit."""
    grams = ngrams(text, config.ngram_orders)
    acc = np.zeros(config.dim, dtype=np.float64)
    for gram in grams:
        bucket, sign = bucket_sign(config, gram)
        acc[bucket] += sign
    acc /= len(grams)
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        raise ValueError("degenerate embedding")
    return (acc / norm).astype(np.float32)


def test_config_validation():
    with pytest.raises(ValueError):
        EmbedderConfig(dim=4)
    with pytest.raises(ValueError):
        EmbedderConfig(ngram_orders=())
    with pytest.raises(ValueError):
        EmbedderConfig(ngram_orders=(0,))


def test_hash_seed_is_an_8_byte_key():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="hash_seed must be in"):
            EmbedderConfig(hash_seed=bad)
        with pytest.raises(ValueError, match="hash_seed must be in"):
            RunConfig().with_overrides({"embedder.hash_seed": bad})
    for good in (0, 2**64 - 1):
        vec = embed(EmbedderConfig(dim=64, hash_seed=good), "abc")
        assert vec.shape == (64,) and np.isclose(np.linalg.norm(vec), 1.0)


def test_embed_deterministic():
    a = embed(CFG, "abc")
    b = embed(CFG, "abc")
    assert a.dtype == np.float32
    assert np.array_equal(a, b)


def test_empty_text_rejected():
    with pytest.raises(ValueError, match="empty sequence"):
        embed(CFG, "")
    with pytest.raises(ValueError, match="empty sequence"):
        embed_corpus(CFG, ["abc", ""])


# small alphabets repeat grams within and across texts; lengths below the
# largest order exercise the whole-string gram
TEXTS = st.one_of(
    st.text(alphabet="ab", min_size=1, max_size=12),
    st.text(alphabet="abc ", min_size=1, max_size=40),
    st.text(alphabet=string.printable, min_size=1, max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1,), (2, 3), (2, 3, 4), (3, 5), (6,), (1, 8)]),
    st.sampled_from([8, 16, 64]),
    st.lists(TEXTS, min_size=1, max_size=6),
)
def test_batched_embed_matches_per_gram_loop(orders, dim, texts):
    cfg = EmbedderConfig(dim=dim, ngram_orders=orders, hash_seed=99)
    refs = []
    for text in texts:
        try:
            ref = reference_embed(cfg, text)
        except ValueError:
            with pytest.raises(ValueError, match="degenerate embedding"):
                embed(cfg, text)
            refs.append(None)
            continue
        assert np.array_equal(embed(cfg, text), ref)
        refs.append(ref)
    if any(ref is None for ref in refs):
        with pytest.raises(ValueError, match="degenerate embedding"):
            embed_corpus(cfg, texts)
    else:
        assert np.array_equal(embed_corpus(cfg, texts), np.stack(refs))


def test_call_local_codes_match_bucket_sign_on_non_ascii():
    # grams of 2-, 3- and 4-byte UTF-8 characters go through the copied
    # keyed hasher of one call; bucket_sign hashes each one afresh
    texts = ["héllo wörld", "日本語のテキスト", "a\U0001F600b\U0001F601c", "ÿ\u0100\uffff\U0010FFFF"]
    cfg = EmbedderConfig(dim=16, ngram_orders=(1, 2, 3), hash_seed=7)
    got = embed_corpus(cfg, texts)
    for row, text in zip(got, texts):
        assert np.array_equal(row, reference_embed(cfg, text))
        assert np.array_equal(embed(cfg, text), row)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=string.printable, min_size=1, max_size=40))
def test_unit_norm_property(text):
    vec = embed(CFG, text)
    assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-6


def test_disjoint_bucket_texts_are_orthogonal():
    # oracle: enumerate the hash buckets of candidate texts and pick two
    # whose bucket sets do not intersect
    def buckets(text):
        return {bucket_sign(CFG, g)[0] for g in ngrams(text, CFG.ngram_orders)}

    candidates = ["".join(p) for p in itertools.permutations("abcd", 3)]
    pair = None
    for s, t in itertools.combinations(candidates, 2):
        if not (buckets(s) & buckets(t)):
            pair = (s, t)
            break
    assert pair is not None, "no disjoint-bucket pair among candidates"
    assert float(np.dot(embed(CFG, pair[0]), embed(CFG, pair[1]))) == pytest.approx(0.0, abs=1e-7)


def test_degenerate_embedding_rejected():
    # orders (1,) on a two-char text whose chars hash to the same bucket
    # with opposite signs gives an exactly zero sum
    cfg = EmbedderConfig(dim=8, ngram_orders=(1,), hash_seed=7)
    alphabet = string.ascii_letters + string.digits
    found = None
    for a, b in itertools.combinations(alphabet, 2):
        ba, sa = bucket_sign(cfg, a)
        bb, sb = bucket_sign(cfg, b)
        if ba == bb and sa == -sb:
            found = a + b
            break
    assert found is not None
    with pytest.raises(ValueError, match="degenerate embedding"):
        embed(cfg, found)


def test_short_text_still_embeds():
    # text shorter than every order contributes the whole string
    vec = embed(CFG, "a")
    assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-6


def test_embed_corpus_stacks():
    mat = embed_corpus(CFG, ["abc", "def"])
    assert mat.shape == (2, CFG.dim)
    assert np.array_equal(mat[0], embed(CFG, "abc"))
