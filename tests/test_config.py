import math
import re
from pathlib import Path

import pytest

from expertmerge.config import EvalProtocol, RunConfig
from expertmerge.routing import RoutingConfig


def test_yaml_roundtrip(tmp_path):
    cfg = RunConfig(seed=3, n_clusters=7, lora_rank=4)
    path = tmp_path / "run.yaml"
    cfg.save(path)
    loaded = RunConfig.load(path)
    assert loaded == cfg
    assert loaded.embedder.ngram_orders == cfg.embedder.ngram_orders


def test_overrides_nested_and_flat():
    cfg = RunConfig()
    out = cfg.with_overrides({"routing.tau": 0.02, "n_clusters": 8, "embedder.dim": 128})
    assert out.routing.tau == 0.02
    assert out.n_clusters == 8
    assert out.embedder.dim == 128
    # original untouched
    assert cfg.routing.tau != 0.02


def test_override_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig().with_overrides({"routing.gamma": 1.0})


@pytest.mark.parametrize("key", ["seed.x", "nope.x", "routing.tau.x", "embedder.ngram_orders.0"])
def test_override_below_a_leaf_or_unknown_section(key):
    with pytest.raises(ValueError, match=rf"^unknown config key: {key}$"):
        RunConfig().with_overrides({key: 1})


@pytest.mark.parametrize("text", ["- a\n", "3\n", "just text\n"])
def test_yaml_top_level_must_be_a_mapping(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad config: .*not a mapping"):
        RunConfig.load(path)


@pytest.mark.parametrize("field", ["beta", "tau"])
@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_yaml_routing_must_be_finite(tmp_path, field, value):
    path = tmp_path / "run.yaml"
    path.write_text(f"routing:\n  {field}: {value}\n")
    with pytest.raises(ValueError, match=f"{field} must be"):
        RunConfig.load(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_clusters: .nan\n", "bad config: n_clusters must be an integer"),
        ("n_clusters: true\n", "bad config: n_clusters must be an integer"),
        ("hidden: 8.5\n", "bad config: hidden must be an integer"),
        ("corpus:\n  seed: 1.0\n", "bad config: corpus.seed must be an integer"),
        ("base_train:\n  max_seq_len: '256'\n", "bad config: base_train.max_seq_len must be"),
        ("routing:\n  fixed_n: .nan\n", "fixed_n must be an integer"),
        ("routing:\n  fixed_n: true\n", "fixed_n must be an integer"),
        ("embedder:\n  ngram_orders: [2.5]\n", "ngram orders must be integers"),
    ],
)
def test_integer_fields_take_only_integers(tmp_path, text, message):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        RunConfig.load(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("expert_train:\n  adam_beta1: x\n", "expert_train.adam_beta1 must be a number, got 'x'"),
        ("ttt_learning_rate: abc\n", "ttt_learning_rate must be a number, got 'abc'"),
        ("corpus:\n  follow_prob: true\n", "corpus.follow_prob must be a number, got True"),
        ("routing:\n  beta: true\n", "routing.beta must be a number, got True"),
    ],
)
def test_float_fields_take_only_numbers(tmp_path, text, message):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"bad config: {message}")):
        RunConfig.load(path)


def test_float_fields_take_ints(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("lora_alpha: 8\nrouting:\n  beta: 1\nexpert_train:\n  weight_decay: 0\n")
    cfg = RunConfig.load(path)
    assert (cfg.lora_alpha, cfg.routing.beta, cfg.expert_train.weight_decay) == (8, 1, 0)


def test_cli_build_reports_a_bad_float_in_one_line(tmp_path, capsys):
    from expertmerge.cli import main

    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text("expert_train:\n  adam_beta1: x\n")
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("abcabc\nbcabca\n")
    rc = main(["build", str(corpus_path), str(tmp_path / "cat"), "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: bad config: expert_train.adam_beta1 must be a number, got 'x'\n"
    assert not (tmp_path / "cat").exists()


@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("hidden", [0, -1], [1]),
        ("ttt_neighbors", [0, -3], [1]),
        ("lora_rank", [0, -2], [1]),
        ("lora_alpha", [0.0, -1.0, math.inf, math.nan], [1e-3]),
        ("base_pretrain_fraction", [0.0, -0.1, 1.5, math.nan], [1.0, 1e-3]),
    ],
)
def test_run_config_ranges(field, bad, good):
    for value in bad:
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})
    for value in good:
        assert getattr(RunConfig(**{field: value}), field) == value


@pytest.mark.parametrize("text", ["routing:\n  - a\n", "routing: 5\n", "embedder: [1, 2]\n"])
def test_section_must_be_a_mapping(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    section = text.partition(":")[0]
    with pytest.raises(ValueError, match=f"^bad config: {section} must be a mapping$"):
        RunConfig.load(path)


@pytest.mark.parametrize("text", ["a: [", "a: b: c\n", "x: \"abc\n", "x: 1\n\x00"])
def test_malformed_yaml_is_a_value_error(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match="^bad config: .*run.yaml is not valid YAML") as info:
        RunConfig.load(path)
    assert "\n" not in str(info.value)


def test_protocol_validation():
    with pytest.raises(ValueError):
        EvalProtocol(query_prefix_len=-1)
    with pytest.raises(ValueError):
        EvalProtocol(holdout_fraction=1.0)


def test_empty_yaml_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert RunConfig.load(path) == RunConfig()


LEGACY_CONFIG = Path(__file__).parent / "data" / "config_with_sift.yaml"


def test_legacy_config_keys_ignored():
    # catalogs built before the sift option was removed keep loading
    assert RunConfig.load(LEGACY_CONFIG) == RunConfig()


def test_legacy_ttt_epochs_only_one(tmp_path):
    # the removed ttt_epochs field loads at the one value builds wrote, 1
    text = LEGACY_CONFIG.read_text()
    assert "ttt_epochs: 1\n" in text
    path = tmp_path / "epochs.yaml"
    path.write_text(text.replace("ttt_epochs: 1\n", "ttt_epochs: 3\n"))
    with pytest.raises(ValueError, match="ttt_epochs=3"):
        RunConfig.load(path)
    assert not hasattr(RunConfig(), "ttt_epochs")


def test_unknown_config_key_rejected(tmp_path):
    text = LEGACY_CONFIG.read_text()
    for bad in (
        text + "gamma: 1\n",
        text.replace("  weighting: cross_attention\n", "  weightings: cross_attention\n"),
        text.replace("sift:\n", "sifted:\n"),
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(bad)
        with pytest.raises(ValueError, match="bad config"):
            RunConfig.load(path)


def test_tau_checked_against_n_clusters():
    # with K=128 the default tau 0.01 exceeds 1/K: every prompt would fail routing
    with pytest.raises(ValueError, match="routing.tau"):
        RunConfig(n_clusters=128)
    with pytest.raises(ValueError, match="routing.tau"):
        RunConfig().with_overrides({"n_clusters": 100})
    with pytest.raises(ValueError, match="n_clusters"):
        RunConfig(n_clusters=0)
    assert RunConfig(n_clusters=99).n_clusters == 99
    fixed = RunConfig(n_clusters=128, routing=RoutingConfig(fixed_n=3))
    assert fixed.routing.fixed_n == 3


@pytest.mark.parametrize("value, loaded", [("1e-3", 0.001), ("-3e2", -300.0), ("2E+1", 20.0)])
def test_yaml_reads_exponent_floats(value, loaded):
    from expertmerge.config import parse_yaml

    assert parse_yaml(value, "x") == loaded


def test_file_takes_an_exponent_float(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("expert_train:\n  learning_rate: 1e-3\n")
    assert RunConfig.load(path).expert_train.learning_rate == 0.001
    path.write_text("expert_train:\n  learning_rate: '1e-3'\n")
    message = "bad config: expert_train.learning_rate must be a number, got '1e-3'"
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.load(path)


def test_set_takes_an_exponent_float():
    from expertmerge.cli import _load_config, build_parser

    def parsed(value):
        argv = ["cluster-report", "corpus.txt", "--set", f"expert_train.learning_rate={value}"]
        return _load_config(build_parser().parse_args(argv))

    assert parsed("1e-3").expert_train.learning_rate == 0.001
    with pytest.raises(ValueError, match="must be a number, got '1e-3'"):
        parsed("'1e-3'")
    with pytest.raises(ValueError, match=r"^bad config: --set expert_train.learning_rate=\[ "):
        parsed("[")


@pytest.mark.parametrize(
    "text, message",
    [
        ("learning_rate: .nan", "learning_rate must be >= 0 and finite, got nan"),
        ("learning_rate: .inf", "learning_rate must be >= 0 and finite, got inf"),
        ("max_seq_len: 0", "max_seq_len must be >= 1, got 0"),
        ("adam_beta1: 1.0", r"adam_beta1 must be in \[0, 1\), got 1.0"),
        ("adam_beta1: -0.1", r"adam_beta1 must be in \[0, 1\), got -0.1"),
        ("adam_beta2: 1.0", r"adam_beta2 must be in \[0, 1\), got 1.0"),
        ("adam_eps: 0.0", "adam_eps must be > 0, got 0.0"),
        ("weight_decay: -0.01", "weight_decay must be >= 0, got -0.01"),
    ],
)
def test_train_config_ranges(tmp_path, text, message):
    path = tmp_path / "run.yaml"
    path.write_text(f"expert_train:\n  {text}\n")
    with pytest.raises(ValueError, match=message):
        RunConfig.load(path)


@pytest.mark.parametrize("value", [".nan", ".inf", "-1.0"])
def test_ttt_learning_rate_checked_at_load(tmp_path, value):
    path = tmp_path / "run.yaml"
    path.write_text(f"ttt_learning_rate: {value}\n")
    with pytest.raises(ValueError, match="ttt_learning_rate must be >= 0 and finite"):
        RunConfig.load(path)
