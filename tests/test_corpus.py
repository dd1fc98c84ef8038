import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styletx import corpus
from styletx.corpus import (
    EOS,
    PAD,
    RESERVED,
    UNK,
    EmptyInputError,
    SpecError,
    build_vocab,
    decode_to_text,
    encode,
    gen_synthetic,
    three_way_split,
)
from styletx.model import Batch


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_frequency_order():
    vocab = build_vocab(["a b", "a"], min_count=1)
    assert vocab.lookup("a") == 4
    assert vocab.lookup("b") == 5


def test_build_vocab_min_count_threshold():
    vocab = build_vocab(["a b", "a"], min_count=2)
    assert vocab.lookup("a") == 4
    assert vocab.lookup("b") == UNK


def test_build_vocab_tie_is_lexicographic():
    vocab = build_vocab(["zebra apple", "zebra apple"])
    assert vocab.lookup("apple") < vocab.lookup("zebra")


def test_build_vocab_empty_corpus():
    with pytest.raises(EmptyInputError):
        build_vocab([])


def test_words_spelt_like_reserved_tokens_encode_as_unk():
    # such a word gets no second entry (a checkpoint's record holds unique
    # tokens), and no reserved id: "<eos>" would cut the sentence short
    vocab = build_vocab(["the <eos> food <pad>", "<unk> food"])
    assert vocab.id_to_token == [*RESERVED, "food", "the"]
    ids, _ = encode(["the <eos> food <bos>"], vocab, 8)
    assert ids.tolist() == [[5, UNK, 4, UNK, EOS, PAD, PAD, PAD]]
    assert decode_to_text([5, UNK, 4, EOS], vocab) == "the <unk> food"


# ---------------------------------------------------------------------------
# encoding


def encode_one(sentence, vocab, max_len) -> tuple:
    """A per-sentence reference of the token-to-id rule: tokenize, cut to
    max_len - 1 tokens, look each up, then EOS and PAD; the length counts
    the EOS."""
    tokens = sentence.lower().split()[: max_len - 1]
    row = [vocab.lookup(t) for t in tokens] + [EOS]
    return row + [PAD] * (max_len - len(row)), len(row)


def test_encode_simple_case():
    vocab = build_vocab(["good food"])
    ids, lengths = encode(["good food"], vocab, max_len=5)
    assert ids.tolist() == [[vocab.lookup("good"), vocab.lookup("food"), EOS, PAD, PAD]]
    assert lengths.tolist() == [3]


def test_encode_truncates_long_sentences():
    vocab = build_vocab(["w"])
    (row,), (length,) = encode([" ".join(["w"] * 25)], vocab, max_len=20)
    assert length == 20
    assert row[-1] == EOS
    assert (row[:19] == vocab.lookup("w")).all()


def test_encode_unknown_token_maps_to_unk():
    vocab = build_vocab(["known"])
    ids, _ = encode(["mystery"], vocab, max_len=4)
    assert ids[0, 0] == UNK


def test_encode_empty_sentence():
    # encoding takes a text with no tokens as the end token alone; a batch
    # built from raw sentences refuses it
    vocab = build_vocab(["x"])
    ids, lengths = encode(["   "], vocab, max_len=5)
    assert ids.tolist() == [[EOS, PAD, PAD, PAD, PAD]] and lengths.tolist() == [1]
    with pytest.raises(EmptyInputError):
        Batch.from_sentences(["x", "   "], vocab, max_len=5)


def test_encode_max_len_validation():
    vocab = build_vocab(["x"])
    with pytest.raises(SpecError):
        encode(["x"], vocab, max_len=1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["spoon", "fork", "cup", "dish", "tray"]), min_size=1, max_size=8))
def test_encode_decode_round_trip(words):
    sentence = " ".join(words)
    vocab = build_vocab([" ".join(["spoon", "fork", "cup", "dish", "tray"])])
    (row,), _ = encode([sentence], vocab, max_len=10)
    assert decode_to_text(row, vocab) == sentence


@pytest.mark.parametrize("max_len", [2, 6, 20])
def test_encode_batch_rows_equal_encode_of_each_sentence(max_len):
    # the vocabulary of the source side alone leaves the target side's own
    # nouns unknown, and max_len 2 and 6 cut most sentences short
    syn = gen_synthetic(3, 150, 150, (0.3, 0.5, 0.2))
    sentences = syn.source + syn.target
    vocab = build_vocab(syn.source)
    ids, lengths = encode(sentences, vocab, max_len)
    assert ids.shape == (300, max_len) and ids.dtype == np.int64 and lengths.dtype == np.int64
    assert (ids == UNK).any()
    for row, length, sentence in zip(ids, lengths, sentences):
        assert (row.tolist(), length) == encode_one(sentence, vocab, max_len)


def test_encode_batch_edge_cases():
    vocab = build_vocab(["w x <eos> <pad>"])
    ids, lengths = encode([" ".join(["w"] * 25), "w " * 4, "x y <eos> <pad>", "w"],
                          vocab, max_len=5)
    w, x = vocab.lookup("w"), vocab.lookup("x")
    # cut at max_len - 1 tokens, then EOS; exactly max_len - 1 tokens fit whole
    assert ids.tolist() == [[w, w, w, w, EOS], [w, w, w, w, EOS],
                            [x, UNK, UNK, UNK, EOS], [w, EOS, PAD, PAD, PAD]]
    assert lengths.tolist() == [5, 5, 5, 2]
    for max_len in (1, 0, -3):
        with pytest.raises(SpecError):
            encode(["w"], vocab, max_len)
        with pytest.raises(SpecError):
            encode([], vocab, max_len)


def test_encode_batch_text_without_tokens_is_the_end_token_alone():
    vocab = build_vocab(["w"])
    ids, lengths = encode(["", "w", " \t\n "], vocab, max_len=4)
    assert ids.tolist() == [[EOS, PAD, PAD, PAD], [vocab.lookup("w"), EOS, PAD, PAD],
                            [EOS, PAD, PAD, PAD]]
    assert lengths.tolist() == [1, 2, 1]
    ids, lengths = encode([], vocab, max_len=4)
    assert ids.shape == (0, 4) and lengths.shape == (0,)


# ---------------------------------------------------------------------------
# splitting


def test_split_degenerate_everything_in_part_one():
    # largest-remainder rounding gives a lone sentence to the biggest fraction
    parts = three_way_split(["s0"], np.random.default_rng(0))
    assert parts[0].train.sentences == ["s0"]
    assert len(parts[1].all_sentences()) == 0 and len(parts[2].all_sentences()) == 0


def test_split_exact_fraction_sizes():
    sentences = [f"s{i}" for i in range(100)]
    parts = three_way_split(sentences, np.random.default_rng(3))
    assert [len(p.all_sentences()) for p in parts] == [60, 20, 20]
    assert [(len(p.train), len(p.test), len(p.val)) for p in parts] == [(48, 6, 6), (16, 2, 2),
                                                                        (16, 2, 2)]


def test_split_same_seed_identical():
    sentences = [f"s{i}" for i in range(57)]
    a = three_way_split(sentences, np.random.default_rng(11))
    b = three_way_split(sentences, np.random.default_rng(11))
    for pa, pb in zip(a, b):
        assert pa.train.sentences == pb.train.sentences
        assert pa.test.sentences == pb.test.sentences
        assert pa.val.sentences == pb.val.sentences


def test_split_carries_labels():
    sentences = [f"s{i}" for i in range(30)]
    labels = [str(i % 2) for i in range(30)]
    parts = three_way_split(sentences, np.random.default_rng(5), labels=labels)
    for part in parts:
        for ds in (part.train, part.test, part.val):
            for s, l in zip(ds.sentences, ds.labels):
                assert l == str(int(s[1:]) % 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=3, max_value=200))
def test_split_parts_pairwise_disjoint(seed, n):
    sentences = [f"unique sentence {i}" for i in range(n)]
    parts = three_way_split(sentences, np.random.default_rng(seed))
    sets = [set(p.all_sentences()) for p in parts]
    assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
    assert sum(len(s) for s in sets) == len(set(sentences))


# ---------------------------------------------------------------------------
# synthetic corpora


def test_synthetic_vocabulary_is_small():
    data = gen_synthetic(seed=0, n_source=2000, n_target=2000, mix=(0.3, 0.3, 0.4))
    assert len(build_vocab(data.source + data.target)) <= 100


def test_synthetic_determinism():
    a = gen_synthetic(seed=9, n_source=50, n_target=40, mix=(0.3, 0.7, 0.0))
    b = gen_synthetic(seed=9, n_source=50, n_target=40, mix=(0.3, 0.7, 0.0))
    assert a.source == b.source and a.target == b.target and a.source_styles == b.source_styles


def test_synthetic_target_has_no_anti_style_collocations():
    data = gen_synthetic(seed=1, n_source=10, n_target=300, mix=(0.0, 1.0, 0.0))
    forbidden = set(corpus.STYLE_PAIRS["b"]) | set(corpus.STYLE_PAIRS["n"])
    for sentence in data.target:
        pairs = corpus.sentence_pairs(sentence)
        assert pairs, sentence  # every sentence carries at least one collocation
        assert not (set(pairs) & forbidden), sentence


def test_synthetic_lengths_in_range():
    data = gen_synthetic(seed=2, n_source=300, n_target=300, mix=(0.2, 0.5, 0.3))
    lengths = [len(s.split()) for s in data.source + data.target]
    assert min(lengths) >= 4 and max(lengths) <= 12
    assert max(lengths) == 12  # the grammar does reach its longest template


def test_synthetic_pure_anti_mix():
    data = gen_synthetic(seed=3, n_source=200, n_target=10, mix=(0.0, 1.0, 0.0))
    assert set(data.source_styles) == {"b"}


def test_synthetic_mixture_fractions_roughly_match():
    data = gen_synthetic(seed=4, n_source=3000, n_target=10, mix=(0.3, 0.7, 0.0))
    frac_a = data.source_styles.count("a") / 3000
    assert 0.25 < frac_a < 0.35
    assert data.source_styles.count("n") == 0


def test_synthetic_style_labels_match_collocation_usage():
    data = gen_synthetic(seed=5, n_source=400, n_target=0, mix=(0.3, 0.4, 0.3))
    for sentence, style in zip(data.source, data.source_styles):
        pairs = set(corpus.sentence_pairs(sentence))
        own = set(corpus.STYLE_PAIRS[style])
        others = set()
        for other in "abn".replace(style, ""):
            others |= set(corpus.STYLE_PAIRS[other])
        assert pairs and pairs <= own
        assert not (pairs & others)


def test_synthetic_styles_share_all_unigrams_within_domain():
    # no single token may betray the style: target-styled and anti-styled
    # source sentences use identical vocabularies
    data = gen_synthetic(seed=6, n_source=2000, n_target=10, mix=(0.5, 0.5, 0.0))
    a_tokens = set(t for s, y in zip(data.source, data.source_styles)
                   for t in s.split() if y == "a")
    b_tokens = set(t for s, y in zip(data.source, data.source_styles)
                   for t in s.split() if y == "b")
    assert a_tokens == b_tokens


def test_synthetic_domains_have_partial_noun_overlap():
    data = gen_synthetic(seed=7, n_source=800, n_target=800, mix=(0.0, 1.0, 0.0))
    source_tokens = set(t for s in data.source for t in s.split())
    target_tokens = set(t for s in data.target for t in s.split())
    assert set(corpus.NOUNS_SHARED) <= source_tokens & target_tokens
    assert set(corpus.NOUNS_SOURCE).isdisjoint(target_tokens)
    assert set(corpus.NOUNS_TARGET).isdisjoint(source_tokens)


def test_synthetic_mix_validation():
    with pytest.raises(SpecError):
        gen_synthetic(seed=0, n_source=5, n_target=5, mix=(0.5, 0.2, 0.1))
    # NaN compares False both ways, so it would pass a sign and a sum check
    for n_source in (5, 0):
        with pytest.raises(SpecError, match="finite"):
            gen_synthetic(seed=0, n_source=n_source, n_target=5, mix=(float("nan"), 0.0, 1.0))


@pytest.mark.parametrize("n_source,n_target", [(-5, 3), (3, -1)])
def test_synthetic_refuses_negative_counts(n_source, n_target):
    with pytest.raises(SpecError, match="non-negative"):
        gen_synthetic(seed=0, n_source=n_source, n_target=n_target, mix=(0.3, 0.7, 0.0))


def test_line_io_round_trip(tmp_path):
    lines = ["the food was great", "sadly the soup was stale"]
    path = tmp_path / "c.txt"
    corpus.write_lines(path, lines)
    assert corpus.read_lines(path) == lines


def test_read_lines_splits_at_line_feeds_only(tmp_path):
    # other Unicode line breaks stay inside their line, so a file keeps the
    # line count that write_lines gave it; a CRLF file reads as its LF twin
    lines = ["the food\u2028was great", "a\x0cb\x1cc\x85d\x0be", "", "x\ry"]
    path = tmp_path / "c.txt"
    corpus.write_lines(path, lines)
    assert corpus.read_lines(path) == lines
    path.write_bytes(b"one\r\ntwo\r\n\r\nthree")
    assert corpus.read_lines(path) == ["one", "two", "", "three"]
    path.write_bytes(b"")
    assert corpus.read_lines(path) == []
