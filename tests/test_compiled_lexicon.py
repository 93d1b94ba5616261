"""CompiledLexicon: equivalence with MiniWordNet, immutability, pickling.

The compiled lexicon's contract is *exact* behavioral equivalence with the
builder it was compiled from — same base forms, same synonymy /
hypernymy / co-hyponymy verdicts — with O(1) table lookups instead of
the builder's unmemoised graph walks.  The property tests here drive both implementations
over the curated vocabulary (full single-word sweep + a seeded pair
sample + morphological variants) and demand identical answers.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.lexicon import (
    CompiledLexicon,
    MiniWordNet,
    compile_lexicon,
    default_compiled,
    lexicon_fingerprint,
)
from repro.lexicon.data import build_default_wordnet


@pytest.fixture(scope="module")
def dynamic() -> MiniWordNet:
    return build_default_wordnet()


@pytest.fixture(scope="module")
def compiled(dynamic) -> CompiledLexicon:
    return compile_lexicon(dynamic)


def _pair_sample(vocabulary, count=4000, seed=7):
    rng = random.Random(seed)
    return [
        (rng.choice(vocabulary), rng.choice(vocabulary)) for __ in range(count)
    ]


# ----------------------------------------------------------------------
# Equivalence properties.
# ----------------------------------------------------------------------


def test_vocabulary_matches(dynamic, compiled):
    assert compiled.vocabulary() == dynamic.vocabulary()
    assert len(compiled) == len(dynamic._synsets)


def test_base_form_equivalent_over_vocabulary(dynamic, compiled):
    for token in compiled.vocabulary():
        assert compiled.lemma_base(token) == dynamic.lemma_base(token), token


def test_base_form_equivalent_on_variants(dynamic, compiled):
    variants = []
    for lemma in compiled.vocabulary():
        variants.extend((lemma + "s", lemma + "es", lemma + "ing", lemma.upper()))
    variants.extend(["children", "people", "Flights", "zzzz-unknown", ""])
    for token in variants:
        assert compiled.lemma_base(token) == dynamic.lemma_base(token), token


def test_is_known_and_synsets_of_equivalent(dynamic, compiled):
    for token in (*compiled.vocabulary(), "zzzz-unknown", "Children"):
        assert compiled.is_known(token) == dynamic.is_known(token), token
        got = [(s.sid, s.lemmas) for s in compiled.synsets_of(token)]
        want = [(s.sid, s.lemmas) for s in dynamic.synsets_of(token)]
        assert sorted(got) == sorted(want), token
        assert (token in compiled) == (token in dynamic)


def test_relations_equivalent_on_pair_sample(dynamic, compiled):
    vocabulary = compiled.vocabulary()
    for a, b in _pair_sample(vocabulary):
        assert compiled.are_synonyms(a, b) == dynamic.are_synonyms(a, b), (a, b)
        assert compiled.is_hypernym(a, b) == dynamic.is_hypernym(a, b), (a, b)
        assert compiled.share_hypernym(a, b) == dynamic.share_hypernym(a, b), (
            a,
            b,
        )


def test_relations_equivalent_on_inflected_pairs(dynamic, compiled):
    vocabulary = compiled.vocabulary()
    rng = random.Random(11)
    for __ in range(500):
        a = rng.choice(vocabulary) + rng.choice(("", "s", "es"))
        b = rng.choice(vocabulary) + rng.choice(("", "s", "ing"))
        assert compiled.are_synonyms(a, b) == dynamic.are_synonyms(a, b), (a, b)
        assert compiled.is_hypernym(a, b) == dynamic.is_hypernym(a, b), (a, b)
        assert compiled.share_hypernym(a, b) == dynamic.share_hypernym(a, b), (
            a,
            b,
        )


# ----------------------------------------------------------------------
# Fingerprint.
# ----------------------------------------------------------------------


def test_fingerprint_stable_and_content_addressed(dynamic, compiled):
    assert compiled.fingerprint == lexicon_fingerprint(dynamic)
    assert compiled.fingerprint == lexicon_fingerprint(compiled)
    # Rebuilding from scratch lands on the same digest...
    assert compile_lexicon(build_default_wordnet()).fingerprint == (
        compiled.fingerprint
    )
    # ...and any content change moves it.
    extended = build_default_wordnet()
    extended.add_synset(["zzz-novel-concept"])
    assert lexicon_fingerprint(extended) != compiled.fingerprint


# ----------------------------------------------------------------------
# Immutability.
# ----------------------------------------------------------------------


def test_has_no_mutators(dynamic, compiled):
    for mutator in ("add_synset", "add_hypernym", "load", "thaw", "version"):
        assert not hasattr(compiled, mutator), mutator
    # Editing the builder afterwards leaves the snapshot as it was.
    builder = build_default_wordnet()
    snapshot = compile_lexicon(builder)
    builder.add_synset(["blarg", "fnord"])
    assert not snapshot.is_known("blarg")
    assert not snapshot.are_synonyms("blarg", "fnord")
    assert snapshot.fingerprint == compiled.fingerprint


# ----------------------------------------------------------------------
# Pickling.
# ----------------------------------------------------------------------


def test_pickle_roundtrip_preserves_behavior(dynamic, compiled):
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone.fingerprint == compiled.fingerprint
    assert clone.vocabulary() == compiled.vocabulary()
    for a, b in _pair_sample(compiled.vocabulary(), count=500, seed=5):
        assert clone.are_synonyms(a, b) == dynamic.are_synonyms(a, b), (a, b)
        assert clone.is_hypernym(a, b) == dynamic.is_hypernym(a, b), (a, b)
    # Runtime memo + counters are rebuilt, not shipped.
    compiled.lemma_base("zzz-unknown-token")
    assert "zzz-unknown-token" not in pickle.loads(
        pickle.dumps(compiled)
    )._base_cache


def test_pickle_is_compact(compiled):
    assert len(pickle.dumps(compiled)) < 256 * 1024


# ----------------------------------------------------------------------
# Singleton + stats surface.
# ----------------------------------------------------------------------


def test_default_compiled_is_cached_singleton():
    assert default_compiled() is default_compiled()
    assert default_compiled().fingerprint == lexicon_fingerprint(
        build_default_wordnet()
    )


def test_cache_stats_shape():
    lexicon = compile_lexicon(build_default_wordnet())
    lexicon.lemma_base("flight")  # precomputed: not counted
    lexicon.lemma_base("zzz-unknown-token")  # out of vocabulary: a miss
    lexicon.lemma_base("zzz-unknown-token")  # ... then a memo hit
    stats = lexicon.cache_stats()
    assert list(stats) == ["base_form"]
    assert stats["base_form"] == {
        "hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5, "size": 1,
    }


def test_compile_is_idempotent(compiled):
    assert compile_lexicon(compiled) is compiled


def test_pipeline_results_identical_with_compiled_lexicon(compiled):
    """The whole labeling pipeline must not care which backing answers."""
    from repro.core.label import LabelAnalyzer
    from repro.core.pipeline import label_corpus
    from repro.core.semantics import SemanticComparator
    from repro.datasets.registry import load_domain
    from repro.schema.serialize import node_to_dict

    dataset = load_domain("airline", seed=0)
    root_d, result_d = label_corpus(
        dataset.interfaces, dataset.mapping, comparator=SemanticComparator()
    )
    dataset = load_domain("airline", seed=0)
    root_c, result_c = label_corpus(
        dataset.interfaces,
        dataset.mapping,
        comparator=SemanticComparator(LabelAnalyzer(compiled)),
    )
    assert node_to_dict(root_d) == node_to_dict(root_c)
    assert result_d.field_labels == result_c.field_labels
    assert result_d.classification == result_c.classification
