"""Lexical substrate: Porter stemmer, MiniWordNet, label normalization.

This package stands in for the external linguistic resources the paper uses
(WordNet [9] and the Porter stemmer [19]); see DESIGN.md section 2 for the
substitution rationale.
"""

from .compiled import (
    CompiledLexicon,
    compile_lexicon,
    default_compiled,
    lexicon_fingerprint,
)
from .data import build_default_wordnet
from .io import load_wordnet, save_wordnet_data, wordnet_from_dict
from .morphology import base_form
from .normalize import Token, content_tokens, display_form, tokenize
from .porter import PorterStemmer, stem
from .stopwords import STOP_WORDS, is_stop_word
from .wordnet import MiniWordNet, Synset

__all__ = [
    "CompiledLexicon",
    "MiniWordNet",
    "PorterStemmer",
    "compile_lexicon",
    "default_compiled",
    "lexicon_fingerprint",
    "STOP_WORDS",
    "Synset",
    "Token",
    "base_form",
    "build_default_wordnet",
    "content_tokens",
    "display_form",
    "is_stop_word",
    "load_wordnet",
    "save_wordnet_data",
    "stem",
    "wordnet_from_dict",
    "tokenize",
]
