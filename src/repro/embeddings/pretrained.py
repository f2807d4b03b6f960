"""Deterministic synthetic pre-trained embedding dictionaries.

The paper uses GloVe-840B (and GloVe-Wiki, word2vec, fastText, a Spanish
dictionary, and a biomedical dictionary) — all unavailable offline. This
module builds drop-in substitutes with the properties DeepER relies on:

- **semantic proximity**: a word's vector mixes a *concept* component (seeded
  by its canonical form under the shared lexicon's nickname/abbreviation/
  synonym map) with a char-trigram component, so "bill"≈"william",
  "intl"≈"international", and typo variants land near each other — exactly
  the behaviour the paper attributes to distributional training;
- **finite coverage**: each dictionary has a membership predicate; words
  outside it hit the UNK path (§2.3) and can be repaired by retrofitting
  (§3.2);
- **determinism**: a word's vector depends only on (word, model seed), so
  the "pre-trained dictionary" behaves identically across datasets and
  Spark executors without shipping a 2 GB matrix.

Vectors are unit-normalized so cosine similarity is a dot product.

Like a real dictionary, each family is loaded once and then only read: the
factories return one shared instance per ``(family, d)`` in each process,
so a vector is derived the first time any caller looks its word up and
reused by every later DR pass, resolve and Spark task in that process.
Returned vectors are read-only, since every caller shares them.
"""
from __future__ import annotations

import functools
import hashlib
from typing import Callable, Iterable

import numpy as np

from repro.embeddings import lexicon

UNK = "<unk>"


def _hash_seed(text: str, salt: int) -> int:
    h = hashlib.blake2b(text.encode("utf-8"), digest_size=8,
                        salt=salt.to_bytes(8, "little")).digest()
    return int.from_bytes(h, "little")


def _hash_vec(text: str, salt: int, d: int) -> np.ndarray:
    return np.random.default_rng(_hash_seed(text, salt)).standard_normal(d)


def _trigrams(word: str) -> list[str]:
    w = f"<{word}>"
    if len(w) < 3:
        return [w]
    return [w[i:i + 3] for i in range(len(w) - 2)]


class SyntheticEmbeddings:
    """A pre-trained-dictionary stand-in.

    Parameters
    ----------
    name: model family label ("glove840", ...), only for display.
    d: embedding dimension (paper: 300; the tables run at 64, and the
        factories default to 32).
    seed: model-family salt — different families give unrelated geometries
        for the same word, like truly independent trainings.
    char_weight: weight of the char-trigram component (fastText-like models
        use more subword information).
    covers: membership predicate; ``None`` means full coverage except
        long digit-bearing IDs (which even GloVe-840B maps to UNK, §2.3).
    concept: surface form -> concept map; defaults to the shared lexicon's.
    """

    def __init__(self, name: str, *, d: int = 32, seed: int = 42,
                 char_weight: float = 0.35,
                 covers: Callable[[str], bool] | None = None,
                 concept: dict[str, str] | None = None):
        self.name = name
        self.d = d
        self.seed = seed
        self.char_weight = char_weight
        self._covers = covers
        self._concept = lexicon.concept_map() if concept is None else concept
        self._cache: dict[str, np.ndarray | None] = {}
        # Trigrams recur across words ("<pr" in every "pr..." word), so
        # their hash vectors are drawn once per instance.
        self._tri_cache: dict[str, np.ndarray] = {}
        # UNK is the zero vector: an OOV token contributes nothing to an
        # averaged attribute vector, and a NULL attribute yields exactly
        # zero cosine against anything — a *neutral* feature value rather
        # than hash noise (the standard OOV convention in DL toolkits).
        self._unk = np.zeros(self.d)
        self._unk.setflags(write=False)

    # -- membership ---------------------------------------------------------
    def __contains__(self, word: str) -> bool:
        if self._looks_like_id(word):
            return False
        if self._covers is not None:
            return self._covers(word)
        return True

    @staticmethod
    def _looks_like_id(word: str) -> bool:
        """Serial-number-like tokens that even GloVe-840B lacks. Short pure
        numbers (years, prices, "64" in "64 gb") ARE in real dictionaries,
        so only long numerics / digit-heavy alphanumerics count as IDs."""
        digits = sum(c.isdigit() for c in word)
        if word.isdigit():
            return len(word) >= 5
        return digits >= 4 or (digits > 0 and digits >= len(word) // 2 and len(word) > 5)

    # -- vectors ------------------------------------------------------------
    def _raw_vector(self, word: str) -> np.ndarray:
        c = self._concept.get(word, word)
        cv = _hash_vec(c, self.seed, self.d)
        cv /= np.linalg.norm(cv)
        tri = _trigrams(word)
        # The subword space uses a family-independent salt: orthographic
        # similarity is a property of spelling, not of the training corpus,
        # so all model families agree on it (they differ in the semantic
        # component's geometry and in char_weight).
        tv = np.mean([self._trigram_vector(t) for t in tri], axis=0)
        tv /= np.linalg.norm(tv)
        # sqrt-weights over unit components: squared weights are the cosine
        # contributions — cos(same concept, diff surface) ~= 1-cw,
        # cos(unrelated) ~= 0, cos(typo) ~= cw.
        cw = self.char_weight
        v = np.sqrt(1.0 - cw) * cv + np.sqrt(cw) * tv
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    def _trigram_vector(self, tri: str) -> np.ndarray:
        if tri not in self._tri_cache:
            self._tri_cache[tri] = _hash_vec(tri, 7, self.d)
        return self._tri_cache[tri]

    def vector(self, word: str) -> np.ndarray | None:
        """Unit vector for an in-vocabulary word, else ``None`` (OOV).

        The array is read-only: it is the instance's memo, shared by every
        caller of the factory."""
        if word not in self._cache:
            v = self._raw_vector(word) if word in self else None
            if v is not None:
                v.setflags(write=False)
            self._cache[word] = v
        return self._cache[word]

    @property
    def unk_vector(self) -> np.ndarray:
        return self._unk

    def as_matrix(self, vocab: Iterable[str],
                  extra: dict[str, np.ndarray] | None = None):
        """Materialize ``(word -> row, matrix)`` for a trainable embedding
        layer (end-to-end fine-tuning, §3.4). Row 0 is UNK.

        ``extra`` is read only for words the dictionary lacks: an
        in-vocabulary word's row is always its dictionary vector, so a
        retrofitted in-vocabulary vector in ``extra`` changes nothing."""
        words = sorted(set(vocab))
        index = {UNK: 0}
        mat = [self._unk]
        for w in words:
            v = self.vector(w)
            if v is None and extra is not None:
                v = extra.get(w)
            if v is None:
                continue
            index[w] = len(mat)
            mat.append(v)
        return index, np.asarray(mat)


# ------------------------------------------------------------ the variants -

def _once_per_d(build: Callable[[int], SyntheticEmbeddings]):
    """Memoise a dictionary factory on ``d``: every call with the same ``d``
    (positional or keyword) returns one shared instance. The vectors are
    pure functions of (word, seed, d) and no caller mutates an instance, so
    sharing changes no value. ``factory.__wrapped__(d)`` still builds a
    fresh, independent instance."""
    memo = functools.cache(build)

    @functools.wraps(build)
    def factory(d: int = 32) -> SyntheticEmbeddings:
        return memo(d)

    return factory


@_once_per_d
def glove840(d: int = 32) -> SyntheticEmbeddings:
    """GloVe Common-Crawl-840B stand-in: (near-)full coverage."""
    return SyntheticEmbeddings("glove840", d=d, seed=42, char_weight=0.20)


@_once_per_d
def glove_wiki(d: int = 32) -> SyntheticEmbeddings:
    """GloVe-Wikipedia stand-in: small dictionary — common English words
    only, missing names / brands / venue acronyms (Table 5's steep drop)."""
    common = lexicon.common_words()
    return SyntheticEmbeddings(
        "glove_wiki", d=d, seed=42, char_weight=0.20,
        covers=lambda w: w in common,
    )


@_once_per_d
def word2vec(d: int = 32) -> SyntheticEmbeddings:
    """word2vec (Google News) stand-in: independent geometry, similar
    coverage — Table 6 shows only minor variation across families."""
    return SyntheticEmbeddings("word2vec", d=d, seed=1013, char_weight=0.18)


@_once_per_d
def fasttext(d: int = 32) -> SyntheticEmbeddings:
    """fastText stand-in: heavier subword component (the paper restricts it
    to word-level vectors for fairness; we keep a higher char weight only)."""
    return SyntheticEmbeddings("fasttext", d=d, seed=2027, char_weight=0.45)


@_once_per_d
def spanish_glove(d: int = 32) -> SyntheticEmbeddings:
    """Spanish dictionary stand-in for Table 7. Operates on Spanish surface
    forms; same concept machinery, separate model seed."""
    return SyntheticEmbeddings("spanish", d=d, seed=3001, char_weight=0.20)


@_once_per_d
def bio_dict(d: int = 32) -> SyntheticEmbeddings:
    """Biomedical dictionary stand-in (§5.2 nucleotide benchmark): the paper
    *assumes* "an appropriate dictionary for biomedical embeddings"; k-mer
    words get subword-heavy vectors so overlapping sequences are close,
    mimicking dna2vec-style sequence embeddings."""
    return SyntheticEmbeddings("bio", d=d, seed=5003, char_weight=0.75,
                               concept={})


# Registry so a Spark task can obtain a dictionary from its name instead of
# deserializing one (vectors are pure functions of the word). The entries
# are the memoised factories, so each Python worker process builds a
# dictionary once and reuses it, warm, across the tasks it runs.
FACTORIES = {
    "glove840": glove840,
    "glove_wiki": glove_wiki,
    "word2vec": word2vec,
    "fasttext": fasttext,
    "spanish": spanish_glove,
    "bio": bio_dict,
}

