"""The noise channel that turns a clean record into its "other-source" copy.

The paper's easy/challenging dataset split is a property of the noise:
easy datasets differ by typos/abbreviations/formatting, challenging ones by
vocabulary substitution (synonyms), token loss, word reordering, and missing
attributes. Each benchmark gets its own :class:`NoiseConfig`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings import lexicon as lx
from repro.er_data.entities import _pick

# reverse maps: canonical -> possible surface replacements
_REV_NICK: dict[str, list[str]] = {}
for nick, full in lx.NICKNAMES.items():
    _REV_NICK.setdefault(full, []).append(nick)
_REV_ABBREV: dict[str, list[str]] = {}
for abbr, full in lx.ABBREV.items():
    _REV_ABBREV.setdefault(full, []).append(abbr)
_REV_SYN: dict[str, list[str]] = {}
for s, canon in lx.SYNONYMS.items():
    _REV_SYN.setdefault(canon, []).append(s)

_ALPHABET = list("abcdefghijklmnopqrstuvwxyz")
_EXTRA_TOKENS = lx.PRODUCT_ADJS + lx.TOPIC_WORDS  # inserted distractors
# attributes that are never NULL in the wild (titles, names): corrupted
# normally but exempt from drop_attr
NEVER_NULL = ("title", "name")


@dataclass(frozen=True)
class NoiseConfig:
    """Per-token / per-attribute corruption probabilities."""

    typo: float = 0.0          # char-level edit inside a token
    abbrev: float = 0.0        # word -> abbreviation
    nickname: float = 0.0      # first name -> nickname
    synonym: float = 0.0       # word -> synonym surface form
    drop_token: float = 0.0    # delete a token
    extra_token: float = 0.0   # insert a distractor token
    reorder: float = 0.0       # shuffle an attribute's word order
    drop_attr: float = 0.0     # NULL out an attribute
    # structured attributes that are frequently missing in real catalogs
    # (extraction failures): nulled at drop_attr_heavy instead of drop_attr
    null_heavy: tuple[str, ...] = ()
    drop_attr_heavy: float = 0.0


TRIVIAL = NoiseConfig(typo=0.005, abbrev=0.08, nickname=0.05)
EASY = NoiseConfig(typo=0.04, abbrev=0.45, nickname=0.45, synonym=0.05,
                   drop_token=0.03, extra_token=0.02, reorder=0.05,
                   drop_attr=0.02)
# DBLP-Scholar style: scraped data, a bit noisier than the curated pairs.
EASY_NOISY = NoiseConfig(typo=0.06, abbrev=0.30, nickname=0.20, synonym=0.08,
                         drop_token=0.06, extra_token=0.04, reorder=0.10,
                         drop_attr=0.05)
# DBLP-Citeseer style: aggressive venue/word abbreviation and author
# nicknames/reordering (Citeseer's automatic extraction), little typo noise
# — surface forms diverge while semantics stay put.
EASY_ABBREV = NoiseConfig(typo=0.03, abbrev=0.70, nickname=0.60, synonym=0.15,
                          drop_token=0.04, extra_token=0.03, reorder=0.25,
                          drop_attr=0.03)
# Challenging datasets are *paraphrase*-dominant: heavy synonym/abbreviation
# substitution and reorder (destroys token overlap, preserves semantics),
# with only moderate typo/drop noise (which destroys information for
# symbolic and distributed representations alike).
HARD = NoiseConfig(typo=0.04, abbrev=0.60, nickname=0.10, synonym=0.60,
                   drop_token=0.06, extra_token=0.12, reorder=0.60,
                   drop_attr=0.05)
# Walmart-Amazon: widest schema, most missing/contradictory attributes —
# structured fields are absent half the time (real catalog extraction is
# that lossy), so the matching evidence lives mostly in title/description.
HARD_WIDE = NoiseConfig(typo=0.05, abbrev=0.65, nickname=0.10, synonym=0.65,
                        drop_token=0.10, extra_token=0.14, reorder=0.65,
                        drop_attr=0.12,
                        null_heavy=("model", "brand", "category2", "color",
                                    "weight", "dimensions", "material",
                                    "voltage", "capacity", "warranty",
                                    "origin"),
                        drop_attr_heavy=0.55)


def _typo(word: str, rng: np.random.Generator) -> str:
    if len(word) < 3:
        return word
    op = rng.integers(0, 3)
    i = int(rng.integers(1, len(word) - 1))
    if op == 0:  # delete
        return word[:i] + word[i + 1:]
    if op == 1:  # transpose
        return word[:i] + word[i + 1] + word[i] + word[i + 2:] if i + 1 < len(word) else word
    return word[:i] + _pick(rng, _ALPHABET) + word[i + 1:]  # substitute


def corrupt_value(value: str, cfg: NoiseConfig, rng: np.random.Generator) -> str:
    """Apply the token-level noise channel to one attribute value."""
    if value is None:
        return value
    tokens = str(value).split()
    out: list[str] = []
    for t in tokens:
        low = t.lower()
        if low in _REV_NICK and rng.random() < cfg.nickname:
            t = _pick(rng, _REV_NICK[low])
        elif low in _REV_ABBREV and rng.random() < cfg.abbrev:
            t = _pick(rng, _REV_ABBREV[low])
        elif low in _REV_SYN and rng.random() < cfg.synonym:
            t = _pick(rng, _REV_SYN[low])
        elif rng.random() < cfg.typo:
            t = _typo(t, rng)
        if rng.random() < cfg.drop_token and len(tokens) > 1:
            continue
        out.append(t)
        if rng.random() < cfg.extra_token:
            out.append(_pick(rng, _EXTRA_TOKENS))
    if not out:
        out = tokens[:1]
    if len(out) > 2 and rng.random() < cfg.reorder:
        order = rng.permutation(len(out))
        out = [out[i] for i in order]
    return " ".join(out)


def corrupt_row(row: dict, attrs: list[str], cfg: NoiseConfig,
                rng: np.random.Generator) -> dict:
    """Corrupt the ``attrs`` of a record: per-attribute NULLing plus
    token-level noise. Every other field (the id) is copied unchanged."""
    out = dict(row)
    for a in attrs:
        rate = cfg.drop_attr_heavy if a in cfg.null_heavy else cfg.drop_attr
        if a in NEVER_NULL:
            rate = 0.0
        if rng.random() < rate:
            out[a] = None
        else:
            out[a] = corrupt_value(out[a], cfg, rng)
    return out
