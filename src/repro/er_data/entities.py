"""Clean entity generators for the three benchmark domains.

Each generator returns a ``pd.DataFrame`` of *clean* records; the noise
channel in ``corrupt.py`` derives the B-side (and duplicates) from them.
Pools come from the shared lexicon so the synthetic "pre-trained"
dictionaries cover exactly the kind of language these datasets use.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.embeddings import lexicon as lx

_MODEL_LETTERS = list("abcdefghjkmnprstvwxz")


def _pick(rng: np.random.Generator, seq):
    """One uniform draw from ``seq``, returned as its own element (a
    ``str`` stays a ``str``). On numpy's ``Generator`` this consumes the
    same stream as ``rng.choice(seq)``, which ``tests/test_pick_stream.py``
    pins, at a fifth of the cost: ``choice`` converts ``seq`` to an array
    first."""
    return seq[rng.integers(0, len(seq))]


def _person(rng: np.random.Generator) -> str:
    return f"{_pick(rng, lx.FIRST_NAMES)} {_pick(rng, lx.LAST_NAMES)}"


def _model_number(rng: np.random.Generator) -> str:
    letters = "".join(rng.choice(_MODEL_LETTERS, size=2))
    return f"{letters}{rng.integers(100, 999)}"


def citations(rng: np.random.Generator, n: int) -> pd.DataFrame:
    """4 attributes, matching the citation benchmarks: title, authors,
    venue, year."""
    rows = []
    for _ in range(n):
        k = int(rng.integers(4, 9))
        words = list(rng.choice(lx.TOPIC_WORDS, size=k, replace=False))
        # ~a third of title words are technical jargon from the Zipfian
        # tail — present in a Common-Crawl-sized dictionary, missing from
        # a Wikipedia-sized one (drives Table 5's steep drop)
        n_rare = int(rng.integers(max(1, k // 3), 2 * k // 3 + 1))
        rare = rng.choice(lx.RARE_TOPIC_WORDS, size=n_rare, replace=False)
        for slot, w in zip(rng.choice(k, size=n_rare, replace=False), rare):
            words[int(slot)] = str(w)
        title = " ".join(words)
        authors = ", ".join(_person(rng) for _ in range(int(rng.integers(1, 4))))
        acro = _pick(rng, lx.VENUES)
        style = rng.integers(0, 3)
        if style == 0:
            venue = f"proceedings of the {acro} international conference"
        elif style == 1:
            venue = f"{acro} {_pick(rng, lx.VENUE_WORDS)} {_pick(rng, lx.VENUE_WORDS)}"
        else:
            venue = acro
        year = int(rng.integers(1990, 2018))
        rows.append({"title": title, "authors": authors, "venue": venue,
                     "year": str(year)})
    return pd.DataFrame(rows)


def products(rng: np.random.Generator, n: int, *, n_attrs: int = 5) -> pd.DataFrame:
    """Product records. ``n_attrs=5`` mirrors Amazon-Google (title,
    description, manufacturer, price, category); ``n_attrs=17`` mirrors
    Walmart-Amazon's wide schema (extra structured attributes, several of
    which are IDs — the OOV-heavy case)."""
    rows = []
    for _ in range(n):
        brand = _pick(rng, lx.BRANDS)
        noun = _pick(rng, lx.PRODUCT_NOUNS)
        model = _model_number(rng)
        adjs = rng.choice(lx.PRODUCT_ADJS, size=int(rng.integers(1, 4)),
                          replace=False)
        title = f"{brand} {' '.join(adjs)} {noun} {model}"
        k = int(rng.integers(8, 18))
        desc = " ".join(rng.choice(lx.PRODUCT_ADJS + lx.PRODUCT_NOUNS,
                                   size=k, replace=False))
        desc += f" {rng.integers(1, 64)} {_pick(rng, lx.PRODUCT_UNITS)}"
        price = round(float(rng.uniform(9, 900)), 2)
        row = {
            "title": title,
            "description": desc,
            "manufacturer": brand,
            "price": f"{price:.2f}",
            "category": noun,
        }
        if n_attrs > 5:
            extra = {
                "brand": brand,
                "model": model,
                "category2": _pick(rng, lx.PRODUCT_NOUNS),
                "color": _pick(rng, ["black", "white", "silver", "grey",
                                     "blue", "red"]),
                "weight": f"{rng.uniform(0.2, 20):.1f} kg",
                "dimensions": f"{rng.integers(5, 90)} x {rng.integers(5, 90)} x {rng.integers(2, 40)} cm",
                "material": _pick(rng, ["plastic", "steel", "aluminum",
                                        "glass", "carbon"]),
                "voltage": f"{_pick(rng, [5, 12, 110, 220])} volt",
                "capacity": f"{_pick(rng, [16, 32, 64, 128, 256, 512])} gb",
                "warranty": f"{rng.integers(1, 4)} year",
                "origin": _pick(rng, ["china", "japan", "germany", "usa",
                                      "korea", "taiwan"]),
                "sku": f"{rng.integers(10_000_000, 99_999_999)}",
                "upc": f"{rng.integers(100_000_000, 999_999_999)}",
            }
            row.update(dict(list(extra.items())[: n_attrs - 5]))
        rows.append(row)
    return pd.DataFrame(rows)


def restaurants(rng: np.random.Generator, n: int) -> pd.DataFrame:
    """7 attributes, matching Fodors-Zagat: name, address, city, phone,
    cuisine, category, zipcode."""
    rows = []
    for _ in range(n):
        style = rng.integers(0, 3)
        if style == 0:
            name = f"{_pick(rng, lx.RESTAURANT_WORDS)} {_pick(rng, lx.CUISINES)} {_pick(rng, lx.RESTAURANT_WORDS)}"
        elif style == 1:
            name = f"{_pick(rng, lx.LAST_NAMES)}'s {_pick(rng, lx.CUISINES)} {_pick(rng, ['restaurant', 'kitchen', 'grill', 'cafe'])}"
        else:
            name = f"{_pick(rng, ['the', 'casa', 'chez'])} {_pick(rng, lx.RESTAURANT_WORDS)} {_pick(rng, lx.RESTAURANT_WORDS)}"
        addr = f"{rng.integers(1, 9999)} {_pick(rng, lx.STREET_WORDS)} {_pick(rng, ['street', 'avenue', 'boulevard', 'road', 'drive'])}"
        city = _pick(rng, lx.CITIES)
        phone = f"{rng.integers(200, 999)}-{rng.integers(200, 999)}-{rng.integers(1000, 9999)}"
        cuisine = _pick(rng, lx.CUISINES)
        category = _pick(rng, ["casual", "fine dining", "fast food",
                               "family", "bar"])
        zipcode = f"{rng.integers(10000, 99999)}"
        rows.append({"name": name, "address": addr, "city": city,
                     "phone": phone, "cuisine": cuisine,
                     "category": category, "zipcode": zipcode})
    return pd.DataFrame(rows)
