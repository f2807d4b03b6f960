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


def _person(rng: np.random.Generator) -> str:
    return f"{rng.choice(lx.FIRST_NAMES)} {rng.choice(lx.LAST_NAMES)}"


def _model_number(rng: np.random.Generator) -> str:
    letters = "".join(rng.choice(list("abcdefghjkmnprstvwxz"), size=2))
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
        acro = rng.choice(lx.VENUES)
        style = rng.integers(0, 3)
        if style == 0:
            venue = f"proceedings of the {acro} international conference"
        elif style == 1:
            venue = f"{acro} {rng.choice(lx.VENUE_WORDS)} {rng.choice(lx.VENUE_WORDS)}"
        else:
            venue = str(acro)
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
        brand = rng.choice(lx.BRANDS)
        noun = rng.choice(lx.PRODUCT_NOUNS)
        model = _model_number(rng)
        adjs = rng.choice(lx.PRODUCT_ADJS, size=int(rng.integers(1, 4)),
                          replace=False)
        title = f"{brand} {' '.join(adjs)} {noun} {model}"
        k = int(rng.integers(8, 18))
        desc = " ".join(rng.choice(lx.PRODUCT_ADJS + lx.PRODUCT_NOUNS,
                                   size=k, replace=False))
        desc += f" {rng.integers(1, 64)} {rng.choice(lx.PRODUCT_UNITS)}"
        price = round(float(rng.uniform(9, 900)), 2)
        row = {
            "title": title,
            "description": desc,
            "manufacturer": str(brand),
            "price": f"{price:.2f}",
            "category": str(noun),
        }
        if n_attrs > 5:
            extra = {
                "brand": str(brand),
                "model": model,
                "category2": rng.choice(lx.PRODUCT_NOUNS),
                "color": rng.choice(["black", "white", "silver", "grey",
                                     "blue", "red"]),
                "weight": f"{rng.uniform(0.2, 20):.1f} kg",
                "dimensions": f"{rng.integers(5, 90)} x {rng.integers(5, 90)} x {rng.integers(2, 40)} cm",
                "material": rng.choice(["plastic", "steel", "aluminum",
                                        "glass", "carbon"]),
                "voltage": f"{rng.choice([5, 12, 110, 220])} volt",
                "capacity": f"{rng.choice([16, 32, 64, 128, 256, 512])} gb",
                "warranty": f"{rng.integers(1, 4)} year",
                "origin": rng.choice(["china", "japan", "germany", "usa",
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
            name = f"{rng.choice(lx.RESTAURANT_WORDS)} {rng.choice(lx.CUISINES)} {rng.choice(lx.RESTAURANT_WORDS)}"
        elif style == 1:
            name = f"{rng.choice(lx.LAST_NAMES)}'s {rng.choice(lx.CUISINES)} {rng.choice(['restaurant', 'kitchen', 'grill', 'cafe'])}"
        else:
            name = f"{rng.choice(['the', 'casa', 'chez'])} {rng.choice(lx.RESTAURANT_WORDS)} {rng.choice(lx.RESTAURANT_WORDS)}"
        addr = f"{rng.integers(1, 9999)} {rng.choice(lx.STREET_WORDS)} {rng.choice(['street', 'avenue', 'boulevard', 'road', 'drive'])}"
        city = rng.choice(lx.CITIES)
        phone = f"{rng.integers(200, 999)}-{rng.integers(200, 999)}-{rng.integers(1000, 9999)}"
        cuisine = rng.choice(lx.CUISINES)
        category = rng.choice(["casual", "fine dining", "fast food",
                               "family", "bar"])
        zipcode = f"{rng.integers(10000, 99999)}"
        rows.append({"name": name, "address": addr, "city": str(city),
                     "phone": phone, "cuisine": str(cuisine),
                     "category": str(category), "zipcode": zipcode})
    return pd.DataFrame(rows)
