"""The six Table-3-shaped benchmark datasets.

Each dataset is a pair of tables (A, B) with aligned attributes and a
ground-truth match set. B contains (a) corrupted copies of some A records
(the matches), (b) fresh entities, and (c) *near-miss* entities derived from
A records by swapping a discriminative token — hard negatives that create
the precision pressure real product/citation data has.

Sizes are the paper's Table 3 scaled to CPU-trainable sizes (exact scale
factors recorded in EXPERIMENTS.md); Fodors-Zagat is kept at its real
size (533/331/112) since it is already tiny.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.er_data import corrupt as cr
from repro.er_data import entities as ent
from repro.er_data.entities import _pick


@dataclass
class ERDataset:
    name: str
    tier: str  # "easy" | "hard"
    attributes: list[str]
    table_a: pd.DataFrame  # columns: id + attributes
    table_b: pd.DataFrame
    matches: set = field(default_factory=set)  # {(id_a, id_b)}

    @property
    def n_a(self) -> int:
        return len(self.table_a)

    @property
    def n_b(self) -> int:
        return len(self.table_b)

    @property
    def n_matches(self) -> int:
        return len(self.matches)

    def id_pairs(self, ij: np.ndarray) -> set:
        """``{(id_a, id_b)}`` of ``(n, 2)`` row-index pairs into ``table_a``
        and ``table_b``, as blocking returns them; ``matches`` is keyed
        the same way."""
        return set(zip(self.table_a["id"].to_numpy()[ij[:, 0]].tolist(),
                       self.table_b["id"].to_numpy()[ij[:, 1]].tolist()))

    def row_pairs(self, pairs) -> np.ndarray:
        """``(n, 2)`` row indices of ``(id_a, id_b)`` pairs, the inverse of
        :meth:`id_pairs`: ``ValueError`` if a table repeats an id (a row
        would be a guess), ``KeyError`` for an id it does not hold."""
        ids = np.asarray(list(pairs), dtype=object).reshape(-1, 2)
        ij = np.empty(ids.shape, np.intp)
        for k, table in enumerate((self.table_a, self.table_b)):
            index = pd.Index(table["id"])
            if not index.is_unique:
                dup = index[index.duplicated()].unique().tolist()[:5]
                raise ValueError(f"duplicate ids in table {'AB'[k]}: {dup}")
            ij[:, k] = index.get_indexer(ids[:, k])
            if (ij[:, k] < 0).any():
                raise KeyError(ids[np.argmax(ij[:, k] < 0), k])
        return ij


# name -> (domain generator kwargs, sizes, tier, noise config)
SPECS: dict[str, dict] = {
    # Easy citation benchmarks (paper: DBLP-ACM 2616/2294/2224).
    "pub_da": dict(domain="citation", n_a=640, n_b=580, n_matches=500,
                   tier="easy", noise=cr.EASY, near_frac=0.10),
    # DBLP-Scholar (paper 2616/64263/5347): scraped side is noisier.
    "pub_ds": dict(domain="citation", n_a=640, n_b=1600, n_matches=520,
                   tier="easy", noise=cr.EASY_NOISY, near_frac=0.12),
    # DBLP-Citeseer (paper 1.8M/2.5M/559k, scaled ~1000x down).
    "pub_dc": dict(domain="citation", n_a=1800, n_b=2500, n_matches=560,
                   tier="easy", noise=cr.EASY_ABBREV, near_frac=0.10),
    # Amazon-Google (paper 1363/3226/1300): challenging products.
    "prod_ag": dict(domain="product", n_attrs=5, n_a=680, n_b=1600,
                    n_matches=600, tier="hard", noise=cr.HARD,
                    near_frac=0.18),
    # Walmart-Amazon (paper 2554/22074/1154, 17 attrs): hardest.
    "prod_wa": dict(domain="product", n_attrs=17, n_a=640, n_b=1400,
                    n_matches=300, tier="hard", noise=cr.HARD_WIDE,
                    near_frac=0.18),
    # Fodors-Zagat (paper 533/331/112): kept at real size, trivial noise.
    "rest_fz": dict(domain="restaurant", n_a=533, n_b=331, n_matches=112,
                    tier="easy", noise=cr.TRIVIAL, near_frac=0.05),
}

DATASET_KEYS = list(SPECS)

_GEN = {
    "citation": lambda rng, n, spec: ent.citations(rng, n),
    "product": lambda rng, n, spec: ent.products(rng, n, n_attrs=spec.get("n_attrs", 5)),
    "restaurant": lambda rng, n, spec: ent.restaurants(rng, n),
}

# Attribute whose token swap turns a record into a guaranteed non-match.
_KEY_ATTR = {"citation": "title", "product": "title", "restaurant": "name"}
# the two letters that start a near miss's fresh model number
_MODEL_HEADS, _MODEL_TAILS = list("qzxv"), list("kmpt")


def _near_miss(row: dict, attrs: list[str], domain: str,
               rng: np.random.Generator) -> dict:
    """Derive a hard negative: same entity context, one discriminative
    difference (different model number / title words / name)."""
    out = dict(row)
    key = _KEY_ATTR[domain]
    toks = str(out[key]).split()
    if domain == "product":
        # swap the model number (last token) and one adjective
        toks[-1] = f"{_pick(rng, _MODEL_HEADS)}{_pick(rng, _MODEL_TAILS)}{rng.integers(100, 999)}"
        if len(toks) > 3:
            i = int(rng.integers(1, len(toks) - 2))
            toks[i] = _pick(rng, ent.lx.PRODUCT_ADJS)
    else:
        # replace ~half the words so it is a different title/name
        n_swap = max(1, len(toks) // 2)
        pool = ent.lx.TOPIC_WORDS if domain == "citation" else ent.lx.RESTAURANT_WORDS
        for i in rng.choice(len(toks), size=min(n_swap, len(toks)), replace=False):
            toks[int(i)] = _pick(rng, pool)
    out[key] = " ".join(toks)
    if domain == "citation" and "year" in out:
        out["year"] = str(int(out["year"]) + int(rng.integers(1, 4)))
    if domain == "restaurant":
        # a different restaurant has its own phone, street number, zipcode
        if "phone" in out:
            out["phone"] = f"{rng.integers(200, 999)}-{rng.integers(200, 999)}-{rng.integers(1000, 9999)}"
        if "address" in out:
            at = str(out["address"]).split()
            at[0] = str(rng.integers(1, 9999))
            out["address"] = " ".join(at)
        if "zipcode" in out:
            out["zipcode"] = f"{rng.integers(10000, 99999)}"
    if domain == "product":
        # a different product has its own model number, price, and
        # partially different marketing copy
        if "model" in out:
            out["model"] = toks[-1]  # the fresh model number from the title
        if "price" in out:
            out["price"] = f"{rng.uniform(9, 900):.2f}"
        if "description" in out:
            dt = str(out["description"]).split()
            for i in rng.choice(len(dt), size=min(3, len(dt)), replace=False):
                dt[int(i)] = _pick(rng, ent.lx.PRODUCT_ADJS)
            out["description"] = " ".join(dt)
        _resample_source_ids(out, rng)
    return out


def _resample_source_ids(row: dict, rng: np.random.Generator) -> None:
    """Source-specific identifiers (sku/upc) are assigned per catalog — two
    listings of the *same* product in different stores carry unrelated IDs,
    so matched B rows get fresh ones (and so do near-miss products)."""
    if "sku" in row:
        row["sku"] = f"{rng.integers(10_000_000, 99_999_999)}"
    if "upc" in row:
        row["upc"] = f"{rng.integers(100_000_000, 999_999_999)}"
    if "model" in row and rng.random() < 0.5:
        # stores frequently list variant model codes
        row["model"] = str(row["model"]) + _pick(rng, ["a", "b", "x"])


def load(key: str, *, seed: int = 0, scale: float = 1.0) -> ERDataset:
    """Build dataset ``key`` deterministically. ``scale`` multiplies all
    sizes (unit tests use scale<1 for speed)."""
    spec = SPECS[key]
    # zlib.crc32: deterministic across processes (str hash() is salted)
    rng = np.random.default_rng(seed + zlib.crc32(key.encode()))
    n_a = max(8, int(spec["n_a"] * scale))
    n_b = max(8, int(spec["n_b"] * scale))
    n_m = min(max(4, int(spec["n_matches"] * scale)), n_a, n_b)
    noise: cr.NoiseConfig = spec["noise"]
    domain = spec["domain"]

    a = _GEN[domain](rng, n_a, spec)
    attrs = list(a.columns)
    a.insert(0, "id", [f"a{i:05d}" for i in range(n_a)])

    # matched B rows: corrupted copies of the first n_m A entities
    match_idx = rng.choice(n_a, size=n_m, replace=False)
    b_rows: list[dict] = []
    matches: set[tuple[str, str]] = set()
    a_rows = a.to_dict("records")
    for j, ai in enumerate(match_idx.tolist()):
        row = {k: a_rows[ai][k] for k in attrs}
        if domain == "product":
            _resample_source_ids(row, rng)  # IDs differ across catalogs
            if "price" in row:  # stores price the same product differently
                row["price"] = f"{float(row['price']) * rng.uniform(0.75, 1.3):.2f}"
        b_rows.append(cr.corrupt_row(row, attrs, noise, rng))
        matches.add((a_rows[ai]["id"], f"b{j:05d}"))

    # near-miss hard negatives + fresh entities fill the rest of B
    n_rest = n_b - n_m
    n_near = int(n_rest * spec["near_frac"])
    for _ in range(n_near):
        ai = int(rng.integers(0, n_a))
        row = {k: a_rows[ai][k] for k in attrs}
        b_rows.append(cr.corrupt_row(_near_miss(row, attrs, domain, rng),
                                     attrs, noise, rng))
    fresh = _GEN[domain](rng, n_rest - n_near, spec)
    for row in fresh.to_dict("records"):
        b_rows.append(cr.corrupt_row(row, attrs, noise, rng))

    b = pd.DataFrame(b_rows, columns=attrs)
    b.insert(0, "id", [f"b{i:05d}" for i in range(len(b))])
    # shuffle B so matched rows are not a prefix
    perm = rng.permutation(len(b))
    b = b.iloc[perm].reset_index(drop=True)

    return ERDataset(name=key, tier=spec["tier"], attributes=attrs,
                     table_a=a, table_b=b, matches=matches)


def to_spark(spark: SparkSession, ds: ERDataset) -> tuple[DataFrame, DataFrame]:
    """Materialize both tables as Spark DataFrames (all-string columns)."""
    def conv(pdf: pd.DataFrame) -> DataFrame:
        clean = pdf.copy()
        for c in clean.columns:
            clean[c] = clean[c].map(lambda v: None if v is None or
                                    (isinstance(v, float) and np.isnan(v))
                                    else str(v))
        return spark.createDataFrame(clean)

    return conv(ds.table_a), conv(ds.table_b)
