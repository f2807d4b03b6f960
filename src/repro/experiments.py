"""Table harnesses: one function per evaluation table of the paper.

Each ``tableN_rows`` returns rows carrying both the paper's published
number and our measured number, so the printed table is a direct diff.
``jobs/`` wraps these as spark-submit entrypoints; ``benchmarks/`` wraps
them under pytest-benchmark and writes ``results/tableN.md``.

Protocol (see DESIGN.md §5 for the scale-down rationale): AVG composition,
glove840-like dictionary, d=64, 3-fold stratified CV, 1:20 negatives,
seed 0. Tables 5–7 run at scale 0.5 to keep the bench under a few minutes.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from pyspark.sql import SparkSession

from repro.blocking import (
    candidate_pairs_np,
    lsh_codes_np,
    multiprobe_topn_candidates,
    pair_completeness,
    random_hyperplanes,
    reduction_ratio,
)
from repro.core import DeepERConfig, evaluate_deeper, evaluate_magellan
from repro.core.compose import avg_tuple_matrix
from repro.embeddings import glove840
from repro.er_data import DATASET_KEYS, SPECS, load
from repro.er_data.bio import load_bio
from repro.er_data.translate import translate_dataset

BASE_CFG = DeepERConfig(folds=3, neg_ratio=20, d=64, seed=0)

# Published numbers, transcribed from the paper ------------------------------
PAPER_T3 = {  # (#tuples_a, #tuples_b, #matches, #attrs)
    "prod_wa": (2_554, 22_074, 1_154, 17),
    "prod_ag": (1_363, 3_226, 1_300, 5),
    "pub_da": (2_616, 2_294, 2_224, 4),
    "pub_ds": (2_616, 64_263, 5_347, 4),
    "pub_dc": (1_823_978, 2_512_927, 558_787, 4),
    "rest_fz": (533, 331, 112, 7),
}
PAPER_T4 = {  # (magellan, deeper, published-best "other")
    "prod_wa": (82.99, 88.06, "89.3 (Crowd)"),
    "prod_ag": (87.68, 96.03, "62.2 (ML)"),
    "pub_da": (97.60, 98.60, "N/A"),
    "pub_ds": (98.84, 97.67, "92.1 (Crowd)"),
    "pub_dc": (96.40, 99.10, "95.2 (Crowd)"),
    "rest_fz": (100.0, 100.0, "96.5 (Crowd)"),
}
PAPER_T5 = {  # (glove840, glove_wiki)
    "pub_da": (98.60, 82.10), "pub_ds": (97.67, 77.80),
    "pub_dc": (99.10, 79.20), "prod_wa": (88.06, 77.40),
    "prod_ag": (96.03, 87.20), "rest_fz": (100.0, 91.20),
}
PAPER_T6 = {  # (glove, word2vec, fasttext)
    "pub_da": (98.60, 97.90, 98.20), "pub_ds": (97.60, 96.90, 97.20),
    "pub_dc": (99.10, 99.00, 99.00), "prod_wa": (88.06, 86.10, 88.89),
    "prod_ag": (96.03, 95.10, 95.70), "rest_fz": (100.0, 100.0, 100.0),
}
PAPER_T7 = {  # (english, spanish)
    "prod_ag": (96.03, 89.10), "rest_fz": (100.0, 92.60),
    "pub_ds": (97.67, 88.10),
}
PAPER_BIO = {"deeper": 87.4, "state_of_the_art": 83.9}

T4_ORDER = ["prod_wa", "prod_ag", "pub_da", "pub_ds", "pub_dc", "rest_fz"]


# ---------------------------------------------------------------- tables ---

def table3_rows(scale: float = 1.0) -> list[dict]:
    """Dataset statistics: paper's Table 3 vs our (scaled) generators."""
    rows = []
    for key in T4_ORDER:
        ds = load(key, scale=scale)
        pa, pb, pm, pattr = PAPER_T3[key]
        rows.append({
            "dataset": key, "tier": ds.tier,
            "paper_tuples": f"{pa:,} - {pb:,}", "paper_matches": pm,
            "paper_attrs": pattr,
            "ours_tuples": f"{ds.n_a:,} - {ds.n_b:,}",
            "ours_matches": ds.n_matches,
            "ours_attrs": len(ds.attributes),
        })
    return rows


def table4_rows(scale: float = 1.0, cfg: DeepERConfig = BASE_CFG,
                spark: SparkSession | None = None) -> list[dict]:
    """DeepER vs Magellan-lite F1 on all six datasets. With ``spark``, the
    tuple-DR computation runs as a distributed mapInPandas dataflow."""
    rows = []
    for key in T4_ORDER:
        ds = load(key, scale=scale)
        d = evaluate_deeper(ds, cfg, spark=spark)
        m = evaluate_magellan(ds, cfg)
        pm, pd_, pub = PAPER_T4[key]
        rows.append({
            "dataset": key,
            "paper_magellan": pm, "paper_deeper": pd_, "paper_published": pub,
            "ours_magellan": round(m["f1"] * 100, 2),
            "ours_deeper": round(d["f1"] * 100, 2),
        })
    return rows


def table5_rows(scale: float = 0.5, cfg: DeepERConfig = BASE_CFG) -> list[dict]:
    """Impact of the embedding dictionary (big corpus vs Wikipedia-sized),
    with vocabulary retrofitting for OOV words, per §5.3."""
    rows = []
    for key in T4_ORDER:
        ds = load(key, scale=scale)
        full = evaluate_deeper(ds, replace(cfg, dictionary="glove840",
                                           use_retrofit=True))
        wiki = evaluate_deeper(ds, replace(cfg, dictionary="glove_wiki",
                                           use_retrofit=True))
        pg, pw = PAPER_T5[key]
        rows.append({
            "dataset": key, "paper_glove": pg, "paper_glove_wiki": pw,
            "ours_glove": round(full["f1"] * 100, 2),
            "ours_glove_wiki": round(wiki["f1"] * 100, 2),
        })
    return rows


def table6_rows(scale: float = 0.5, cfg: DeepERConfig = BASE_CFG) -> list[dict]:
    """Impact of the embedding model family (GloVe / word2vec / fastText)."""
    rows = []
    for key in T4_ORDER:
        ds = load(key, scale=scale)
        ours = {}
        for dic in ("glove840", "word2vec", "fasttext"):
            r = evaluate_deeper(ds, replace(cfg, dictionary=dic,
                                            use_retrofit=True))
            ours[dic] = round(r["f1"] * 100, 2)
        pg, pw, pf = PAPER_T6[key]
        rows.append({
            "dataset": key, "paper_glove": pg, "paper_word2vec": pw,
            "paper_fasttext": pf, "ours_glove": ours["glove840"],
            "ours_word2vec": ours["word2vec"],
            "ours_fasttext": ours["fasttext"],
        })
    return rows


def table7_rows(scale: float = 0.5, cfg: DeepERConfig = BASE_CFG) -> list[dict]:
    """Multilingual ER: English vs (synthetically translated) Spanish."""
    rows = []
    for key in ("prod_ag", "rest_fz", "pub_ds"):
        ds = load(key, scale=scale)
        en = evaluate_deeper(ds, cfg)
        es = evaluate_deeper(translate_dataset(ds),
                             replace(cfg, dictionary="spanish"))
        pe, ps = PAPER_T7[key]
        rows.append({
            "dataset": key, "paper_english": pe, "paper_spanish": ps,
            "ours_english": round(en["f1"] * 100, 2),
            "ours_spanish": round(es["f1"] * 100, 2),
        })
    return rows


def bio_rows(cfg: DeepERConfig = BASE_CFG) -> list[dict]:
    """§5.2 'other domains': nucleotide dedup — DeepER (bio dictionary)
    vs the hand-crafted-feature ML baseline."""
    ds = load_bio()
    d = evaluate_deeper(ds, replace(cfg, dictionary="bio"))
    m = evaluate_magellan(ds, cfg)
    return [{
        "benchmark": "nucleotide (21-organism analog)",
        "paper_deeper": PAPER_BIO["deeper"],
        "paper_state_of_the_art": PAPER_BIO["state_of_the_art"],
        "ours_deeper": round(d["f1"] * 100, 2),
        "ours_handcrafted_ml": round(m["f1"] * 100, 2),
    }]


def blocking_sweep_rows(scale: float = 0.5, d: int = 64,
                        seed: int = 11) -> list[dict]:
    """Figure 10-shaped sweep (bonus): PC and RR as K and L vary, on
    Prod-AG and Pub-DS, using the same DR + random-hyperplane machinery as
    the Spark blocker (driver-side for the 20-point sweep)."""
    rows = []
    for key in ("prod_ag", "pub_ds"):
        ds = load(key, scale=scale)
        dic = glove840(d)
        va = avg_tuple_matrix(ds.table_a, ds.attributes, dic)
        vb = avg_tuple_matrix(ds.table_b, ds.attributes, dic)
        row_a = {t: i for i, t in enumerate(ds.table_a["id"])}
        row_b = {t: i for i, t in enumerate(ds.table_b["id"])}
        matches = {(row_a[a], row_b[b]) for a, b in ds.matches}
        dim = va.shape[1]

        def pc_rr(K, L):
            planes = random_hyperplanes(dim, K, L, seed=seed)
            cands = candidate_pairs_np(lsh_codes_np(va, planes),
                                       lsh_codes_np(vb, planes))
            return (pair_completeness(cands, matches),
                    reduction_ratio(len(cands), len(va), len(vb)))

        for K in range(1, 11):
            pc, rr = pc_rr(K, 10)
            rows.append({"dataset": key, "sweep": "K (L=10)", "value": K,
                         "pc": round(pc, 3), "rr": round(rr, 3)})
        for L in range(1, 11):
            pc, rr = pc_rr(4, L)
            rows.append({"dataset": key, "sweep": "L (K=4)", "value": L,
                         "pc": round(pc, 3), "rr": round(rr, 3)})
    return rows


def multiprobe_rows(scale: float = 0.5, d: int = 64) -> list[dict]:
    """Figure 12-shaped sweep (bonus): recall of multi-probe LSH with a
    single hash table (K=10, L=1) at varying top-N, and the candidate pairs
    kept — the classifier invocations that top-N bounds."""
    ds = load("prod_ag", scale=scale)
    dic = glove840(d)
    va = avg_tuple_matrix(ds.table_a, ds.attributes, dic)
    vb = avg_tuple_matrix(ds.table_b, ds.attributes, dic)
    row_a = {t: i for i, t in enumerate(ds.table_a["id"])}
    row_b = {t: i for i, t in enumerate(ds.table_b["id"])}
    matches = {(row_a[a], row_b[b]) for a, b in ds.matches}
    planes = random_hyperplanes(va.shape[1], K=10, L=1, seed=2)
    rows = []
    for top_n in (10, 20, 30, 50):
        for probes in (0, 1, 2):
            cand = multiprobe_topn_candidates(va, vb, planes,
                                              n_probes=probes, top_n=top_n)
            rows.append({"top_n": top_n, "probes": probes,
                         "recall": round(pair_completeness(cand, matches), 3),
                         "candidates": len(cand)})
    return rows


# ------------------------------------------------------------- formatting --

def format_table(rows: list[dict], title: str) -> str:
    if not rows:
        return f"## {title}\n(no rows)\n"
    cols = list(rows[0])
    widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
              for c in cols}
    head = " | ".join(str(c).ljust(widths[c]) for c in cols)
    sep = "-|-".join("-" * widths[c] for c in cols)
    body = "\n".join(" | ".join(str(r[c]).ljust(widths[c]) for c in cols)
                     for r in rows)
    return f"## {title}\n{head}\n{sep}\n{body}\n"


def write_result(name: str, text: str) -> Path:
    out = Path(__file__).resolve().parents[2] / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{name}.md"
    path.write_text(text)
    return path
