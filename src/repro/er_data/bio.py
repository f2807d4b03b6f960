"""Synthetic nucleotide-record benchmark (§5.2 "Evaluating DeepER for
Other Domains").

The paper deduplicates a nucleotide database of the 21 most-studied
organisms, assuming "an appropriate dictionary for biomedical embeddings".
We synthesize records with (organism, gene, description, sequence) where the
sequence attribute is a DNA string rendered as overlapping k-mer "words" —
the representation used by dna2vec-style sequence embeddings, which our
``bio_dict`` dictionary stands in for. Duplicates are submissions of the
same sequence with point mutations and re-worded metadata.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.er_data.datasets import ERDataset
from repro.er_data.entities import _pick

ORGANISMS = [
    "homo sapiens", "mus musculus", "rattus norvegicus", "danio rerio",
    "drosophila melanogaster", "caenorhabditis elegans", "gallus gallus",
    "bos taurus", "sus scrofa", "canis familiaris", "xenopus laevis",
    "arabidopsis thaliana", "oryza sativa", "zea mays", "glycine max",
    "saccharomyces cerevisiae", "escherichia coli", "bacillus subtilis",
    "pseudomonas aeruginosa", "mycobacterium tuberculosis", "ovis aries",
]

_BASES = np.array(list("acgt"))
_GENE_LETTERS = list("abcdehklmnprst")

_DESC_WORDS = ["partial", "complete", "coding", "sequence", "mrna", "gene",
               "chromosome", "clone", "isolate", "strain", "variant",
               "predicted", "putative", "hypothetical", "protein",
               "ribosomal", "mitochondrial", "genomic", "region", "locus"]

SEQ_LEN = 80
MUTATION_RATE = 0.12
KMER, STRIDE = 8, 4  # a sequence is rendered as its 8-mers at every 4th base


def _kmers(seq: str) -> str:
    return " ".join(seq[i:i + KMER]
                    for i in range(0, len(seq) - KMER + 1, STRIDE))


def _mutate(seq: str, rng: np.random.Generator) -> str:
    chars = np.array(list(seq))
    n_mut = max(1, int(len(chars) * MUTATION_RATE))
    idx = rng.choice(len(chars), size=n_mut, replace=False)
    chars[idx] = rng.choice(_BASES, size=n_mut)
    return "".join(chars)


def load_bio(*, n_a: int = 420, n_b: int = 420, n_matches: int = 180,
             seed: int = 0) -> ERDataset:
    """Two 'submission batches' of nucleotide records with known duplicates.

    ``MUTATION_RATE`` is chosen so that most k-mers of a duplicate pair
    differ by at least one base: symbolic token overlap collapses (a
    mutated k-mer is a *different token*), while subword-heavy sequence
    embeddings degrade gracefully — the reason the paper's DeepER beats
    hand-crafted features on this benchmark.
    """
    rng = np.random.default_rng(seed + 777)

    def gene_name():
        return f"{''.join(rng.choice(_GENE_LETTERS, size=3))}{rng.integers(1, 99)}"

    def record():
        seq = "".join(rng.choice(_BASES, size=SEQ_LEN))
        return {
            "organism": _pick(rng, ORGANISMS),
            "gene": gene_name(),
            "description": " ".join(rng.choice(_DESC_WORDS, size=5,
                                               replace=False)),
            "sequence": seq,
        }

    a_rows = [record() for _ in range(n_a)]
    b_rows: list[dict] = []
    matches: set[tuple[str, str]] = set()
    midx = rng.choice(n_a, size=n_matches, replace=False)
    for j, ai in enumerate(midx):
        r = dict(a_rows[int(ai)])
        r["sequence"] = _mutate(r["sequence"], rng)
        r["description"] = " ".join(rng.choice(_DESC_WORDS, size=5,
                                               replace=False))
        if rng.random() < 0.4:
            r["gene"] = None  # submissions frequently lack the gene label
        b_rows.append(r)
        matches.add((f"a{int(ai):05d}", f"b{j:05d}"))
    # near-miss negatives: same organism and gene family, different sequence
    n_rest = n_b - n_matches
    n_near = int(n_rest * 0.3)
    for _ in range(n_near):
        src = a_rows[int(rng.integers(0, n_a))]
        r = dict(src)
        r["sequence"] = "".join(rng.choice(_BASES, size=SEQ_LEN))
        r["description"] = " ".join(rng.choice(_DESC_WORDS, size=5,
                                               replace=False))
        b_rows.append(r)
    for _ in range(n_rest - n_near):
        b_rows.append(record())

    def table(rows, prefix):
        pdf = pd.DataFrame(rows)
        pdf["sequence"] = pdf["sequence"].map(_kmers)
        pdf.insert(0, "id", [f"{prefix}{i:05d}" for i in range(len(pdf))])
        return pdf

    return ERDataset(name="bio_nt", tier="bio",
                     attributes=["organism", "gene", "description",
                                 "sequence"],
                     table_a=table(a_rows, "a"), table_b=table(b_rows, "b"),
                     matches=matches)
