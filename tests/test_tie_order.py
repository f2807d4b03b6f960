"""Equal cosines rank the same whichever sort numpy dispatches to.

numpy picks an ``argsort`` kernel by CPU feature (AVX-512 and, in newer
releases, AVX2), and an unstable sort may order equal keys differently on
each. The §4.4 top-N and the §5.1 hard negatives rank by cosine, so their
tie inputs are run again in a subprocess with those dispatch targets
disabled, and must come out equal. numpy accepts a name that the CPU
lacks or that it does not dispatch to, so one list serves every host.

Run as a script (``PYTHONPATH=src:. python tests/test_tie_order.py``),
the module prints those outputs as JSON.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.blocking import multiprobe_topn_candidates
from repro.core.pairs import sample_pairs
from repro.core.similarity import cosine_topk
from tests.test_blocking import TIED_TOP_NS, _tied_null_rows
from tests.test_core_pipeline import (
    TIED_KS,
    TIED_NEG_RATIOS,
    _tied_pair_set,
    _tied_rows,
)

ROOT = Path(__file__).resolve().parents[1]

SIMD_SORT_TARGETS = ("AVX2 AVX512F AVX512CD AVX512_KNL AVX512_KNM "
                     "AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL "
                     "AVX512_SPR")


def _tie_outputs() -> dict:
    va, vb, belows = _tied_rows()
    topk = [[top.tolist() for top, _ in cosine_topk(va, vb, k, below=b)]
            for k in TIED_KS for b in belows]
    ds, va, vb, ids_a, ids_b = _tied_pair_set()
    pairs = []
    for neg_ratio in TIED_NEG_RATIOS:
        got, labels, threshold = sample_pairs(ds, va, vb, ids_a, ids_b,
                                              neg_ratio=neg_ratio)
        pairs.append([[list(p) for p in got], labels.tolist(), threshold])
    va, vb, planes = _tied_null_rows()
    topn = [multiprobe_topn_candidates(va, vb, planes, n_probes=1,
                                       top_n=n).tolist()
            for n in TIED_TOP_NS]
    return {"cosine_topk": topk, "sample_pairs": pairs,
            "multiprobe_topn": topn}


def test_ties_rank_alike_without_simd_sorts():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=SIMD_SORT_TARGETS,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    run = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == _tie_outputs()


if __name__ == "__main__":
    print(json.dumps(_tie_outputs()))
