"""Symbolic string-similarity functions.

The pool a Magellan-style system draws its features from (the paper cites
SimMetrics' 29 functions; we implement the standard representatives used by
Magellan's automatic feature generation: token jaccard, 3-gram jaccard,
edit-distance similarity, exact match, relative numeric difference).

``pair_features`` computes all five for a batch of cell pairs: each cell is
normalised once, each distinct normalised value is tokenized and parsed once,
every feature is computed once per distinct pair of values, and the edit
distances of all pairs come from one vectorised DP. The scalar functions are
one-pair calls of the same code.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.embeddings.tokenize import tokenize

_LEV_CAP = 24  # edit distance is O(len^2); real EM systems cap long strings
_CHUNK = 4096  # set pairs per sort in ``_Sets.jaccard``: bounds its memory


def _norm(value) -> str:
    return " ".join(tokenize(value))


def _first_number(tokens: list[str]) -> float:
    """The first token that parses as a float; NaN if none does (NaN and a
    missing number both give ``numeric_sim`` 0)."""
    for t in tokens:
        try:
            return float(t)
        except ValueError:
            continue
    return np.nan


class _Values:
    """The distinct normalised strings of a batch of cells, each parsed once.

    ``codes[k]`` is cell ``k``'s position among the distinct strings, so two
    cells share a code iff they normalise to the same string. Token and
    trigram sets are held as ``_Sets`` of integer ids.
    """

    def __init__(self, cells):
        codes, norms = pd.factorize(
            np.array([_norm(v) for v in cells], dtype=object))
        self.codes = codes
        self.norms: list[str] = norms.tolist()
        self.lengths = np.fromiter(map(len, self.norms), np.int64,
                                   len(self.norms))
        tokens = [s.split() for s in self.norms]
        self.number = np.array([_first_number(t) for t in tokens],
                               dtype=np.float64)
        n_tok = np.fromiter(map(len, tokens), np.int64, len(tokens))
        tok_ids = pd.factorize(np.array(
            [t for ts in tokens for t in ts], dtype=object))[0]
        self.token_sets = _Sets(n_tok, tok_ids)
        self.trigram_sets = _Sets(*_trigram_keys(self.norms))


class _Sets:
    """Integer sets, one per group, as sorted distinct ids in one array:
    group ``g`` is ``ids[starts[g]:starts[g + 1]]``."""

    def __init__(self, sizes: np.ndarray, items: np.ndarray):
        """``items`` lists group 0's items, then group 1's, ... with
        ``sizes[g]`` items (repeats allowed) in group ``g``."""
        _, dense = np.unique(items, return_inverse=True)
        self.n_ids = int(dense.max(initial=0)) + 1
        owner = np.repeat(np.arange(len(sizes)), sizes)
        keys = np.unique(owner * self.n_ids + dense)
        self.ids = keys % self.n_ids
        self.starts = np.searchsorted(keys // self.n_ids,
                                      np.arange(len(sizes) + 1))

    def jaccard(self, ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
        """``|A & B| / max(1, |A | B|)`` for the set pairs ``(ga[k], gb[k])``.
        Within one pair each id occurs at most once per side, so after a
        sort the ids both sides hold are the adjacent repeats."""
        na = self.starts[ga + 1] - self.starts[ga]
        nb = self.starts[gb + 1] - self.starts[gb]
        inter = np.empty(len(ga), np.int64)
        for s in range(0, len(ga), _CHUNK):
            sl = slice(s, s + _CHUNK)
            keys = np.concatenate([self._keys(ga[sl], na[sl]),
                                   self._keys(gb[sl], nb[sl])])
            keys.sort()
            both = keys[1:][keys[1:] == keys[:-1]]
            inter[sl] = np.bincount(both // self.n_ids,
                                    minlength=len(na[sl]))
        return inter / np.maximum(1, na + nb - inter)

    def _keys(self, groups: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``k * n_ids + id`` for every id of set ``groups[k]``."""
        pos = _ranges(self.starts[groups], sizes)
        return np.repeat(np.arange(len(groups)), sizes) * self.n_ids \
            + self.ids[pos]


def _ranges(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges ``first[k], ..., first[k] + sizes[k] - 1``, concatenated."""
    return np.repeat(first - (np.cumsum(sizes) - sizes), sizes) \
        + np.arange(sizes.sum())


def _trigram_keys(norms: list[str]):
    """The trigrams of each ``##s#`` (``len(s) + 1`` of them), each packed
    from its three 21-bit code points into one int64."""
    padded = [f"##{s}#" for s in norms]
    lens = np.fromiter(map(len, padded), np.int64, len(padded))
    cp = _codepoints(["".join(padded)], int(lens.sum()))[0].astype(np.int64)
    pos = _ranges(np.cumsum(lens) - lens, lens - 2)
    return lens - 2, (cp[pos] << 42) | (cp[pos + 1] << 21) | cp[pos + 2]


def _unique_pairs(ka: np.ndarray, kb: np.ndarray):
    """The distinct ``(ka[k], kb[k])`` pairs and the map back to ``k``."""
    n = int(max(ka.max(initial=0), kb.max(initial=0))) + 1
    keys, inverse = np.unique(ka * n + kb, return_inverse=True)
    return keys // n, keys % n, inverse


def _codepoints(strings: list[str], width: int) -> np.ndarray:
    """``(len(strings), width)`` code points, each row NUL-padded past its
    string's end (``levenshtein_batch`` never reads a padded position into
    a result)."""
    buf = "".join(s.ljust(width, "\0") for s in strings)
    return np.frombuffer(buf.encode("utf-32-le", "surrogatepass"),
                         dtype="<u4").reshape(len(strings), width)


def levenshtein_batch(sa: list[str], sb: list[str]) -> np.ndarray:
    """Exact edit distances ``d[k] = levenshtein(sa[k], sb[k])`` from one
    DP vectorised across pairs (strings pre-capped by the caller).

    Row ``i`` of every pair's DP table is computed at once: substitution and
    deletion from row ``i - 1``, then insertion as a running minimum of
    ``D[i, j] - j`` along the row. A pair's distance is ``D[len_a, len_b]``,
    read when the loop reaches row ``len_a``.
    """
    la = np.fromiter(map(len, sa), np.int64, len(sa))
    lb = np.fromiter(map(len, sb), np.int64, len(sb))
    wa, wb = int(la.max(initial=0)), int(lb.max(initial=0))
    a, b = _codepoints(sa, wa), _codepoints(sb, wb)
    dt = np.int16 if max(wa, wb) < np.iinfo(np.int16).max else np.int64
    ramp = np.arange(wb + 1, dtype=dt)
    row = np.tile(ramp, (len(sa), 1))  # D[0, j] = j
    dist = lb.copy()                   # D[0, len_b] for an empty sa[k]
    for i in range(1, wa + 1):
        cur = np.empty_like(row)
        cur[:, 0] = i
        np.minimum(row[:, :-1] + (a[:, i - 1:i] != b), row[:, 1:] + 1,
                   out=cur[:, 1:])
        row = np.minimum.accumulate(cur - ramp, axis=1) + ramp
        done = la == i
        dist[done] = row[done, lb[done]]
    return dist


# Each feature maps (values, codes_a, codes_b) to one float per code pair.

def _jaccard_tokens(v: _Values, ca: np.ndarray, cb: np.ndarray):
    return v.token_sets.jaccard(ca, cb)


def _jaccard_trigrams(v: _Values, ca: np.ndarray, cb: np.ndarray):
    sim = v.trigram_sets.jaccard(ca, cb)
    return np.where((v.lengths[ca] == 0) & (v.lengths[cb] == 0), 0.0, sim)


def _levenshtein_sim(v: _Values, ca: np.ndarray, cb: np.ndarray):
    cap_codes, capped = pd.factorize(
        np.array([s[:_LEV_CAP] for s in v.norms], dtype=object))
    ka, kb, inverse = _unique_pairs(cap_codes[ca], cap_codes[cb])
    capped = capped.tolist()
    dist = levenshtein_batch([capped[i] for i in ka.tolist()],
                             [capped[i] for i in kb.tolist()])[inverse]
    m = np.minimum(np.maximum(v.lengths[ca], v.lengths[cb]), _LEV_CAP)
    return np.where(m > 0, 1.0 - dist / np.maximum(m, 1), 0.0)


def _exact_match(v: _Values, ca: np.ndarray, cb: np.ndarray):
    return ((ca == cb) & (v.lengths[ca] > 0)).astype(np.float64)


def _numeric_sim(v: _Values, ca: np.ndarray, cb: np.ndarray):
    """Relative closeness of the first number in each value (price etc.).
    A NaN anywhere (no number, ``nan``, ``inf - inf``) yields 0."""
    na, nb = v.number[ca], v.number[cb]
    with np.errstate(invalid="ignore"):
        denom = np.maximum(np.maximum(np.abs(na), np.abs(nb)), 1e-9)
        sim = 1.0 - np.abs(na - nb) / denom
        return np.where(sim > 0.0, sim, 0.0)


PAIR_FEATURES = (_jaccard_tokens, _jaccard_trigrams, _levenshtein_sim,
                 _exact_match, _numeric_sim)


def pair_features(cells_a, cells_b, ia: np.ndarray,
                  ib: np.ndarray) -> np.ndarray:
    """``(len(ia), len(PAIR_FEATURES))`` features of the cell pairs
    ``(cells_a[ia[k]], cells_b[ib[k]])``, one column per feature."""
    v = _Values([*cells_a, *cells_b])
    ca, cb, inverse = _unique_pairs(v.codes[:len(cells_a)][ia],
                                    v.codes[len(cells_a):][ib])
    cols = [fn(v, ca, cb) for fn in PAIR_FEATURES]
    return np.stack(cols, axis=1)[inverse]


def _one(feature, a, b) -> float:
    """``feature`` of the single cell pair ``(a, b)``."""
    v = _Values([a, b])
    return float(feature(v, v.codes[:1], v.codes[1:])[0])


def jaccard_tokens(a, b) -> float:
    return _one(_jaccard_tokens, a, b)


def jaccard_trigrams(a, b) -> float:
    return _one(_jaccard_trigrams, a, b)


def levenshtein(a: str, b: str) -> int:
    """Edit distance of two strings as given (no normalisation, no cap)."""
    return int(levenshtein_batch([a], [b])[0])


def levenshtein_sim(a, b) -> float:
    return _one(_levenshtein_sim, a, b)


def exact_match(a, b) -> float:
    return _one(_exact_match, a, b)


def numeric_sim(a, b) -> float:
    return _one(_numeric_sim, a, b)
