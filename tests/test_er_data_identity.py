"""The generated datasets, pinned byte for byte.

Every table and test downstream of ``repro.er_data`` reads these
generators, so a change to them that is meant to be a refactor or a
speed-up must leave their output as it is. Each case hashes a canonical
dump (both tables as ``to_csv(index=False)``, then the sorted match
list) and compares the SHA-256 digest against a recorded constant.
"""
import hashlib

import pytest

from repro.er_data import DATASET_KEYS, load
from repro.er_data.bio import load_bio


def _digest(ds) -> str:
    """SHA-256 of both tables' CSV text and the sorted match list."""
    dump = (ds.table_a.to_csv(index=False) + ds.table_b.to_csv(index=False)
            + "".join(f"{a},{b}\n" for a, b in sorted(ds.matches)))
    return hashlib.sha256(dump.encode()).hexdigest()


# (key, seed, scale) -> digest
DIGESTS = {
    ("pub_da", 0, 0.1):
        "27079eb1ca28f8aef92594e238079637b36ee14027ed091a4dd43d0262111147",
    ("pub_ds", 0, 0.1):
        "0f112067fa47c307cf540f1a01ebe57de4a81d1f0290fe9eef4054268996786d",
    ("pub_dc", 0, 0.1):
        "380fabac0df198290971f825a82545a62b980e14b1224128cbdf5466831d4136",
    ("prod_ag", 0, 0.1):
        "6228d8e6dacfc24e6300b151e9782e7f1de93c8f76bfa4b25f4666d9aecdfa82",
    ("prod_wa", 0, 0.1):
        "dfe43df6bd03725fea59ce18a0612cebdbc3a2a89bd758d96ce397a7bc094032",
    ("rest_fz", 0, 0.1):
        "bd06a3883f9661398ece903c13f0be4fa26ad93068e582ac9e86d2016415f8f8",
    ("pub_da", 5, 0.3):
        "8f100af414e29d2c12b7ef1781d851dc9d2cf9e8263b788b31cd8dd3be8f8407",
    ("pub_ds", 5, 0.3):
        "d1f586dfcad1cebef12687a7900bb5409cf359414e8fc86a0125707bb9cd042d",
    ("pub_dc", 5, 0.3):
        "ba98645c425fcd980070de0fb45871b3e444bc836876fa9bd31e383b60c89886",
    ("prod_ag", 5, 0.3):
        "32afe2025302c04a979b9121bed8e493ce20f37fa5ac06324e1eb371a42acf00",
    ("prod_wa", 5, 0.3):
        "bf27409373413cd16eaf5fde2cc659776e2c7bfa56aac2987deb91a595303af6",
    ("rest_fz", 5, 0.3):
        "1dab92ac842089196134c2d0978c007cd4f65ddcc4e2eea01fac99a44ecbda00",
}

BIO_DIGEST = \
    "78845491a5cf2252f81f225b67cf2e0cf4f78d92a14648810ada5d390772ddba"


@pytest.mark.parametrize("key,seed,scale", sorted(DIGESTS))
def test_load_output_is_pinned(key, seed, scale):
    assert _digest(load(key, seed=seed, scale=scale)) == \
        DIGESTS[key, seed, scale]


def test_load_bio_output_is_pinned():
    assert _digest(load_bio()) == BIO_DIGEST


def _non_str_cells(ds) -> dict[str, int]:
    """Per column, the count of non-NULL cells that are not a built-in
    ``str`` (a numpy scalar such as ``np.str_`` prints alike but is not)."""
    bad = {}
    for side, table in (("A", ds.table_a), ("B", ds.table_b)):
        for col in table.columns:
            n = sum(v is not None and type(v) is not str for v in table[col])
            if n:
                bad[f"{side}.{col}"] = n
    return bad


@pytest.mark.parametrize("key", DATASET_KEYS)
def test_every_load_cell_is_a_str_or_null(key):
    assert _non_str_cells(load(key, scale=0.3)) == {}


def test_every_load_bio_cell_is_a_str_or_null():
    assert _non_str_cells(load_bio(n_a=120, n_b=120, n_matches=50)) == {}
