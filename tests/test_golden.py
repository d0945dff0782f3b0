"""Golden certificates: sha256 of the CLI's standard output for fixed seeds.

Together the commands cover the one elimination on both of its numpy
dtypes, int64 for GF(2^31 - 1) and Python ints for a prime past 2^31, and
over the rationals, where it is rebuilt from GF(p) images; the witness runs
once over QQ and once over GF(2^31 - 1).  A change that alters a single
stdout byte (certificate layout, draw order, kernel basis) fails here.
"""

import hashlib

import pytest

from barthslice.cli import main

GOLDEN = [
    ("dims --n-min 1 --n-max 12",
     "5b7dce36d2e1a192ed79d0a917bbac74bba471ffd0ba0d2de023d0170a675b90"),
    ("census --n-min 4 --n-max 8 --trials 100 --seed 1",
     "a5231aae7dafcda6328913d28ba4726e68c3df3825ce3b5b8600612364e07f33"),
    ("family --n-min 8 --n-max 12 --trials 20 --seed 1",
     "70858ce1c5ed2095b4e6254259182e3e657bea07976df7819587913a732db18c"),
    ("witness --n-min 4 --n-max 7 --prime rational --window 5 --seed 1",
     "60c80eab90084e122afa41a365a8aa5678f3c13f8f60c0aed7baf1eeccedd77c"),
    ("witness --n-min 4 --n-max 7 --seed 1",
     "fecb53964778d02e578a3ee71d8401653508b53a94898ccdbe255141754ee2a8"),
    ("selftest --seed 0",
     "388edb02ca189ae65c4bf97e6653f5f8462719c6ee2c9fc57bc75b1e692e79f0"),
    ("census --n-min 4 --n-max 6 --trials 5 --prime 2305843009213693951 --seed 3",
     "48ff23c6072b8ed79c4c9503db164ee77707fd33c131a6d0f57d27d364801bed"),
    ("census --n-min 2 --n-max 4 --trials 3 --prime rational --window 5 --seed 2",
     "0fc44b9baca97fd61d5fbda68a1ef241a6e2845cc5aa6160bc5ad63b49515549"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
