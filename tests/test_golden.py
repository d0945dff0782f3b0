"""Golden certificates: sha256 of the CLI's standard output for fixed seeds.

Together the commands cover the RREF and the census's batched rank
elimination on both numpy dtypes, int64 for GF(2^31 - 1) and Python ints
for a prime past 2^31, and over the rationals, where both run on GF(p)
images; the witness runs over QQ at windows 1, 5 and 100, over
GF(2^31 - 1) and over GF(2^61 - 1), and off its calibrated range n = 4..7.  A change that alters a single stdout
byte (certificate layout, draw order, kernel basis, a rank) or an exit code
fails here.
"""

import hashlib

import pytest

from barthslice.cli import main

GOLDEN = [
    ("dims --n-min 1 --n-max 12", 0,
     "5b7dce36d2e1a192ed79d0a917bbac74bba471ffd0ba0d2de023d0170a675b90"),
    ("census --n-min 4 --n-max 8 --trials 100 --seed 1", 0,
     "a5231aae7dafcda6328913d28ba4726e68c3df3825ce3b5b8600612364e07f33"),
    ("family --n-min 8 --n-max 12 --trials 20 --seed 1", 0,
     "70858ce1c5ed2095b4e6254259182e3e657bea07976df7819587913a732db18c"),
    ("witness --n-min 4 --n-max 7 --prime rational --window 5 --seed 1", 0,
     "60c80eab90084e122afa41a365a8aa5678f3c13f8f60c0aed7baf1eeccedd77c"),
    ("witness --n-min 4 --n-max 7 --seed 1", 0,
     "fecb53964778d02e578a3ee71d8401653508b53a94898ccdbe255141754ee2a8"),
    ("selftest --seed 0", 0,
     "388edb02ca189ae65c4bf97e6653f5f8462719c6ee2c9fc57bc75b1e692e79f0"),
    ("census --n-min 4 --n-max 6 --trials 5 --prime 2305843009213693951 --seed 3", 0,
     "48ff23c6072b8ed79c4c9503db164ee77707fd33c131a6d0f57d27d364801bed"),
    ("census --n-min 2 --n-max 4 --trials 3 --prime rational --window 5 --seed 2", 0,
     "0fc44b9baca97fd61d5fbda68a1ef241a6e2845cc5aa6160bc5ad63b49515549"),
    # batched census edges: n = 1 (no equation rows, one block column) and a
    # trial count no chunk divides
    ("census --n-min 1 --n-max 10 --trials 7 --seed 4", 0,
     "bbba903038915c2bc58032463a97b4adddd05a9c2fb9c7ac5cc2603a896825f2"),
    # Python-int (dtype=object) stacks
    ("census --n-min 1 --n-max 9 --trials 3 --prime 2305843009213693951 --seed 4", 0,
     "68c055f8bb30c4de1cf88e01c17aea74e67c3d9cba45eb9d128e987fd64c20a2"),
    # a QQ census whose systems are not of full rank (n = 8, 9)
    ("census --n-min 7 --n-max 9 --trials 4 --prime rational --window 1 --seed 5", 0,
     "afb6433a93eb7b7772448e4002943cb07646faaa8a0d69ccb37619b65cb6fe96"),
    # the family verdict over QQ
    ("family --n-min 8 --n-max 10 --trials 3 --prime rational --window 2 --seed 6", 0,
     "d9511cf662dd150ab3760246542115baefff713cbe98afa2b5e9ba5b9cd9d11e"),
    # larger systems: on Python ints (n = 10, 11), at n = 17 and 18, and over QQ
    ("census --n-min 10 --n-max 11 --trials 2 --prime 2305843009213693951 --seed 7", 0,
     "6d0d2d160dcda8195f38076398962b7c54f2f1ff981999c70edf7b5ae7cfbc41"),
    ("family --n-min 17 --n-max 18 --trials 1 --seed 8", 0,
     "9eadc17a4d255379fbbf59a81abff9ce3fb2a476e16eafd028308ed685396042"),
    ("family --n-min 10 --n-max 11 --trials 2 --prime rational --window 1 --seed 9", 0,
     "517801eb59badd148b0026d3aa7c2a98c407466f5da7cbd7b8e981f4ac96b62f"),
    # a family at n = 40: 1740 x 1720 systems, ranked from 780 x 160 matrices
    ("family --n-min 40 --n-max 40 --trials 1 --seed 10", 0,
     "480746ea96711c5acb6f3b446125456e274a7bdf7f41f3cbca8e42d82a60f705"),
    # small QQ draws: 17, 11 and 8 of the 60 blocks at n = 4, 5 and 6 have a
    # vector a_i that is not cyclic mod the first prime
    ("census --n-min 4 --n-max 6 --trials 30 --prime rational --window 1 --seed 2", 0,
     "ae8842bc9f2ba8739a42c6dd0d1706d2eff3e0536a45405b88cba11b174124f2"),
    # the rational witness at the default window 100: large numerators and
    # denominators through every QQ product
    ("witness --n-min 4 --n-max 7 --prime rational --seed 2", 0,
     "60b912aee797eeb99a4b21fb15ff2a41251778403f5cce421ff043238cdcd501"),
    # the rational witness at window 1: small, degenerate draws through the
    # lifted echelon forms and the batched point ranks
    ("witness --n-min 4 --n-max 7 --prime rational --window 1 --seed 1", 0,
     "af1d8c52dde68064eb13f74186fbb4a3a7060f0da5e5c93866141191c167c318"),
    # the witness over GF(2^61 - 1): Python-int (dtype=object) point-rank stacks
    ("witness --n-min 4 --n-max 7 --prime 2305843009213693951 --seed 1", 0,
     "21b643b88e04d87927fa50d315dfc72fb9a37e889cc9f77f860a0db1f65c6f2b"),
    # the witness off its calibrated range, exit 1: at n = 8..10 the kernel
    # is the canonical span (dim 4) and the pencil fails, the slice's side of
    # the bound n <= 7, with the Jacobian short of full rank at n = 9, 10;
    # at n = 1 and 2 the pencil fails (n = 1 has no equation rows)
    ("witness --n-min 8 --n-max 10 --prime rational --window 5 --seed 1", 1,
     "b29daf522e5a5c13f10d74a6436a25e55c170e2e914778a0b8e849b7f8054726"),
    ("witness --n-min 1 --n-max 3 --prime rational --window 5 --seed 1", 1,
     "6e3a5503a90c8aae80b9554e15b3aa48226962f185892ba53ca09a1d63004303"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(command, code, digest, capsys):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
