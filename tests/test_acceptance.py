"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Each criterion runs the ``heckepoly.verify`` checks that encode it, the code
behind the ``verify`` CLI, and asserts that every one passed and that the
pinned number of them ran, so a dropped or renamed check fails its criterion.
Every comparison inside the checks is exact (tolerance zero).  Hecke matrices
act on columns: ``T[k, j]`` is the coefficient of the k-th base period
polynomial in the image of the j-th, as the level-2 reference matrix of
criterion 4 fixes.

Criterion 5 checks the published level-4 T_3 data: both the computed and the
published matrix have charpoly (x - 228)(x + 156)^2, and the published
entries are compared exactly with the program in two steps.  (a) For each
of the three basis polynomials, the corrected index-3 image equals
``sum_k T[k, j] * base[k]`` as a polynomial, which pins every entry of the
computed matrix without going through S1 and S2.  (b) The published matrix
P satisfies ``S1 * P == T^t * S1``: it is ``S1^-1 T^t S1``, the adjoint of T_3
for the coefficient dot product, similar to T_3 but not its matrix.  Given T
and the nonsingular S1, (b) fixes every published entry.
"""

import hashlib

from heckepoly.verify import SUITES, run_suite

BACKED_SUITES = set()  # every verify suite some criterion runs


def paper(check):
    return ("paper-examples", None, check, 1)


def criterion(num, desc, *runs):
    """The test of criterion ``num``: each run (suite, max_weight, check name or None for all, pinned count)."""
    BACKED_SUITES.update(run[0] for run in runs)

    def test():
        try:
            for suite, max_weight, check, count in runs:
                results = [r for r in run_suite(suite, max_weight) if check in (None, r.name)]
                assert len(results) == count, "%s ran %d checks, expected %d" % (suite, len(results), count)
                assert all(r.ok for r in results), [r for r in results if not r.ok][:3]
        except BaseException:
            print("FAIL criterion %02d: %s" % (num, desc))
            raise
        print("PASS criterion %02d: %s" % (num, desc))

    return test


test_criterion_01_s262 = criterion(
    1, "s_poly(2,6,2) = -(1/15)(4X^5 - 5X^3 + X)", paper("s_poly(2,6,2) printed value")
)
test_criterion_02_s442_vanishes = criterion(
    2, "index-2 sum at level 4, w = 4 vanishes identically", paper("s_poly_m(4,4,2;2) vanishes")
)
test_criterion_03_level4_m8 = criterion(
    3, "corrected m=8 polynomial at level 4 with all three intermediates", paper("level-4 m=8 decomposition")
)
test_criterion_04_t2_matrix_level2 = criterion(
    4, "T_2 on the weight-12 level-2 space: matrix and charpoly", paper("T_2 matrix and charpoly on S_12(Gamma0(2))")
)
test_criterion_05_t3_matrix_level4 = criterion(
    5,
    "T_3 on the weight-10 level-4 space: printed matrix and charpoly",
    paper("T_3 on S_10(Gamma0(4)) vs printed data"),
)
test_criterion_06_hankel = criterion(
    6, "Hankel determinants equal closed forms, which in {1,2,3}, n = 1..8", ("hankel", None, None, 24)
)
test_criterion_07_eigenvalues_vs_eta = criterion(
    7,
    "weight-8 eigenvalue formula matches the eta quotient through q^99",
    paper("weight-8 eigenvalue formula vs eta quotient"),
)
test_criterion_08_oracle_equivalence = criterion(
    8, "pipeline and q-expansion oracle charpolys agree, k = 8..24, m = 2..5", ("oracle", 24, None, 36)
)
test_criterion_09_basis_determinants = criterion(
    9, "all four basis coefficient matrices nonsingular, w = 6..60", ("bases", 60, None, 112)
)
test_criterion_10_eisenstein_product_bases = criterion(
    10, "both Eisenstein-product families have full rank, k = 8..40", ("theorem14", 40, None, 17)
)
test_criterion_11_property_suites = criterion(
    11,
    "period symmetry, assembly agreement, and Hecke algebra relations",
    ("symmetry", None, None, 200),
    ("assembly", 30, None, 896),
    ("hecke-relations", 22, None, 762),
)
test_criterion_12_t2_delta_relations = criterion(
    12, "T_2 action on Delta(z) and Delta(2z) through 30 coefficients", paper("T_2 action on Delta(z), Delta(2z)")
)


def test_every_verify_suite_backs_a_criterion():
    assert BACKED_SUITES == set(SUITES)


# SHA-256 of each suite's check names, newline-joined in order, at its default bound and at its SUITES ceiling
CHECK_NAME_HASHES = {
    ("paper-examples", None): "74f4cab41f64ea86c335b41fb89932c2c58c904fb9f49bf92bff79e001172703",
    ("hankel", None): "0d7fa05e8c924de995c76a6dfc54eae3f72db0a7b174975f6498a2537b524c3b",
    ("bases", None): "ae32310f380824e8312cd527bc50b8a4ad26463c2c8007c43a63d27641dc949f",
    ("bases", 132): "c9297cf2c3c7f638dcbc4d87a02ec8ccd3832cf8c0e033f23390ee3a0015d175",
    ("theorem14", None): "57e6bd6c66349076a05773a0b83d5beb8a6af065db42503735f7425bad0c9de7",
    ("theorem14", 92): "b01804c490d8998ee0ae445478dfc1121797357c6c55460fbc79609e81286b07",
    ("oracle", None): "ce3bb20cf8a36eb3953fb02e20dcd3d91a4d75b1abd1a07ecac7f54fdffe7b86",
    ("oracle", 90): "c8218d080dd62c018b355128d22135c990158e8bc695f70e6e824967ea7b5eb5",
    ("symmetry", None): "04f7544db42ee61e838ac5eb607013676a9040a6a40dd07d66736a52b68e0349",
    ("assembly", None): "0ef8ff59779cf6e18976ca4eb5be20cd27595669f3f605846179b7dcb85c7f50",
    ("assembly", 100): "3334d369f806ba5da0cf41fb22c170503961b0674eb5ba296a8b7e45008d3053",
    ("hecke-relations", None): "5edb6e55f7cc78dc6c4c276d17b02b9185e4da2a9e6421dcae140c7b5c40f477",
    ("hecke-relations", 58): "f578041655db19be9b9987c1bc0fa6e55aae894db1bee22fab1c96062180ad44",
}


def test_every_suite_builds_its_pinned_check_names():
    # the check lists are built, not run: a renamed, reordered, dropped or added check changes a hash
    got = {}
    for name, (builder, ceiling) in SUITES.items():
        for bound in (None, ceiling) if ceiling is not None else (None,):
            checks = builder() if bound is None else builder(bound)
            got[name, bound] = hashlib.sha256("\n".join(check.name for check in checks).encode()).hexdigest()
    assert got == CHECK_NAME_HASHES


def test_hecke_relations_level2_names_are_unchanged():
    # the level-2 checks come first, with the names and order they had when the suite ran at level 2 alone
    level2 = {
        None: (212, "0160e22f0ff561bca3d2240009d08506a6ee995f74d8400040628fc32c979570"),
        58: (608, "b6bdfb6d42d849726d8a7cf49e174f146f4f227a2d3179d07ca59fd65db101ff"),
    }
    builder, _ = SUITES["hecke-relations"]
    for bound, (count, digest) in level2.items():
        names = [check.name for check in (builder() if bound is None else builder(bound))]
        assert hashlib.sha256("\n".join(names[:count]).encode()).hexdigest() == digest, bound
        assert not any(name.startswith("N=") for name in names[:count]), bound
        assert all(name.startswith("N=") for name in names[count:]), bound
