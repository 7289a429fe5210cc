"""The product relation: W1 (x) W2 with the two middle legs exchanged.

For MPIs W1 on H1 (x) H1 and W2 on H2 (x) H2, W1 [x] W2 acts on
(H1 (x) H2) (x) (H1 (x) H2); for groups it is the regular MPU of the
product group (Baaj-Skandalis 1993), for groupoids the regular MPI of the
product groupoid.  So it passes every entry when both factors do, its
algebras have the products of the factors' dimensions, and it is full
exactly when both factors are."""

import numpy as np
import pytest

from mpi_lab import corpus
from mpi_lab.runner import run_suite
from mpi_lab.tensor import Operator, space


def boxtimes(w1, w2):
    """W1 [x] W2: the Kronecker product, legs (1, 1', 2, 2') reordered to
    (1, 2, 1', 2') on the rows and the columns."""
    n1, n2 = w1.space.legs[0].dim, w2.space.legs[0].dim
    t = np.kron(w1.matrix, w2.matrix).reshape((n1, n1, n2, n2) * 2)
    n = n1 * n2
    return Operator(space(n, n), t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(n * n, n * n))


def product_table(t1, t2):
    """The multiplication table of the product group, (g, h) at g * |H| + h."""
    m = len(t2)
    return [[t1[g1][g2] * m + t2[h1][h2] for g2 in range(len(t1)) for h2 in range(m)]
            for g1 in range(len(t1)) for h1 in range(m)]


def test_group_product_is_the_product_group(w_z2, w_z3):
    want = corpus.group_mpu(product_table(corpus.cyclic_table(2), corpus.cyclic_table(3)))
    np.testing.assert_array_equal(boxtimes(w_z2, w_z3).matrix, want.matrix)


def dims(rep):
    """The dimensions of A, A-hat, N, L, N-hat and L-hat of a report."""
    return {"A": rep.properties["A"]["dim"], "Ahat": rep.properties["Ahat"]["dim"],
            **rep.properties["base_dims"]}


@pytest.mark.parametrize("first, full", [("w_pair2", True), ("w_example", False)])
def test_product_passes_and_dimensions_multiply(request, w_z2, first, full):
    # pair_groupoid_2 [x] Z_2 and example [x] Z_2 pass every entry, and are
    # full exactly when both factors are: example is not
    w1 = request.getfixturevalue(first)
    reps = [run_suite(w) for w in (w1, w_z2, boxtimes(w1, w_z2))]
    assert [r.overall_pass for r in reps] == [True] * 3
    assert [r.properties["nondegenerately_full"] for r in reps] == [full, True, full]
    assert dims(reps[2]) == {k: v * dims(reps[1])[k] for k, v in dims(reps[0]).items()}


def test_product_without_the_exchange_fails_the_axioms(w_pair2, w_z2):
    # read on C^8 (x) C^8, the plain Kronecker product puts W1's two legs
    # into the first leg and W2's into the second: no MPI
    n = 8
    plain = Operator(space(n, n), np.kron(w_pair2.matrix, w_z2.matrix))
    rep = run_suite(plain, level="axioms")
    failed = {e.check_id for e in rep.entries if not e.passed}
    assert {"mpi1", "mpi2", "mpi3", "mpi5"} <= failed
