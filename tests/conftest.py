import os
from pathlib import Path

import pytest

import mpi_lab
from mpi_lab import corpus

# Tests that run `python -m mpi_lab` in a subprocess get the package this
# session imported, also when it comes from src/ through pytest's pythonpath
# setting rather than from an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(mpi_lab.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def w_example():
    return corpus.matrix_unit_example()


@pytest.fixture(scope="session")
def w_z2():
    return corpus.group_mpu(corpus.cyclic_table(2))


@pytest.fixture(scope="session")
def w_z3():
    return corpus.group_mpu(corpus.cyclic_table(3))


@pytest.fixture(scope="session")
def w_z4():
    return corpus.group_mpu(corpus.cyclic_table(4))


@pytest.fixture(scope="session")
def w_pair2():
    return corpus.groupoid_mpi(corpus.pair_groupoid(2))


@pytest.fixture(scope="session")
def w_pair3():
    return corpus.groupoid_mpi(corpus.pair_groupoid(3))


@pytest.fixture(scope="session")
def w_two_z2():
    a = corpus.group_as_groupoid(corpus.cyclic_table(2), tag="a")
    b = corpus.group_as_groupoid(corpus.cyclic_table(2), tag="b")
    return corpus.groupoid_mpi(corpus.disjoint_union(a, b))


@pytest.fixture(scope="session")
def w_z3_plus_triv():
    a = corpus.group_as_groupoid(corpus.cyclic_table(3), tag="c")
    b = corpus.group_as_groupoid(corpus.cyclic_table(1), tag="t")
    return corpus.groupoid_mpi(corpus.disjoint_union(a, b))


# Named corpus used by the acceptance suite.  The n=9 pair groupoid is kept
# separate from conjugation sweeps to respect the runtime budget.
@pytest.fixture(scope="session")
def corpus_fixtures(
    w_example, w_z2, w_z3, w_z4, w_pair2, w_pair3, w_two_z2, w_z3_plus_triv
):
    return {
        "example": w_example,
        "group_z2": w_z2,
        "group_z3": w_z3,
        "group_z4": w_z4,
        "pair_groupoid_2": w_pair2,
        "pair_groupoid_3": w_pair3,
        "two_z2": w_two_z2,
        "z3_plus_trivial": w_z3_plus_triv,
    }


@pytest.fixture(scope="session")
def small_corpus(corpus_fixtures):
    """Corpus members with leg dimension <= 4, used for conjugation sweeps."""
    return {k: w for k, w in corpus_fixtures.items() if w.space.legs[0].dim <= 4}
