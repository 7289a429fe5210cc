import math

import numpy as np
import pytest

from mpi_lab import context, corpus
from mpi_lab.context import Fixture, what
from mpi_lab.tensor import Operator, identity, space


class TestFixture:
    def test_dual_of_dual_is_self(self, w_z3):
        fx = Fixture(w_z3)
        assert fx.dual.dual is fx
        np.testing.assert_array_equal(fx.dual.w.matrix, what(w_z3).matrix)

    def test_immutable(self, w_z3):
        fx = Fixture(w_z3)
        with pytest.raises(AttributeError):
            fx.w = w_z3

    def test_lazy(self, w_z3):
        fx = Fixture(w_z3)
        assert "e" not in vars(fx) and "_dual" not in vars(fx)
        fx.e
        assert "e" in vars(fx) and "_dual" not in vars(fx)

    def test_freed_without_cycle_collection(self, w_z3):
        # a context and its dual form no reference cycle, so dropping the
        # context frees both at once (the large kappa map included)
        import gc
        import weakref

        fx = Fixture(w_z3)
        fx.dual.dual.kappa_solver
        refs = [weakref.ref(fx), weakref.ref(fx.dual)]
        gc.disable()
        try:
            del fx
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_e_and_g_are_the_projections_of_w(self):
        # E = W*W and G = WW* are self-adjoint for every W, so the report
        # measures only their idempotence
        rng = np.random.default_rng(0)
        z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        fx = Fixture(Operator(space(3, 3), z))
        np.testing.assert_allclose(fx.e.matrix, z.conj().T @ z, atol=1e-12)
        np.testing.assert_allclose(fx.g.matrix, z @ z.conj().T, atol=1e-12)
        for p in (fx.e.matrix, fx.g.matrix):
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)

    def test_q_data_shared_with_dual(self, w_z3):
        fx = Fixture(w_z3)
        q = identity(space(3))
        assert fx.q_data(q) is fx.dual.q_data(identity(space(3)))

    def test_rejects_bad_q(self, w_z3):
        with pytest.raises(ValueError):
            Fixture(w_z3).q_data(identity(space(2)))



def sigma_w_star_sigma(m):
    """Sigma W* Sigma by numpy alone: the conjugate transpose of W, its two
    legs then exchanged on rows and on columns."""
    n = math.isqrt(len(m))
    return m.conj().T.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


def dual_mismatches(ws):
    """Names whose context's W-hat is not Sigma W* Sigma bit for bit."""
    out = []
    for name, w in ws.items():
        got, want = Fixture(w).dual.w.matrix, sigma_w_star_sigma(w.matrix)
        if not (got.dtype == want.dtype and np.array_equal(got, want)):
            out.append(name)
    return out


class TestWhat:
    """W-hat is built in one place, ``context.what``.  The dual entries that
    take their bounds from W's own axiom gaps (coassociativity and the E-leg
    identities of W-hat) cannot see a wrong W-hat, so it is compared here
    with an independent Sigma W* Sigma."""

    @pytest.fixture
    def candidates(self, corpus_fixtures):
        pair2 = corpus_fixtures["pair_groupoid_2"]
        u = corpus.random_unitary(4, np.random.default_rng(30))
        return {**corpus_fixtures, "pair_groupoid_2_conj": corpus.conjugate_fixture(pair2, u)}

    def test_dual_is_sigma_w_star_sigma(self, candidates):
        assert dual_mismatches(candidates) == []

    def test_w_star_for_w_hat_is_caught(self, candidates, monkeypatch):
        monkeypatch.setattr(context, "what", lambda v: v.adj)
        assert dual_mismatches(candidates) == list(candidates)
