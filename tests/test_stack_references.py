"""The stacked check implementations against per-Operator loop references.

Each reference below is the earlier per-basis / per-grid loop of a check,
built one ``Operator`` per element and pair.  They are compared with the
stacked implementations on inputs where the residuals are O(1) (a W-tilde
and Q from a wrong candidate, kappa off by a unitary, a mixed R-tilde,
random spans in place of A, A-hat or N), because residuals near 1e-16
cannot tell two evaluations apart.
"""

from dataclasses import replace

import numpy as np
import pytest

from mpi_lab.antipode import (
    check_antipode,
    check_base_restrictions,
    check_duality,
    dual_antipode_maps,
    tau,
    unitary_antipode_map,
)
from mpi_lab.axioms import is_partial_isometry
from mpi_lab.base_algebra import (
    KappaSolver,
    base_spans,
    build_base_structure,
    c_star_bases,
    check_separability_triple,
    gamma_kappa_residual,
    gamma_n_apply,
    kappa_map,
    modular_conjugate,
)
from mpi_lab.coalgebra import comul, duality_consistency, identity_leg, leg_algebra
from mpi_lab.context import Fixture
from mpi_lab.manageability import build_wtilde, check_hash_identities
from mpi_lab.tensor import (
    RESIDUAL_TOL,
    Operator,
    all_left_slices,
    all_right_slices,
    identity,
    kron,
    operators,
    rel_residual,
    slice_matrix,
    slice_op,
    space,
    span,
    swap_legs,
    tensor_subspace,
    transpose_grid,
    transpose_op,
    vector_functional,
)

T_SAMPLES = (1.0, -1.0, 0.3, -0.3)


def op_residual(lhs, rhs):
    return rel_residual(lhs.matrix, rhs.matrix)


def membership(sub, x):
    """Residual of the orthogonal projection of one operator on a span."""
    v = x.matrix.ravel()
    c = v @ sub.basis_matrix.conj().T
    return float(np.linalg.norm(v - c @ sub.basis_matrix)) / max(1.0, float(np.linalg.norm(v)))


def contains_all(sub, ops):
    return max((membership(sub, x) for x in ops), default=0.0)


def products_residual(sub, lefts, rights):
    return contains_all(sub, [x @ y for x in lefts for y in rights])


def antimultiplicativity(f, basis):
    return max((op_residual(f(x @ y), f(y) @ f(x)) for x in basis for y in basis), default=0.0)


def star_preservation(f, basis):
    return max((op_residual(f(x.adj), f(x).adj) for x in basis), default=0.0)


def gamma_n(fx, nu, b):
    """gamma_N(b) = (nu (x) id)(E (b (x) 1)) through the full n^2 x n^2 product."""
    n = fx.n
    prod = fx.e.matrix @ np.kron(b.matrix, np.eye(n))
    return Operator(b.space, slice_matrix(prod, n, n, "left", nu.density.matrix))


def assert_matches(got: dict, ref: dict, min_large: int):
    assert list(got) == list(ref)
    for key, value in ref.items():
        np.testing.assert_allclose(got[key], value, rtol=1e-10, atol=1e-13, err_msg=key)
    large = [k for k, v in ref.items() if v > 1e-3]
    assert len(large) >= min_large, ref


@pytest.fixture(scope="module")
def pair2():
    """pair_groupoid_2 conjugated by a seeded unitary: a complex W whose
    first leg is not block diagonal, so no index symmetry of the groupoid
    can hide a mis-ordered stack."""
    from mpi_lab import corpus

    w = corpus.groupoid_mpi(corpus.pair_groupoid(2))
    u = corpus.random_unitary(4, np.random.default_rng(17))
    return Fixture(corpus.conjugate_fixture(w, u))


@pytest.fixture(scope="module")
def wrong_q():
    """A positive Q that certifies nothing in the corpus."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return Operator(space(4), a @ a.conj().T + np.eye(4))


class _OffByUnitary(KappaSolver):
    """kappa followed by a fixed unitary: the solves keep their residuals,
    but kappa stops being anti-multiplicative."""

    def __init__(self, fx, u):
        super().__init__(fx)
        self.u = u

    def solve_stack(self, bs):
        vals, res = super().solve_stack(bs)
        return self.u @ vals, res


@pytest.fixture(scope="module")
def mutant_structure(pair2):
    """The base structure of the conjugated pair_groupoid_2 with nu and mu
    off their weights (but inside N and L), a complex-mixed R-tilde,
    gamma_L pushed off L and kappa off by a unitary."""
    st = build_base_structure(pair2)
    b0, c0 = pair2.N.stack[0], pair2.L.stack[0]
    nu = replace(st.nu, density=Operator(space(4), st.nu.density.matrix + 2.0 * b0 @ b0.conj().T))
    mu = replace(st.mu, density=Operator(space(4), st.mu.density.matrix + 2.0 * c0 @ c0.conj().T))
    rtilde = replace(st.rtilde, matrix=st.rtilde.matrix @ np.array([[1.0, 1j], [0.5, 2.0]]))
    gamma_l = st.gamma_l + np.triu(np.ones((4, 4)), 1)
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j * np.eye(4))[0]
    solver = _OffByUnitary(pair2, u)
    return replace(
        st, nu=nu, mu=mu, rtilde=rtilde, gamma_l=gamma_l,
        kappa_solver=solver, kappa=kappa_map(pair2, pair2.N, solver),
    )


def test_kappa_map_against_loop(pair2, mutant_structure):
    solver, kap = mutant_structure.kappa_solver, mutant_structure.kappa
    basis = pair2.N.basis
    values, residuals = [], []
    for b in basis:
        v, r, _ = solver.solve(b)
        values.append(v)
        residuals.append(r)
    anti = 0.0
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            v12, r12, _ = solver.solve(b1 @ b2)
            if r12 < RESIDUAL_TOL and residuals[i] < RESIDUAL_TOL and residuals[j] < RESIDUAL_TOL:
                anti = max(anti, op_residual(v12, values[j] @ values[i]))
    assert anti > 0.1
    np.testing.assert_allclose(kap.antimultiplicativity, anti, rtol=1e-10)
    np.testing.assert_allclose(kap.residuals, residuals, rtol=1e-10, atol=1e-13)
    for got, want in zip(kap.values, values):
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-10, atol=1e-13)
    # off the solvable domain every residual is O(1); the batch against a
    # dense least-squares solve of E(b (x) 1) = E(1 (x) x), one b at a time
    n, e = pair2.n, pair2.e.matrix
    dense = np.array(
        [(e @ np.kron(np.eye(n), unit.reshape(n, n))).ravel() for unit in np.eye(n * n)]
    ).T
    rng = np.random.default_rng(5)
    bs = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    vals, res = KappaSolver(pair2).solve_stack(bs)
    for b, v, r in zip(bs, vals, res):
        want, *_ = np.linalg.lstsq(dense, (e @ np.kron(b, np.eye(n))).ravel(), rcond=None)
        want_r = np.linalg.norm(dense @ want - (e @ np.kron(b, np.eye(n))).ravel())
        assert want_r > 0.1
        np.testing.assert_allclose(r, want_r, rtol=1e-10)
        np.testing.assert_allclose(v, want.reshape(n, n), rtol=1e-10, atol=1e-12)


def test_gamma_kappa_against_loop(pair2, mutant_structure):
    st = mutant_structure
    ref = max(
        rel_residual(g.matrix, v.matrix) for g, v in zip(st.gamma_n_values, st.kappa.values)
    )
    assert ref > 0.1
    np.testing.assert_allclose(gamma_kappa_residual(st), ref, rtol=1e-10)
    # the stacked gamma_N against the full-product slice, on random b and
    # a random positive density: inside N the order of b and D would not
    # show, as E lies in N (x) L and N is commutative here
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    nu = replace(st.nu, density=Operator(space(4), z[0] @ z[0].conj().T + np.eye(4)))
    for b in operators(space(4), z[1:]):
        got = gamma_n_apply(pair2, nu, b).matrix
        np.testing.assert_allclose(got, gamma_n(pair2, nu, b).matrix, rtol=1e-10, atol=1e-13)


def test_separability_triple_against_loop(pair2, mutant_structure, wrong_q):
    st = mutant_structure
    nu, mu, rtilde = st.nu, st.mu, st.rtilde
    e, n, eye = pair2.e.matrix, pair2.n, np.eye(pair2.n)
    n_basis, l_basis = nu.algebra.basis, mu.algebra.basis
    gamma_l = operators(mu.algebra.space, st.gamma_l)
    ref = {}
    ref["nu_normalization"] = rel_residual(slice_matrix(e, n, n, "left", nu.density.matrix), eye)
    ref["mu_normalization"] = rel_residual(slice_matrix(e, n, n, "right", mu.density.matrix), eye)
    ref["gamma_L_characterization"] = max(
        rel_residual(np.kron(eye, c.matrix) @ e, np.kron(gc.matrix, eye) @ e)
        for c, gc in zip(l_basis, gamma_l)
    )
    ref["gamma_L_slice_formula"] = max(
        rel_residual(
            slice_matrix(np.kron(eye, c.matrix) @ e, n, n, "right", mu.density.matrix), gc.matrix
        )
        for c, gc in zip(l_basis, gamma_l)
    )
    ref["gamma_N_antimultiplicative"] = antimultiplicativity(
        lambda b: gamma_n(pair2, nu, b), n_basis
    )
    ref["gamma_N_polar"] = max(
        op_residual(gamma_n(pair2, nu, b), rtilde.apply(modular_conjugate(nu, 0.5j, b)))
        for b in n_basis
    )

    def trace_nu(b):
        return complex(np.trace(nu.density.matrix @ b.matrix))

    ref["mu_consistency"] = max(
        abs(complex(np.trace(mu.density.matrix @ rtilde.apply(b).matrix)) - trace_nu(b))
        / max(1.0, abs(trace_nu(b)))
        for b in n_basis
    )
    sig = 0.0
    for t in T_SAMPLES:
        for c in l_basis:
            lhs = modular_conjugate(mu, t, c)
            rhs = rtilde.apply(modular_conjugate(nu, -t, rtilde.inverse.apply(c)))
            sig = max(sig, op_residual(lhs, rhs))
    ref["sigma_mu_conjugation"] = sig
    ref["rtilde_star"] = star_preservation(rtilde.apply, n_basis)
    ref["rtilde_antimultiplicative"] = antimultiplicativity(rtilde.apply, n_basis)
    ref.update(_kappa_q_reference(pair2, st, wrong_q, build_wtilde(pair2, wrong_q)))
    got = check_separability_triple(pair2, st, wrong_q, build_wtilde(pair2, wrong_q))
    assert_matches(got, ref, min_large=11)


def _kappa_q_reference(fx, structure, q, wtilde):
    kap, solver = structure.kappa, structure.kappa_solver
    qm, qinv = q.matrix, np.linalg.inv(q.matrix)
    leg = structure.nu.algebra.space

    def rk(val):
        return Operator(leg, qinv @ val.matrix @ qm)

    pairs = list(zip(kap.domain_basis, kap.values))
    res = {}
    star = 0.0
    for b, v in pairs:
        v_adj, r_adj, _ = solver.solve(b.adj)
        if r_adj < RESIDUAL_TOL:
            star = max(star, op_residual(rk(v_adj), rk(v).adj))
    res["rkappa_star"] = star
    anti = 0.0
    for b1, v1 in pairs:
        for b2, v2 in pairs:
            v12, r12, _ = solver.solve(b1 @ b2)
            if r12 < RESIDUAL_TOL:
                anti = max(anti, op_residual(rk(v12), rk(v2) @ rk(v1)))
    res["rkappa_antimultiplicative"] = anti
    tr_res = rt_res = 0.0
    for b, v in pairs:
        tr_res = max(tr_res, op_residual(v, Operator(leg, qm @ rk(v).matrix @ qinv)))
        v_tb, r_tb, _ = solver.solve(Operator(leg, qm @ b.matrix @ qinv))
        if r_tb < RESIDUAL_TOL:
            rt_res = max(rt_res, op_residual(v, Operator(leg, qinv @ v_tb.matrix @ qm)))
    res["kappa_eq_T_Rkappa"] = tr_res
    res["kappa_eq_Rkappa_T"] = rt_res
    ww_slices = transpose_grid(all_left_slices(wtilde @ wtilde.adj))
    slice_form = 0.0
    for b, y in zip(all_right_slices(fx.e), ww_slices):
        val, r, _ = solver.solve(Operator(leg, b))
        if r < RESIDUAL_TOL:
            slice_form = max(slice_form, op_residual(val, Operator(leg, qm @ y @ qinv)))
    res["kappa_wtilde_formula"] = slice_form
    return res


def test_antipode_against_loop(pair2, wrong_q):
    fx, q = pair2, wrong_q
    wtilde = build_wtilde(fx, q)
    leg = fx.leg_space
    s_map, ra_map = fx.s_map, unitary_antipode_map(fx, wtilde)
    ref = {"S_well_defined": s_map.inconsistency, "RA_well_defined": ra_map.inconsistency}
    polar = membership_res = tau_slice = invol = s_sq = 0.0
    grid = zip(
        fx.right_slices, all_right_slices(fx.ws), all_right_slices(wtilde).transpose(0, 2, 1)
    )
    for a_m, s_m, wt_m in grid:
        a, s_a = Operator(leg, a_m), Operator(leg, s_m)
        tau_a = tau(fx, q, -0.5j, a)
        membership_res = max(membership_res, membership(ra_map.domain, tau_a))
        polar = max(polar, op_residual(s_a, ra_map.apply(tau_a)))
        tau_slice = max(tau_slice, op_residual(tau_a, Operator(leg, wt_m)))
        invol = max(invol, op_residual(s_map.apply(s_a.adj).adj, a))
        s_sq = max(s_sq, op_residual(s_map.apply(s_a), tau(fx, q, -1.0j, a)))
    ref["polar_S_eq_RA_tau"] = polar
    ref["polar_domain_membership"] = membership_res
    ref["tau_slice_identity"] = tau_slice
    ref["S_star_involution"] = invol
    ref["S_squared_eq_tau_minus_i"] = s_sq
    basis, ra_basis = s_map.domain.basis, ra_map.domain.basis
    ref["S_antimultiplicative"] = antimultiplicativity(s_map.apply, basis)
    ref["RA_involutive"] = max(op_residual(ra_map.apply(ra_map.apply(a)), a) for a in ra_basis)
    ref["RA_star"] = star_preservation(ra_map.apply, ra_basis)
    ref["RA_antimultiplicative"] = antimultiplicativity(ra_map.apply, ra_basis)
    ref["tau_preserves_A"] = max(
        membership(s_map.domain, tau(fx, q, t, a)) for t in T_SAMPLES for a in basis
    )
    assert_matches(check_antipode(fx, q, wtilde), ref, min_large=7)


def test_duality_against_loop(pair2, wrong_q):
    fx, q = pair2, wrong_q
    wtilde = build_wtilde(fx, q)
    leg, n = fx.leg_space, fx.n
    shat, shat_inv, rahat = dual_antipode_maps(fx, wtilde)
    ref = {
        "Shat_well_defined": shat.inconsistency,
        "Shat_inv_well_defined": shat_inv.inconsistency,
        "RAhat_well_defined": rahat.inconsistency,
    }
    polar = polar_inv = roundtrip = 0.0
    for ys_m, y_m in zip(all_left_slices(fx.ws), fx.left_slices):
        y_star, y = Operator(leg, ys_m), Operator(leg, y_m)
        polar = max(polar, op_residual(y, rahat.apply(tau(fx, q, -0.5j, y_star))))
        polar_inv = max(polar_inv, op_residual(y_star, rahat.apply(tau(fx, q, 0.5j, y))))
        roundtrip = max(roundtrip, op_residual(shat_inv.apply(shat.apply(y_star)), y_star))
    ref["Shat_polar"] = polar
    ref["Shat_inv_polar"] = polar_inv
    ref["Shat_roundtrip"] = roundtrip
    t = fx.w.tensor()
    blocks_in_ahat = 0.0
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = Operator(leg, t[i, :, j, :])
            blocks_in_ahat = max(blocks_in_ahat, membership(rahat.domain, block))
            out.reshape(n, n, n, n)[j, :, i, :] += rahat.apply(block).matrix
    ref["W_blocks_in_Ahat"] = blocks_in_ahat
    ref["W_transpose_Rhat_eq_Wtilde_star"] = rel_residual(wtilde.adj.matrix, out)
    ref["wtilde_partial_isometry"] = is_partial_isometry(wtilde)[1]
    assert_matches(check_duality(fx, q, wtilde), ref, min_large=3)


def test_base_restrictions_against_loop(pair2, mutant_structure, wrong_q):
    fx, q, st = pair2, wrong_q, mutant_structure
    nu, mu = st.nu, st.mu
    b_basis, c_basis = nu.algebra.basis, mu.algebra.basis
    s_map = fx.s_map
    ref = {
        "tau_B_eq_sigma_nu_minus_t": max(
            op_residual(tau(fx, q, t, b), modular_conjugate(nu, -t, b))
            for t in T_SAMPLES
            for b in b_basis
        ),
        "tau_C_eq_sigma_mu_t": max(
            op_residual(tau(fx, q, t, c), modular_conjugate(mu, t, c))
            for t in T_SAMPLES
            for c in c_basis
        ),
        "S_B_eq_gamma_B": max(op_residual(s_map.apply(b), gamma_n(fx, nu, b)) for b in b_basis),
        "B_in_A_membership": contains_all(s_map.domain, b_basis),
        "S_C_eq_gamma_C": max(
            op_residual(s_map.apply(c), gc)
            for c, gc in zip(c_basis, operators(mu.algebra.space, st.gamma_l))
        ),
        "C_in_A_membership": contains_all(s_map.domain, c_basis),
    }
    got = check_base_restrictions(fx, q, st, build_wtilde(fx, q))
    assert_matches(got, ref, min_large=4)


def test_c_star_bases_against_loop(pair2):
    # random three-dimensional spans in place of A and A-hat: the
    # multiplier memberships fail
    fx = pair2
    rng = np.random.default_rng(13)
    a, ahat = (
        span([Operator(space(4), m) for m in rng.standard_normal((3, 4, 4))]) for _ in range(2)
    )
    b_sub, c_sub, bhat_sub, chat_sub = fx.N, fx.L, fx.dual.N, fx.dual.L
    bc = tensor_subspace(b_sub, c_sub)
    pairs = [kron(x, y) for x in b_sub.basis for y in c_sub.basis]
    ref = {
        "b_x_in_A": products_residual(a, b_sub.basis, a.basis),
        "y_bhat_in_Ahat": products_residual(ahat, ahat.basis, bhat_sub.basis),
        "x_c_in_A": products_residual(a, a.basis, c_sub.basis),
        "c_y_in_Ahat": products_residual(ahat, c_sub.basis, ahat.basis),
        "x_chat_in_A": products_residual(a, a.basis, chat_sub.basis),
        "chat_y_in_Ahat": products_residual(ahat, chat_sub.basis, ahat.basis),
        "E_mult_BC_left": products_residual(bc, [fx.e], pairs),
        "E_mult_BC_right": products_residual(bc, pairs, [fx.e]),
    }
    assert_matches(c_star_bases(fx, a, ahat)[2], ref, min_large=6)


def test_base_spans_against_loop(pair2):
    # a context whose N is a random two-dimensional span: no closure, no
    # commutation with L, and E outside N (x) L
    fx = Fixture(pair2.w)
    rng = np.random.default_rng(3)
    fx.__dict__["N"] = span(
        [Operator(space(4), rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
         for _ in range(2)]
    )
    spans = base_spans(fx)

    def max_comm(a_sub, b_sub):
        return max(
            (op_residual(x @ y, y @ x) for x in a_sub.basis for y in b_sub.basis), default=0.0
        )

    subs = {"N": fx.N, "L": fx.L, "Nhat": fx.dual.N, "Lhat": fx.dual.L}
    got = {
        "comm": spans.commutation_residual,
        "hat_comm": spans.hat_commutation_residual,
        "L_Lhat": spans.L_Lhat_residual,
        "E": spans.E_membership_residual,
        "Ehat": spans.Ehat_membership_residual,
        **{f"star_{k}": v for k, v in spans.star_residuals.items()},
        **{f"prod_{k}": v for k, v in spans.product_residuals.items()},
    }
    ref = {
        "comm": max_comm(fx.N, fx.L),
        "hat_comm": max_comm(fx.dual.N, fx.dual.L),
        "L_Lhat": max(contains_all(fx.L, fx.dual.L.basis), contains_all(fx.dual.L, fx.L.basis)),
        "E": membership(tensor_subspace(fx.N, fx.L), fx.e),
        "Ehat": membership(tensor_subspace(fx.dual.N, fx.dual.L), fx.dual.e),
        **{f"star_{k}": contains_all(s, [b.adj for b in s.basis]) for k, s in subs.items()},
        **{f"prod_{k}": products_residual(s, s.basis, s.basis) for k, s in subs.items()},
    }
    assert_matches(got, ref, min_large=4)


def test_leg_algebra_against_loop():
    # W = x (x) e11 + y (x) e22: its right slices span {x, y}, a random
    # two-dimensional span that is neither unital nor closed
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    w = Operator(space(2, 2), np.kron(x, e11) + np.kron(y, e22))
    alg = leg_algebra(w, "A")
    sub = alg.space
    got = {"unit": alg.unit_residual, "star": alg.star_residual, "prod": alg.product_residual}
    ref = {
        "unit": membership(sub, identity(sub.space)),
        "star": contains_all(sub, [b.adj for b in sub.basis]),
        "prod": products_residual(sub, sub.basis, sub.basis),
    }
    assert_matches(got, ref, min_large=3)


def test_duality_consistency_against_loop(monkeypatch):
    # a W-hat without the flip, as the mutant of the dual comultiplication,
    # on the conjugated matrix-unit example: the corpus groups and
    # groupoids have flip-symmetric dual comultiplications
    import mpi_lab.context as context
    from mpi_lab import corpus

    u = corpus.random_unitary(2, np.random.default_rng(17))
    w = corpus.conjugate_fixture(corpus.matrix_unit_example(), u)
    monkeypatch.setattr(context, "what", lambda w: w.adj)
    fx = Fixture(w)
    one = identity_leg(fx.w)
    ref = max(
        op_residual(comul(fx, x, "dual"), swap_legs(fx.w @ kron(x, one) @ fx.ws))
        for x in fx.Ahat.space.basis + [one]
    )
    assert ref > 0.1
    np.testing.assert_allclose(duality_consistency(fx), ref, rtol=1e-10)


def test_slice_transpose_against_loop(pair2, wrong_q):
    # the identity holds for the W-tilde of any Q; this one is built from
    # Q = 1 but checked against the wrong Q
    fx, q = pair2, wrong_q
    wt = build_wtilde(fx, identity(space(4)))
    qinv, eye = np.linalg.inv(q.matrix), np.eye(fx.n)
    ref = 0.0
    for v in range(fx.n):
        for u in range(fx.n):
            f_w = vector_functional(eye[v], eye[u])
            f_wt = vector_functional(qinv @ eye[v], q.matrix @ eye[u])
            lhs = slice_op(wt, "right", f_wt)
            rhs = transpose_op(slice_op(fx.w, "right", f_w))
            ref = max(ref, rel_residual(lhs.matrix, rhs.matrix))
    assert ref > 0.1
    got = check_hash_identities(fx, q, wt)["slice_transpose_identity"]
    np.testing.assert_allclose(got, ref, rtol=1e-10)
