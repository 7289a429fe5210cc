"""The stacked check implementations against per-matrix loop references.

Each reference below is the earlier per-basis / per-grid loop of a check,
evaluated one matrix per element and pair.  They are compared with the
stacked implementations on inputs where the residuals are O(1) (a W-tilde
and Q from a wrong candidate, kappa off by a unitary, a mixed R-tilde,
random spans in place of A, A-hat or N), because residuals near 1e-16
cannot tell two evaluations apart.  The range and density check keeps its
earlier dense form, on the full n^4-entry products, as its reference.
"""

from dataclasses import replace

import numpy as np
import pytest

from mpi_lab.antipode import (
    check_antipode,
    check_base_restrictions,
    check_duality,
    tau,
)
from mpi_lab.base_algebra import (
    KappaSolver,
    base_spans,
    c_star_bases,
    check_separability_triple,
    gamma_n_stack,
    kappa_map,
    kappa_q_checks,
    modular_conjugate,
)
from mpi_lab.coalgebra import (
    FAMILIES,
    TensorSquare,
    _comul_stack,
    check_canonical_idempotent,
    check_delta_range_and_density,
    duality_consistency,
    leg_algebra,
)
from mpi_lab.context import Fixture
from mpi_lab.manageability import build_wtilde
from mpi_lab.tensor import (
    RESIDUAL_TOL,
    Fit,
    Operator,
    adjoint,
    all_left_slices,
    all_right_slices,
    identity,
    kron_stack,
    max_gap,
    pair_products,
    rel_residual,
    slice_matrix,
    space,
    span_matrices,
    transpose_grid,
)
from word_references import _assemble, dense_rank, kron_subspace

T_SAMPLES = (1.0, -1.0, 0.3, -0.3)


def each(stacked):
    """A map of stacks applied to one matrix."""
    return lambda x: stacked(x[None])[0]


def adj(x):
    return x.conj().T


def membership(sub, x):
    """Residual of the orthogonal projection of one matrix on a span."""
    v = x.ravel()
    c = v @ sub.basis_matrix.conj().T
    return float(np.linalg.norm(v - c @ sub.basis_matrix)) / max(1.0, float(np.linalg.norm(v)))


def contains_all(sub, ops):
    return max((membership(sub, x) for x in ops), default=0.0)


def products_residual(sub, lefts, rights):
    return contains_all(sub, [x @ y for x in lefts for y in rights])


def antimultiplicativity(f, basis):
    return max((rel_residual(f(x @ y), f(y) @ f(x)) for x in basis for y in basis), default=0.0)


def star_preservation(f, basis):
    return max((rel_residual(f(adj(x)), adj(f(x))) for x in basis), default=0.0)


def gamma_n(fx, nu, b):
    """gamma_N(b) = (nu (x) id)(E (b (x) 1)) through the full n^2 x n^2 product."""
    n = fx.n
    prod = fx.e.matrix @ np.kron(b, np.eye(n))
    return slice_matrix(prod, n, n, "left", nu.density.matrix)


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
def mutant(pair2):
    """A context of the conjugated pair_groupoid_2 with nu and mu off their
    weights (but inside N and L), gamma_N taken at that nu, a complex-mixed
    R-tilde, gamma_L pushed off L and kappa off by a unitary."""
    fx = Fixture(pair2.w)
    st, nu = fx.structure, fx.nu
    b0, c0 = fx.N.stack[0], fx.L.stack[0]
    nu = replace(nu, density=Operator(space(4), nu.density.matrix + 2.0 * b0 @ b0.conj().T))
    mu = replace(st.mu, density=Operator(space(4), st.mu.density.matrix + 2.0 * c0 @ c0.conj().T))
    rtilde = replace(st.rtilde, matrix=st.rtilde.matrix @ np.array([[1.0, 1j], [0.5, 2.0]]))
    gamma_l = st.gamma_l + np.triu(np.ones((4, 4)), 1)
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j * np.eye(4))[0]
    fx.__dict__.update(nu=nu, kappa_solver=_OffByUnitary(fx, u))
    fx.__dict__.update(
        kappa=kappa_map(fx),
        _structure=(replace(st, mu=mu, rtilde=rtilde, gamma_n=gamma_n_stack(fx, nu, fx.N.stack),
                            gamma_l=gamma_l), None),
    )
    return fx


def test_kappa_map_against_loop(pair2, mutant):
    solver, kap = mutant.kappa_solver, mutant.kappa
    basis = pair2.N.stack
    # one solve per b, each on a one-member stack
    values, residuals = [], []
    for b in basis:
        v, r = solver.solve_stack(b[None])
        values.append(v[0])
        residuals.append(r[0])
    anti = 0.0
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            v12, r12 = solver.solve_stack((b1 @ b2)[None])
            if r12[0] < RESIDUAL_TOL and residuals[i] < RESIDUAL_TOL and residuals[j] < RESIDUAL_TOL:
                anti = max(anti, rel_residual(v12[0], values[j] @ values[i]))
    assert anti > 0.1
    np.testing.assert_allclose(kap.antimultiplicativity, anti, rtol=1e-10)
    np.testing.assert_allclose(kap.residuals, residuals, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(kap.value_stack, values, rtol=1e-10, atol=1e-13)
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


def test_gamma_kappa_against_loop(pair2, mutant):
    ref = max(
        rel_residual(gamma_n(pair2, mutant.nu, b), v)
        for b, v in zip(mutant.N.stack, mutant.kappa.value_stack)
    )
    assert ref > 0.1
    got = check_separability_triple(mutant)["gamma_N_eq_kappa"]
    np.testing.assert_allclose(got, ref, rtol=1e-10)
    # the stacked gamma_N against the full-product slice, on random b and
    # a random positive density: inside N the order of b and D would not
    # show, as E lies in N (x) L and N is commutative here
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    nu = replace(mutant.nu, density=Operator(space(4), z[0] @ z[0].conj().T + np.eye(4)))
    for b in z[1:]:
        got = gamma_n_stack(pair2, nu, b[None])[0]
        np.testing.assert_allclose(got, gamma_n(pair2, nu, b), rtol=1e-10, atol=1e-13)


def test_separability_triple_against_loop(pair2, mutant, wrong_q):
    st = mutant.structure
    nu, mu, rtilde = mutant.nu, st.mu, st.rtilde
    e, n, eye = pair2.e.matrix, pair2.n, np.eye(pair2.n)
    n_basis, l_basis, gamma_l = mutant.N.stack, mutant.L.stack, st.gamma_l
    rt, rt_inv = each(rtilde.apply), each(rtilde.inverse.apply)
    ref = {}
    ref["gamma_N_eq_kappa"] = max(
        rel_residual(gamma_n(pair2, nu, b), v) for b, v in zip(n_basis, mutant.kappa.value_stack)
    )
    ref["nu_normalization"] = rel_residual(slice_matrix(e, n, n, "left", nu.density.matrix), eye)
    ref["mu_normalization"] = rel_residual(slice_matrix(e, n, n, "right", mu.density.matrix), eye)
    ref["gamma_L_characterization"] = max(
        rel_residual(np.kron(eye, c) @ e, np.kron(gc, eye) @ e)
        for c, gc in zip(l_basis, gamma_l)
    )
    ref["gamma_L_slice_formula"] = max(
        rel_residual(
            slice_matrix(np.kron(eye, c) @ e, n, n, "right", mu.density.matrix), gc
        )
        for c, gc in zip(l_basis, gamma_l)
    )
    ref["gamma_N_antimultiplicative"] = antimultiplicativity(
        lambda b: gamma_n(pair2, nu, b), n_basis
    )
    ref["gamma_N_polar"] = max(
        rel_residual(gamma_n(pair2, nu, b), rt(modular_conjugate(nu, 0.5j, b)))
        for b in n_basis
    )

    def trace_nu(b):
        return complex(np.trace(nu.density.matrix @ b))

    ref["mu_consistency"] = max(
        abs(complex(np.trace(mu.density.matrix @ rt(b))) - trace_nu(b))
        / max(1.0, abs(trace_nu(b)))
        for b in n_basis
    )
    sig = 0.0
    for t in T_SAMPLES:
        for c in l_basis:
            lhs = modular_conjugate(mu, t, c)
            rhs = rt(modular_conjugate(nu, -t, rt_inv(c)))
            sig = max(sig, rel_residual(lhs, rhs))
    ref["sigma_mu_conjugation"] = sig
    ref["rtilde_star"] = star_preservation(rt, n_basis)
    ref["rtilde_antimultiplicative"] = antimultiplicativity(rt, n_basis)
    wt = build_wtilde(pair2, wrong_q)
    ref.update(_kappa_q_reference(mutant, wrong_q, wt))
    got = {**check_separability_triple(mutant), **kappa_q_checks(mutant, wrong_q, wt)}
    assert_matches(got, ref, min_large=11)


def _kappa_q_reference(fx, q, wtilde):
    kap, solver = fx.kappa, fx.kappa_solver
    qm, qinv = q.matrix, np.linalg.inv(q.matrix)

    def rk(val):
        return qinv @ val @ qm

    # one solve per b, each on a one-member stack
    pairs = list(zip(fx.N.stack, kap.value_stack))
    res = {}
    star = 0.0
    for b, v in pairs:
        v_adj, r_adj = solver.solve_stack(adj(b)[None])
        if r_adj[0] < RESIDUAL_TOL:
            star = max(star, rel_residual(rk(v_adj[0]), adj(rk(v))))
    res["rkappa_star"] = star
    anti = 0.0
    for b1, v1 in pairs:
        for b2, v2 in pairs:
            v12, r12 = solver.solve_stack((b1 @ b2)[None])
            if r12[0] < RESIDUAL_TOL:
                anti = max(anti, rel_residual(rk(v12[0]), rk(v2) @ rk(v1)))
    res["rkappa_antimultiplicative"] = anti
    rt_res = 0.0
    for b, v in pairs:
        v_tb, r_tb = solver.solve_stack((qm @ b @ qinv)[None])
        if r_tb[0] < RESIDUAL_TOL:
            rt_res = max(rt_res, rel_residual(v, qinv @ v_tb[0] @ qm))
    res["kappa_eq_Rkappa_T"] = rt_res
    ww_slices = transpose_grid(all_left_slices(wtilde @ wtilde.adj))
    slice_form = 0.0
    for b, y in zip(all_right_slices(fx.e), ww_slices):
        val, r = solver.solve_stack(b[None])
        if r[0] < RESIDUAL_TOL:
            slice_form = max(slice_form, rel_residual(val[0], qm @ y @ qinv))
    res["kappa_wtilde_formula"] = slice_form
    return res


def antipode_loop_reference(fx, q, wtilde):
    """check_antipode's entries, one generator, basis element and pair at
    a time."""
    wt_slices = all_right_slices(wtilde).transpose(0, 2, 1)
    s_map = fx.s_map
    ra_map = _assemble(fx.leg_space, all_right_slices(fx.ws), wt_slices)
    s, ra = each(s_map.apply), each(ra_map.apply)
    ref = {"S_well_defined": s_map.inconsistency, "RA_well_defined": ra_map.inconsistency}
    polar = membership_res = invol = s_sq = 0.0
    for a, s_a in zip(fx.right_slices, all_right_slices(fx.ws)):
        tau_a = tau(fx, q, -0.5j, a)
        membership_res = max(membership_res, membership(ra_map.domain, tau_a))
        polar = max(polar, rel_residual(s_a, ra(tau_a)))
        invol = max(invol, rel_residual(adj(s(adj(s_a))), a))
        s_sq = max(s_sq, rel_residual(s(s_a), tau(fx, q, -1.0j, a)))
    ref["polar_S_eq_RA_tau"] = polar
    ref["polar_domain_membership"] = membership_res
    ref["S_star_involution"] = invol
    ref["S_squared_eq_tau_minus_i"] = s_sq
    basis, ra_basis = s_map.domain.stack, ra_map.domain.stack
    ref["S_antimultiplicative"] = antimultiplicativity(s, basis)
    ref["RA_involutive"] = max(rel_residual(ra(ra(a)), a) for a in ra_basis)
    ref["RA_star"] = star_preservation(ra, ra_basis)
    ref["RA_antimultiplicative"] = antimultiplicativity(ra, ra_basis)
    ref["tau_preserves_A"] = max(
        membership(s_map.domain, tau(fx, q, t, a)) for t in T_SAMPLES for a in basis
    )
    return ref


def test_antipode_against_loop(pair2, wrong_q):
    wtilde = build_wtilde(pair2, wrong_q)
    ref = antipode_loop_reference(pair2, wrong_q, wtilde)
    assert_matches(check_antipode(pair2, wrong_q, wtilde), ref, min_large=7)


def test_duality_against_loop(pair2, wrong_q):
    # W-hat's side is check_antipode on the dual context; the loop reference
    # runs on a context of Sigma W* Sigma built here, apart from pair2's
    n = pair2.n
    w_hat = Operator(pair2.w.space, pair2.w.matrix.reshape((n,) * 4).transpose(
        1, 0, 3, 2).reshape(n * n, n * n).conj().T)
    fresh = Fixture(w_hat)
    ref = antipode_loop_reference(fresh, wrong_q, build_wtilde(fresh, wrong_q))
    got = check_duality(pair2, wrong_q, build_wtilde(pair2.dual, wrong_q))
    assert_matches(got, ref, min_large=7)


def test_base_restrictions_against_loop(mutant, wrong_q):
    fx, q, st = mutant, wrong_q, mutant.structure
    nu, mu = fx.nu, st.mu
    b_basis, c_basis = fx.N.stack, fx.L.stack
    s_map = fx.s_map
    s = each(s_map.apply)
    ref = {
        "tau_B_eq_sigma_nu_minus_t": max(
            rel_residual(tau(fx, q, t, b), modular_conjugate(nu, -t, b))
            for t in T_SAMPLES
            for b in b_basis
        ),
        "tau_C_eq_sigma_mu_t": max(
            rel_residual(tau(fx, q, t, c), modular_conjugate(mu, t, c))
            for t in T_SAMPLES
            for c in c_basis
        ),
        "S_B_eq_gamma_B": max(rel_residual(s(b), gamma_n(fx, nu, b)) for b in b_basis),
        "B_in_A_membership": contains_all(s_map.domain, b_basis),
        "S_C_eq_gamma_C": max(rel_residual(s(c), gc) for c, gc in zip(c_basis, st.gamma_l)),
        "C_in_A_membership": contains_all(s_map.domain, c_basis),
    }
    got = check_base_restrictions(fx, q)
    assert_matches(got, ref, min_large=4)


def test_c_star_bases_against_loop(pair2):
    # a context with random three-dimensional spans in place of A and
    # A-hat: the multiplier memberships fail
    fx = Fixture(pair2.w)
    rng = np.random.default_rng(13)
    a, ahat = (span_matrices(space(4), rng.standard_normal((3, 4, 4))) for _ in range(2))
    fx.__dict__.update(A=a, Ahat=ahat)
    b, c, bhat, chat = fx.N.stack, fx.L.stack, fx.dual.N.stack, fx.dual.L.stack
    bc = kron_subspace(fx.N, fx.L)
    pairs = [np.kron(x, y) for x in b for y in c]
    ref = {
        "b_x_in_A": products_residual(a, b, a.stack),
        "y_bhat_in_Ahat": products_residual(ahat, ahat.stack, bhat),
        "x_c_in_A": products_residual(a, a.stack, c),
        "c_y_in_Ahat": products_residual(ahat, c, ahat.stack),
        "x_chat_in_A": products_residual(a, a.stack, chat),
        "chat_y_in_Ahat": products_residual(ahat, chat, ahat.stack),
        "E_mult_BC_left": products_residual(bc, [fx.e.matrix], pairs),
        "E_mult_BC_right": products_residual(bc, pairs, [fx.e.matrix]),
    }
    assert_matches(c_star_bases(fx), ref, min_large=6)


def test_base_spans_against_loop(pair2):
    # a context whose N and N-hat are random two-dimensional spans: no
    # closure and no commutation with L or L-hat
    fx = Fixture(pair2.w)
    rng = np.random.default_rng(3)
    for f in (fx, fx.dual):
        f.__dict__["N"] = span_matrices(
            space(4),
            np.array([rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(2)]),
        )

    def max_comm(a_sub, b_sub):
        return max(
            (rel_residual(x @ y, y @ x) for x in a_sub.stack for y in b_sub.stack), default=0.0
        )

    subs = {"N": fx.N, "L": fx.L, "Nhat": fx.dual.N, "Lhat": fx.dual.L}
    ref = {
        "NL_commutation": max_comm(fx.N, fx.L),
        "NhatLhat_commutation": max_comm(fx.dual.N, fx.dual.L),
        **{f"subalgebra_{k}": products_residual(s, s.stack, s.stack) for k, s in subs.items()},
        "L_eq_Lhat": max(contains_all(fx.L, fx.dual.L.stack),
                         contains_all(fx.dual.L, fx.L.stack)),
    }
    assert_matches(base_spans(fx), ref, min_large=4)


def test_leg_algebra_against_loop():
    # W = x (x) e11 + y (x) e22: its right slices span {x, y}, a random
    # two-dimensional span that is neither unital nor closed
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    w = Operator(space(2, 2), np.kron(x, e11) + np.kron(y, e22))
    sub = leg_algebra(Fixture(w), "A")
    got = {"unit": sub.stack_residual(np.eye(2)[None]),
           "star": sub.stack_residual(adjoint(sub.stack)), "prod": sub.product_residual}
    ref = {
        "unit": membership(sub, np.eye(2)),
        "star": contains_all(sub, [adj(b) for b in sub.stack]),
        "prod": products_residual(sub, sub.stack, sub.stack),
    }
    assert_matches(got, ref, min_large=3)
    assert not sub.unital and not sub.star_closed


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
    sigma = np.eye(4)[[0, 2, 1, 3]]  # the flip of C^2 (x) C^2
    ref = max(
        rel_residual(
            _comul_stack(fx.dual, x[None])[0],
            sigma @ fx.w.matrix @ np.kron(x, np.eye(2)) @ fx.ws.matrix @ sigma,
        )
        for x in [*fx.Ahat.stack, np.eye(2)]
    )
    assert ref > 0.1
    np.testing.assert_allclose(duality_consistency(fx), ref, rtol=1e-10)


def test_slice_transpose_against_loop(pair2, wrong_q):
    # (id (x) w_{Q^{-1}v, Qu})(Wt) = [(id (x) w_{v,u})(W)]^T holds by
    # construction for the W-tilde that build_wtilde makes from Q, and
    # fails for the W-tilde of Q = 1 checked against the wrong Q
    fx, q = pair2, wrong_q
    qinv, eye = np.linalg.inv(q.matrix), np.eye(fx.n)
    n = fx.n

    def loop(wt):
        ref = 0.0
        for v in range(n):
            for u in range(n):
                # the density of w_{a,b} is a b*
                f_w = np.outer(eye[v], eye[u])
                f_wt = np.outer(qinv @ eye[v], np.conj(q.matrix @ eye[u]))
                lhs = slice_matrix(wt.matrix, n, n, "right", f_wt)
                rhs = slice_matrix(fx.w.matrix, n, n, "right", f_w).T
                ref = max(ref, rel_residual(lhs, rhs))
        return ref

    assert loop(build_wtilde(fx, q)) < 1e-12
    assert loop(build_wtilde(fx, identity(space(4)))) > 0.1


def range_and_density_dense(fx):
    """The dense range and density check: every product Delta(a)(b (x) c)
    as an n^4-entry matrix, spans through their SVDs, and the density
    spans from the slices over all n^2 matrix-unit functionals."""
    sub = fx.A
    bst, n = sub.stack, fx.n
    a2 = kron_subspace(sub, sub)
    eye = np.eye(n)[None]
    res, dims = {}, {"A": sub.dim}
    deltas = _comul_stack(fx, bst)
    pairs = kron_stack(bst, bst)
    a_one, one_a = kron_stack(bst, eye), kron_stack(eye, bst)
    fams = {
        "a1_deltab": pair_products(a_one, deltas),
        "deltaa_1b": pair_products(deltas, one_a),
        "deltaa_b1": pair_products(deltas, a_one),
        "1a_deltab": pair_products(one_a, deltas),
    }
    for key, fam in fams.items():
        res[f"mult_{key}"] = a2.stack_residual(fam)
    e_family = fx.e.matrix[None] @ pairs
    e_span = span_matrices(fx.w.space, e_family)
    range_members = pair_products(deltas, pairs)
    res["range_in_EA2"] = e_span.stack_residual(range_members)
    # reverse inclusion in E(A (x) A)-coordinates
    coords = e_span.coordinates(range_members)
    _, sv, vh = np.linalg.svd(coords, full_matrices=False)
    proj = vh[: dense_rank(sv)]
    e_coords = e_span.coordinates(e_family)
    res["EA2_in_range"] = max_gap(e_coords, (e_coords @ proj.conj().T) @ proj)
    dims["range_span"] = len(proj)
    dims["E_A2_span"] = e_span.dim
    for key, fam, side in (
        ("density_left_a1_db", fams["a1_deltab"], "left"),
        ("density_right_da_1b", fams["deltaa_1b"], "right"),
        ("density_left_db_a1", fams["deltaa_b1"], "left"),
        ("density_right_1b_da", fams["1a_deltab"], "right"),
    ):
        t = fam.reshape(-1, n, n, n, n)
        # left slices fix the first leg's indices, right slices the second's
        slices = t.transpose(0, 1, 3, 2, 4) if side == "left" else t.transpose(0, 2, 4, 1, 3)
        dspan = span_matrices(sub.space, slices.reshape(-1, n * n))
        res[f"{key}_eq_A"] = max(dspan.stack_residual(sub.stack), sub.stack_residual(dspan.stack))
        dims[key] = dspan.dim
    return res, dims


def _without_flip(monkeypatch, w):
    """The dual context of W for a W-hat = W* without the flip."""
    import mpi_lab.context as context

    monkeypatch.setattr(context, "what", lambda w: w.adj)
    return Fixture(w).dual


def _generic_a(w, dim, seed, tol=RESIDUAL_TOL):
    """A context of W at tol whose A is a random span of the given
    dimension: neither an algebra nor closed under Delta, so the products
    leave A (x) A."""
    fx = Fixture(w, tol)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, fx.n, fx.n)) + 1j * rng.standard_normal((dim, fx.n, fx.n))
    sub = span_matrices(fx.leg_space, z)
    fx.__dict__["A"] = sub
    return fx


def test_range_and_density_against_dense_in_A2(pair2, monkeypatch):
    # where every product lies in A (x) A the coordinates are exact and
    # the added bounds are at rounding level: the non-full example has
    # O(1) density residuals, and the conjugated example with a W-hat
    # that lacks the flip an O(1) EA2_in_range as well
    from mpi_lab import corpus

    example = corpus.matrix_unit_example()
    u = corpus.random_unitary(2, np.random.default_rng(17))
    fixtures = [pair2, pair2.dual, Fixture(example), Fixture(example).dual,
                _without_flip(monkeypatch, corpus.conjugate_fixture(example, u))]
    large = set()
    for fx in fixtures:
        got = check_delta_range_and_density(TensorSquare(fx))
        ref, ref_dims = range_and_density_dense(fx)
        assert got.dims == ref_dims
        assert list(got.residuals) == list(ref)
        for key, value in ref.items():
            np.testing.assert_allclose(got.residuals[key], value, rtol=1e-12, atol=1e-13,
                                       err_msg=key)
            if value > 0.1:
                large.add(key)
    assert "EA2_in_range" in large
    assert {k for k in large if k.startswith("density_")} == {
        "density_left_a1_db_eq_A", "density_right_da_1b_eq_A",
        "density_left_db_a1_eq_A", "density_right_1b_da_eq_A",
    }


@pytest.mark.parametrize("case", ["pair2_2", "pair2_4", "pair2_6", "identity_3"])
def test_range_and_density_bound_dense_off_A2(pair2, case):
    # with a random span in place of A the products leave A (x) A: the
    # memberships stay exact, and every span entry, coordinates plus the
    # bound on the part off A (x) A, stays at or above the dense residual.
    # For W = 1, Delta(a)(b (x) 1) = b (x) a and E(b (x) c) = b (x) c lie in
    # A (x) A, and Delta(a)(b (x) c) = b (x) ac leaves it only through the
    # products ac, which product_stability_A bounds
    name, dim = case.split("_")
    w = pair2.w if name == "pair2" else identity(space(3, 3))
    fx = _generic_a(w, int(dim), seed=int(dim))
    got = check_delta_range_and_density(TensorSquare(fx))
    ref, ref_dims = range_and_density_dense(fx)
    assert list(got.residuals) == list(ref)
    for key, value in ref.items():
        if key.startswith("mult_"):
            np.testing.assert_allclose(got.residuals[key], value, rtol=1e-12, atol=1e-13,
                                       err_msg=key)
        else:
            assert got.residuals[key] >= value * (1 - 1e-12), (key, got.residuals[key], value)
    assert ref["range_in_EA2"] > 0.1
    # the coordinate spans count only the part inside A (x) A
    assert got.dims["A"] == ref_dims["A"] == int(dim)
    for key, value in ref_dims.items():
        if key != "range_span":
            assert got.dims[key] <= value, key


def test_range_bound_carries_E_off_A2():
    # W = 1 with the diagonal algebra D in place of A: every product
    # Delta(a)(b (x) c) = b (x) ac lies in D (x) D, and a random M in place
    # of E puts only the E(b (x) c) = M(b (x) c) off it; their exact
    # distances must reach range_in_EA2 through the fit coefficients
    fx = Fixture(identity(space(3, 3)))
    diag = span_matrices(space(3), np.array([np.diag(np.eye(3)[i]) for i in range(3)]))
    fx.__dict__["A"] = diag
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    fx.__dict__["e"] = Operator(space(3, 3), m / np.linalg.norm(m, 2))
    got = check_delta_range_and_density(TensorSquare(fx)).residuals
    ref, _ = range_and_density_dense(fx)
    assert ref["range_in_EA2"] > 0.1
    for key in ("range_in_EA2", "EA2_in_range"):
        assert got[key] >= ref[key] * (1 - 1e-12), (key, got[key], ref[key])


# ---------------------------------------------------------------------------
# The unit-reduced families of coalgebra.TensorSquare against their
# d^2-member fits: each member an n^4-entry matrix projected on A (x) A
# ---------------------------------------------------------------------------


def dense_family(fx, key):
    """The family ``key`` of coalgebra.FAMILIES built member by member, with
    exact coordinates on the Kronecker basis of A (x) A, exact distances
    and norms."""
    sub = fx.A
    a2, b, d = kron_subspace(sub, sub), sub.stack, sub.dim
    eye, e = np.eye(fx.n)[None], fx.e.matrix[None]
    deltas, pairs = _comul_stack(fx, b), kron_stack(b, b)
    a_one, one_a = kron_stack(b, eye), kron_stack(eye, b)
    stack = {
        "E_bc": e @ pairs,
        "bc_E": pairs @ e,
        "a1_deltab": pair_products(a_one, deltas),
        "deltaa_1b": pair_products(deltas, one_a),
        "deltaa_b1": pair_products(deltas, a_one),
        "1a_deltab": pair_products(one_a, deltas),
    }[key]
    flat = stack.reshape(len(stack), -1)
    coords = a2.coordinates(flat)
    dist = np.linalg.norm(flat - coords @ a2.basis_matrix, axis=1)
    return Fit(coords.reshape(-1, d, d), dist, np.linalg.norm(flat, axis=1))


class DenseSquare(TensorSquare):
    """A TensorSquare whose every family is the d^2-member reference."""

    def __init__(self, fx):
        super().__init__(fx)
        self._dense = set(FAMILIES)

    def family(self, key):
        return dense_family(self.fx, key)


def coalgebra_entries(square):
    """E_multiplier and the range and density entries of one side, at the
    tol of its context."""
    return {
        "E_multiplier": check_canonical_idempotent(square)["E_multiplier"],
        **check_delta_range_and_density(square).residuals,
    }


def _nilpotent_a(tol=RESIDUAL_TOL):
    """W = 1 on C^2 (x) C^2 at tol with A = span{e21} (e21 e21 = 0: no unit
    on either side, so the reduction through u = 0 rests on the unit
    residual alone) and a random M in place of E, which puts (b (x) c)M and
    M(b (x) c) off A (x) A."""
    fx = Fixture(identity(space(2, 2)), tol)
    sub = span_matrices(space(2), np.array([[[0.0, 0.0], [1.0, 0.0]]]))
    fx.__dict__["A"] = sub
    rng = np.random.default_rng(21)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    fx.__dict__["e"] = Operator(space(2, 2), m)
    return fx


def _unclosed_unital_a(tol=RESIDUAL_TOL):
    """W = 1 on C^3 (x) C^3 at tol with A = span{1, x} for a random x, so A
    has the unit 1 but x^2 leaves it, and M = 1 (x) 1 + x (x) x in place of
    E: every M(u (x) u) lies in A (x) A, and M(b (x) c) leaves it only
    through the products that product_stability_A bounds."""
    fx = Fixture(identity(space(3, 3)), tol)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sub = span_matrices(space(3), np.array([np.eye(3), x]))
    fx.__dict__["A"] = sub
    m = np.kron(np.eye(3), np.eye(3)) + np.kron(x, x)
    fx.__dict__["e"] = Operator(space(3, 3), m / np.linalg.norm(m, 2))
    return fx


def _e_off_diagonal_a(tol=RESIDUAL_TOL):
    """The fixture of test_range_bound_carries_E_off_A2 at tol: W = 1, A
    the diagonal algebra, a random M in place of E."""
    fx = Fixture(identity(space(3, 3)), tol)
    diag = span_matrices(space(3), np.array([np.diag(np.eye(3)[i]) for i in range(3)]))
    fx.__dict__["A"] = diag
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    fx.__dict__["e"] = Operator(space(3, 3), m / np.linalg.norm(m, 2))
    return fx


def test_reduced_families_match_dense_in_A2(pair2):
    # with units of A and every member inside A (x) A, the reduced
    # coordinates and entries are the dense ones: on the conjugated
    # pair_groupoid_2 (complex, dense W) both ways, on Z_4, and on the
    # example's families through its left unit e22 (its density entries
    # are O(1): the fixture is not full)
    from mpi_lab import corpus

    # at tol = inf no entry is escalated, so each one is the reduced one
    loose = Fixture(pair2.w, tol=np.inf)
    example = Fixture(corpus.matrix_unit_example(), tol=np.inf)
    cases = [(fx, tuple(FAMILIES)) for fx in
             (loose, loose.dual, Fixture(corpus.group_mpu(corpus.cyclic_table(4))))]
    cases.append((example, ("E_bc", "deltaa_1b", "deltaa_b1")))
    for fx, keys in cases:
        square = TensorSquare(fx)
        for key in keys:
            got, ref = square.family(key), dense_family(fx, key)
            np.testing.assert_allclose(got.coords, ref.coords, rtol=0, atol=1e-12, err_msg=key)
            assert got.membership < 1e-12 and ref.membership < 1e-12, key
    for fx in (loose, loose.dual, example):
        got = coalgebra_entries(TensorSquare(fx))
        ref, _ = range_and_density_dense(fx)
        ref["E_multiplier"] = max(dense_family(fx, k).membership for k in ("E_bc", "bc_E"))
        if fx is example:  # the families through the missing right unit
            ref = {k: v for k, v in ref.items() if k not in (
                "E_multiplier", "mult_a1_deltab", "mult_1a_deltab",
                "density_left_a1_db_eq_A", "density_right_1b_da_eq_A")}
        for key, value in ref.items():
            np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("case", ["example", "pair2_2", "pair2_4", "pair2_6", "identity_3",
                                  "nilpotent", "unclosed_unital", "e_off_diagonal"])
def test_reduced_entries_bound_dense_off_A2(pair2, case):
    # never escalated (tol = inf), each reduced entry stays at or above
    # the exact one: without a right unit on the example, with random
    # spans in place of A, with A = span{e21}, whose unit residual carries
    # the whole bound, and with a unital A that products leave, where
    # product_stability_A does
    from mpi_lab import corpus

    fx = {
        "example": lambda: Fixture(corpus.matrix_unit_example(), tol=np.inf),
        "nilpotent": lambda: _nilpotent_a(tol=np.inf),
        "unclosed_unital": lambda: _unclosed_unital_a(tol=np.inf),
        "e_off_diagonal": lambda: _e_off_diagonal_a(tol=np.inf),
    }.get(case, lambda: _generic_a(
        pair2.w if case.startswith("pair2") else identity(space(3, 3)),
        int(case.split("_")[1]), seed=int(case.split("_")[1]), tol=np.inf))()
    got = coalgebra_entries(TensorSquare(fx))
    ref, _ = range_and_density_dense(fx)
    ref["E_multiplier"] = max(dense_family(fx, k).membership for k in ("E_bc", "bc_E"))
    for key, value in ref.items():
        assert got[key] >= value * (1 - 1e-12), (key, got[key], value)
    if case in ("nilpotent", "unclosed_unital"):
        assert ref["E_multiplier"] > 0.1


def test_unit_residual_term_is_needed(monkeypatch):
    # the mutant that drops max_b ||u b - b|| from the bound passes
    # E_multiplier on A = span{e21}, where u = 0 and the exact distance is
    # O(1): the bound test above must fail on it
    fx = _nilpotent_a(tol=np.inf)
    ref = max(dense_family(fx, k).membership for k in ("E_bc", "bc_E"))
    unit = TensorSquare._unit
    monkeypatch.setattr(TensorSquare, "_unit", lambda self, p, side: (unit(self, p, side)[0], 0.0))
    got = check_canonical_idempotent(TensorSquare(fx))["E_multiplier"]
    assert got < 1e-12 < 0.1 < ref


def test_example_escalates_and_passes(w_example):
    # A = span{e21, e22} has the left unit e22 and no right unit: the three
    # families with A factors on the left are refit member by member, and
    # every membership and range entry passes
    square = TensorSquare(Fixture(w_example))
    got = coalgebra_entries(square)
    assert {"a1_deltab", "1a_deltab", "bc_E"} <= square._dense
    kept = {k: v for k, v in got.items() if not k.startswith("density_")}
    assert max(kept.values()) < RESIDUAL_TOL, kept
    assert TensorSquare(Fixture(w_example).dual).units["left"][1] < 1e-15


@pytest.mark.parametrize("case", ["example", "example_dual", "pair2_4", "nilpotent"])
def test_every_fail_is_exact(pair2, w_example, case):
    # an entry at or above tol never rests on the reduction: memberships
    # are the exact distances, and span entries those of the d^2-member
    # fits.  The example fails its density spans (it is not full), the
    # random span and A = span{e21} fail memberships and spans
    fx = {
        "example": lambda: Fixture(w_example),
        "example_dual": lambda: Fixture(w_example).dual,
        "pair2_4": lambda: _generic_a(pair2.w, 4, seed=4),
        "nilpotent": _nilpotent_a,
    }[case]()
    got = coalgebra_entries(TensorSquare(fx))
    ref = coalgebra_entries(DenseSquare(fx))
    exact = {f"mult_{k}": dense_family(fx, k).membership for k in FAMILIES if "delta" in k}
    exact["E_multiplier"] = max(dense_family(fx, k).membership for k in ("E_bc", "bc_E"))
    failed = [k for k, v in got.items() if v >= RESIDUAL_TOL]
    assert failed
    for key in failed:
        np.testing.assert_allclose(got[key], ref[key], rtol=1e-12, err_msg=key)
        if key in exact:
            np.testing.assert_allclose(got[key], exact[key], rtol=1e-12, err_msg=key)


def test_delta_homomorphism_against_difference():
    # on a generic W, Delta is not multiplicative: the product form
    # W*(1 (x) b)(G - 1)(1 (x) c)W against the difference of the dense
    # Delta(b)Delta(c) and Delta(bc), over the slice span of W
    rng = np.random.default_rng(8)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    fx = Fixture(Operator(space(3, 3), z / np.linalg.norm(z, 2)))
    bst = fx.A.stack
    deltas = _comul_stack(fx, bst)
    ref = max(
        rel_residual(_comul_stack(fx, (b @ c)[None])[0], db @ dc)
        for b, db in zip(bst, deltas) for c, dc in zip(bst, deltas)
    )
    assert ref > 0.1
    got = check_canonical_idempotent(TensorSquare(fx))["delta_homomorphism"]
    np.testing.assert_allclose(got, ref, rtol=1e-10)


def test_traced_peaks_on_z10():
    # the coalgebra level of one side holds a few d n^4 entries (46 d n^4
    # with the d^2-member families), and kappa_q_checks O(n^5) (41 n^5
    # from one solve over every right-hand side)
    import tracemalloc

    from mpi_lab import corpus

    fx = Fixture(corpus.group_mpu(corpus.cyclic_table(10)))
    fx.A, fx.Ahat, fx.e, fx.g, fx.ws  # built before tracing: they belong to the context
    d, n = fx.A.dim, fx.n
    q = identity(space(n))
    fx.structure, fx.kappa  # built before tracing: they belong to the context
    wt = build_wtilde(fx, q)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 16  # complex entries
        finally:
            tracemalloc.stop()

    def one_side():
        square = TensorSquare(fx)
        check_canonical_idempotent(square)
        check_delta_range_and_density(square)

    assert peak(one_side) < 7 * d * n**4
    assert peak(lambda: kappa_q_checks(fx, q, wt)) < 6 * n**5
