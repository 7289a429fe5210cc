import json

import numpy as np
import pytest

from mpi_lab import corpus
from mpi_lab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    InputError,
    load_operator,
    main,
    operator_to_dict,
    save_operator,
)
from mpi_lab.runner import run_suite
from mpi_lab.tensor import RESIDUAL_TOL, Operator, identity, space

from test_runner import VERDICTS


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def example_dict():
    return operator_to_dict(corpus.matrix_unit_example())


def z_n_spec(n):
    """Z_n as a one-unit groupoid spec, as `gen groupoid --spec` reads it:
    arrow gi is the element i."""
    ids = [f"g{i}" for i in range(n)]
    return {
        "units": ["g*"],
        "arrows": [[a, "g*", "g*"] for a in ids],
        "compose": [[ids[i], ids[j], ids[(i + j) % n]] for i in range(n) for j in range(n)],
        "inverse": {ids[i]: ids[-i % n] for i in range(n)},
    }


def pair2_spec():
    g = corpus.pair_groupoid(2)
    return {
        "units": list(g.units),
        "arrows": [list(a) for a in g.arrows],
        "compose": [[a, b, c] for (a, b), c in g.compose.items()],
        "inverse": dict(g.inverse),
    }


def _set_composite(spec, g, h, gh):
    spec["compose"] = [[a, b, gh if (a, b) == (g, h) else c] for a, b, c in spec["compose"]]
    return spec


def _drop_key(spec, key):
    del spec[key]
    return spec


#: (spec, message) with exactly one violation each
BAD_SPECS = {
    "duplicate_arrow": (
        {**z_n_spec(2), "arrows": z_n_spec(2)["arrows"] * 2}, "duplicate arrow ids"),
    "unknown_source": (
        {**z_n_spec(2), "arrows": [["g0", "g*", "g*"], ["g1", "x", "g*"]]},
        "arrow g1 has unknown source/target"),
    "missing_composite": (
        {**z_n_spec(2), "compose": z_n_spec(2)["compose"][:-1]},
        "composition domain wrong at (g1, g1)"),
    "composite_not_an_arrow": (
        _set_composite(z_n_spec(2), "g1", "g1", "z"), "composite z is not an arrow"),
    "source_target_broken": (
        _set_composite(pair2_spec(), "u0>u1", "u1>u0", "u1>u1"),
        "source/target broken at (u0>u1, u1>u0)"),
    "not_associative": (
        _set_composite(z_n_spec(3), "g1", "g1", "g0"), "composition not associative"),
    "no_identity": (
        {**z_n_spec(2), "compose": [[a, b, "g0"] for a, b, _ in z_n_spec(2)["compose"]]},
        "unit g* lacks a unique identity arrow"),
    "no_inverse": (
        {**z_n_spec(2), "inverse": {"g0": "g0"}}, "arrow g1 lacks an inverse"),
    "wrong_inverse": (
        {**z_n_spec(3), "inverse": {"g0": "g0", "g1": "g1", "g2": "g1"}},
        "g g^-1 != id at g1"),
}


class TestRefusedInput:
    """Each outside input that the validation refuses, through cli.main:
    exit 2 and the validation's message, and no file written."""

    def refused(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        extra = ["--out", str(out)] if argv[0] == "gen" else []
        assert main(argv + extra) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("table, message", [
        ([[0, 1], [0, 1]], "not a Latin square"),  # rows are permutations, columns not
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "no two-sided identity element"),
    ])
    def test_group_table(self, tmp_path, capsys, table, message):
        path = write_json(tmp_path / "table.json", table)
        self.refused(tmp_path, capsys, ["gen", "group", "--table", path], message)

    @pytest.mark.parametrize("case", list(BAD_SPECS))
    def test_groupoid_spec(self, tmp_path, capsys, case):
        spec, message = BAD_SPECS[case]
        path = write_json(tmp_path / "spec.json", spec)
        self.refused(tmp_path, capsys, ["gen", "groupoid", "--spec", path],
                     f"invalid groupoid spec {path}: {message}")

    def test_groupoid_spec_without_compose(self, tmp_path, capsys):
        path = write_json(tmp_path / "spec.json", _drop_key(z_n_spec(2), "compose"))
        self.refused(tmp_path, capsys, ["gen", "groupoid", "--spec", path],
                     f"invalid groupoid spec {path}: 'compose'")

    def test_operator_without_matrix(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", _drop_key(example_dict(), "matrix"))
        self.refused(tmp_path, capsys, ["check", path], f"{path}: missing key 'matrix'")

    @pytest.mark.parametrize("command", ["check", "suite", "gen"])
    def test_unwritable_out(self, tmp_path, capsys, w_z2, command):
        # exit 1 would read as a failed check: an --out that cannot be
        # written is an input error
        out = tmp_path / "missing" / "out.txt"
        wp = tmp_path / "w.json"
        save_operator(w_z2, str(wp))
        argv = {"check": ["check", str(wp)], "suite": ["suite", "--corpus"],
                "gen": ["gen", "example"]}[command]
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_operator_with_an_unknown_flavor(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {**example_dict(), "flavors": ["H", "X"]})
        self.refused(tmp_path, capsys, ["check", path],
                     f"{path}: flavor must be 'H' or 'Hbar', got 'X'")


def retract_spec():
    """The category with a retract, given as a groupoid: g: s -> t and
    r: t -> s with g r = 1t and r g = e, an idempotent that is not 1s.
    g and r are each other's inverses, e its own, so r and e both break
    g g^-1 = id."""
    arrows = [["1s", "s", "s"], ["1t", "t", "t"], ["g", "s", "t"], ["r", "t", "s"],
              ["e", "s", "s"]]
    table = {("g", "r"): "1t", ("r", "g"): "e", ("e", "e"): "e", ("g", "e"): "g",
             ("e", "r"): "r"}
    src = {a: s for a, s, _ in arrows}
    tgt = {a: t for a, _, t in arrows}
    compose = []
    for a, _, _ in arrows:
        for b, _, _ in arrows:
            if src[a] == tgt[b]:
                ab = a if b in ("1s", "1t") else b if a in ("1s", "1t") else table[(a, b)]
                compose.append([a, b, ab])
    return {"units": ["s", "t"], "arrows": arrows, "compose": compose,
            "inverse": {"1s": "1s", "1t": "1t", "g": "r", "r": "g", "e": "e"}}


def test_refused_spec_message_follows_the_spec_alone(tmp_path):
    # the validation visits the arrows in the spec's order, never in a set's,
    # which follows the hash seed: the first arrow to break g g^-1 = id is r
    import os
    import subprocess
    import sys

    path = write_json(tmp_path / "spec.json", retract_spec())
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "mpi_lab", "gen", "groupoid", "--spec", path,
             "--out", str(tmp_path / f"w{seed}.json")],
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for seed in range(6)
    ]
    errors = [run.communicate(timeout=120)[1] for run in runs]
    assert [run.returncode for run in runs] == [EXIT_INPUT_ERROR] * 6
    assert set(errors) == {f"error: invalid groupoid spec {path}: g g^-1 != id at r\n"}


class TestLoadOperator:
    def test_roundtrip_example(self, tmp_path, w_example):
        p = tmp_path / "w.json"
        save_operator(w_example, str(p))
        loaded = load_operator(str(p))
        np.testing.assert_array_equal(loaded.matrix, w_example.matrix)
        assert loaded.space == w_example.space

    def test_example_file_contents(self, tmp_path):
        data = example_dict()
        assert data["dims"] == [2, 2]
        assert data["flavors"] == ["H", "H"]
        assert data["matrix"][2][0] == [1.0, 0.0]
        assert data["matrix"][3][3] == [1.0, 0.0]
        p = write_json(tmp_path / "w.json", data)
        w = load_operator(p)
        assert w.matrix[2, 0] == 1.0

    def test_wrong_row_count(self, tmp_path):
        data = example_dict()
        data["matrix"] = data["matrix"][:15] if len(data["matrix"]) > 15 else data["matrix"][:3]
        p = write_json(tmp_path / "w.json", data)
        with pytest.raises(InputError):
            load_operator(p)

    def test_wrong_entry_count(self, tmp_path):
        data = example_dict()
        data["matrix"][0] = data["matrix"][0][:3]
        p = write_json(tmp_path / "w.json", data)
        with pytest.raises(InputError):
            load_operator(p)

    def test_non_numeric_entry(self, tmp_path):
        data = example_dict()
        data["matrix"][0][0] = [1, "x"]
        p = write_json(tmp_path / "w.json", data)
        with pytest.raises(InputError):
            load_operator(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            load_operator(str(p))

    def test_non_finite(self, tmp_path):
        data = example_dict()
        data["matrix"][0][0] = [1e999, 0.0]
        p = write_json(tmp_path / "w.json", data)
        with pytest.raises(InputError):
            load_operator(p)

    @pytest.mark.parametrize("cell", [[10**400, 0], [0, -(10**400)]])
    def test_integer_beyond_float_range(self, tmp_path, capsys, cell):
        # complex() raises OverflowError on such an integer; the entry is
        # refused by its position, exit 2 through cli.main
        data = example_dict()
        data["matrix"][1][2] = cell
        p = write_json(tmp_path / "w.json", data)
        with pytest.raises(InputError, match=r"entry \[1\]\[2\] is out of float range"):
            load_operator(p)
        assert main(["check", p]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {p}: entry [1][2] is out of float range\n"


class TestCommands:
    def test_gen_example_then_check(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["gen", "example", "--out", str(out)]) == EXIT_OK
        rc = main(["check", str(out), "--level", "coalgebra", "--report", "json",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "rep.json").read_text())
        ids = [c["id"] for c in rep["checks"]]
        assert "mpi1" in ids and rep["overall"] == "pass"
        assert rep["properties"]["fullness"]["literal_right"] is False

    def test_gen_group(self, tmp_path):
        table = tmp_path / "z3.json"
        table.write_text(json.dumps(corpus.cyclic_table(3)))
        out = tmp_path / "z3_op.json"
        assert main(["gen", "group", "--table", str(table), "--out", str(out)]) == EXIT_OK
        w = load_operator(str(out))
        assert w.space.total_dim == 9

    def test_gen_groupoid(self, tmp_path):
        g = corpus.pair_groupoid(2)
        spec = {
            "units": list(g.units),
            "arrows": [list(a) for a in g.arrows],
            "compose": [[a, b, c] for (a, b), c in g.compose.items()],
            "inverse": dict(g.inverse),
        }
        sp = tmp_path / "pair.json"
        sp.write_text(json.dumps(spec))
        out = tmp_path / "pair_op.json"
        assert main(["gen", "groupoid", "--spec", str(sp), "--out", str(out)]) == EXIT_OK
        w = load_operator(str(out))
        np.testing.assert_array_equal(
            w.matrix, corpus.groupoid_mpi(g).matrix
        )

    def test_suite_text_report(self, tmp_path):
        # one [PASS] mark per passing check of the pinned corpus verdicts;
        # the seed moves only the conjugating unitaries, not the checks
        verdicts = json.loads(VERDICTS.read_text())
        passes = sum(ok for fixture in verdicts.values() for _, ok in fixture["checks"])
        out = tmp_path / "suite.txt"
        assert main(["suite", "--corpus", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[-1] == "suite: 22/22 fixtures pass"
        marks = [line.split()[0] for line in lines if line.startswith("  [")]
        assert marks.count("[PASS]") == passes and "[FAIL]" not in marks

    def test_check_failing_fixture(self, tmp_path):
        from mpi_lab.tensor import Operator

        bad = Operator(space(2, 2), np.diag([0.5, 1.0, 0.0, 0.0]))
        p = tmp_path / "bad.json"
        save_operator(bad, str(p))
        rc = main(["check", str(p), "--level", "axioms", "--out", str(tmp_path / "r.txt")])
        assert rc == EXIT_CHECK_FAILED

    def test_input_error_exit_code(self, tmp_path):
        p = tmp_path / "missing.json"
        assert main(["check", str(p)]) == EXIT_INPUT_ERROR

    def test_q_option(self, tmp_path, w_z2):
        wp = tmp_path / "w.json"
        qp = tmp_path / "q.json"
        save_operator(w_z2, str(wp))
        save_operator(identity(space(2)), str(qp))
        rc = main(
            ["check", str(wp), "--q", str(qp), "--level", "all",
             "--report", "json", "--out", str(tmp_path / "rep.json")]
        )
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["properties"]["q_source"] == "supplied"
        ids = [c["id"] for c in rep["checks"]]
        assert {"antipode_polar_S_eq_RA_tau_primal", "antipode_polar_S_eq_RA_tau_dual"} <= set(ids)

    def test_supplied_q_that_fails_the_certificate(self, tmp_path, w_z2):
        # Q = diag(1, 2) does not commute with Z_2's W: the entries that
        # read the pair (Q, Wtilde) fail, and the antipode level, which
        # needs a certified pair, is skipped.  W-hat's cond3a and cond3b
        # hold, so dual_certificate passes; W-hat's cond1 gap is W's, which
        # fails as manageability_cond1_commutation
        q = Operator(space(2), np.diag([1.0, 2.0]))
        rep = run_suite(w_z2, q=q, fixture_id="z2")
        assert [e.check_id for e in rep.entries if not e.passed] == [
            "manageability_cond1_commutation", "manageability_cond3a",
            "manageability_cond3b", "hash3", "dual_wtilde_formula", "kappa_wtilde_formula",
        ]
        assert rep.skips == [{"level": "antipode", "reason": "manageability certificate failed"}]
        wp, qp = tmp_path / "z2.json", tmp_path / "q.json"
        save_operator(w_z2, str(wp))
        save_operator(q, str(qp))
        assert main(["check", str(wp), "--q", str(qp),
                     "--out", str(tmp_path / "r.txt")]) == EXIT_CHECK_FAILED

    def test_module_entry_point(self, tmp_path, w_z2):
        import subprocess
        import sys

        wp = tmp_path / "z2.json"
        save_operator(w_z2, str(wp))
        done = subprocess.run([sys.executable, "-m", "mpi_lab", "check", str(wp),
                               "--level", "axioms"], capture_output=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "overall: pass"

    @pytest.mark.parametrize("argv, message", [
        (["gen", "group"], "gen group requires --table"),
        (["gen", "groupoid"], "gen groupoid requires --spec"),
        (["suite"], "suite requires --corpus"),
    ])
    def test_usage_errors(self, tmp_path, capsys, argv, message):
        out = tmp_path / "w.json"
        extra = ["--out", str(out)] if argv[0] == "gen" else []
        assert main(argv + extra) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_level_antipode_without_q_uses_suggestion(self, tmp_path, w_z2):
        wp = tmp_path / "w.json"
        save_operator(w_z2, str(wp))
        rc = main(["check", str(wp), "--level", "antipode",
                   "--report", "json", "--out", str(tmp_path / "rep.json")])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["properties"]["q_source"] == "suggested"

    def test_example_antipode_skipped(self, tmp_path, w_example):
        # manageability certifies with Q = 1, but the antipode level is
        # gated off because A is not star-closed
        wp = tmp_path / "w.json"
        save_operator(w_example, str(wp))
        rc = main(["check", str(wp), "--level", "all",
                   "--report", "json", "--out", str(tmp_path / "rep.json")])
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert any(s["level"] == "antipode" for s in rep["skips"])
        ids = [c["id"] for c in rep["checks"]]
        assert "manageability_cond1_commutation" in ids
        assert not any(i.startswith("antipode_") for i in ids)
        assert rc == EXIT_OK

    @pytest.mark.parametrize("command", ["check", "suite"])
    def test_tol_ignores_the_environment(self, tmp_path, w_z2, monkeypatch, command):
        # --tol is the only way to set the tolerance: without it a run is
        # judged at RESIDUAL_TOL, whatever the environment holds
        monkeypatch.setenv("MPI_LAB_TOL", "1e-3")
        wp, out = tmp_path / "w.json", tmp_path / "rep.json"
        save_operator(w_z2, str(wp))
        argv = ["check", str(wp), "--level", "axioms"] if command == "check" else [
            "suite", "--corpus"]
        assert main(argv + ["--report", "json", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        reports = rep["reports"] if command == "suite" else [rep]
        assert {r["tolerance"] for r in reports} == {RESIDUAL_TOL}

    @pytest.mark.parametrize(
        "command, data",
        [
            ("gen", [1, 2]),
            ("gen", [[0, "a"], ["a", 0]]),
            ("gen", [[False]]),
            ("check", {"dims": [2, 2], "flavors": 5, "matrix": []}),
            ("check", ["dims", "flavors", "matrix"]),
            ("check", {"dims": [True, True], "flavors": ["H", "H"], "matrix": [[[1, 0]]]}),
            ("check", {"dims": [1, 1], "flavors": ["H", "H"], "matrix": [[[True, False]]]}),
            # well-formed operators, but not on H (x) H with two equal legs
            ("check", {"dims": [], "flavors": [], "matrix": [[[1.0, 0.0]]]}),
            ("check", {"dims": [1, 1, 1], "flavors": ["H"] * 3, "matrix": [[[1.0, 0.0]]]}),
            ("check", {"dims": [1, 1], "flavors": ["H", "Hbar"], "matrix": [[[1.0, 0.0]]]}),
        ],
        ids=[
            "rows_not_lists",
            "table_of_strings",
            "table_of_booleans",
            "flavors_not_a_list",
            "top_level_list",
            "dims_of_booleans",
            "matrix_of_booleans",
            "no_legs",
            "three_legs",
            "hbar_leg",
        ],
    )
    def test_malformed_input_exit_code(self, tmp_path, capsys, command, data):
        p = write_json(tmp_path / "in.json", data)
        if command == "gen":
            argv = ["gen", "group", "--table", p, "--out", str(tmp_path / "w.json")]
        else:
            argv = ["check", p]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"], ids="flag-{}".format)
    def test_invalid_tol_exit_code(self, tmp_path, w_z2, capsys, value):
        wp = tmp_path / "w.json"
        save_operator(w_z2, str(wp))
        argv = ["check", str(wp), "--level", "axioms", "--out", str(tmp_path / "r.txt"),
                f"--tol={value}"]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize(
        "q",
        [
            Operator(space(2, flavors=["Hbar"]), np.eye(2)),
            identity(space(3)),
            Operator(space(2), np.array([[1.0, 1.0], [0.0, 1.0]])),
            Operator(space(2), -np.eye(2)),
        ],
        ids=["hbar_leg", "wrong_dim", "not_hermitian", "negative"],
    )
    def test_malformed_q_rejected_before_any_level(self, tmp_path, capsys, q):
        wp, qp = tmp_path / "w.json", tmp_path / "q.json"
        save_operator(identity(space(2, 2)), str(wp))
        save_operator(q, str(qp))
        argv = ["check", str(wp), "--q", str(qp), "--level", "axioms",
                "--out", str(tmp_path / "r.txt")]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.txt").exists()

    def test_infinite_tol_cannot_pass_a_non_mpi(self, tmp_path):
        # a random unitary is no MPI; an infinite tolerance would pass it
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = tmp_path / "u.json"
        save_operator(Operator(space(2, 2), np.linalg.qr(z)[0]), str(p))
        argv = ["check", str(p), "--level", "axioms", "--out", str(tmp_path / "r.txt")]
        assert main(argv) == EXIT_CHECK_FAILED
        assert main(argv + ["--tol", "inf"]) == EXIT_INPUT_ERROR


class TestRunSuiteContract:
    def test_skip_on_axiom_failure(self):
        from mpi_lab.tensor import flip

        rep = run_suite(flip(2), level="all", fixture_id="flip")
        assert not rep.overall_pass
        skipped_levels = {s["level"] for s in rep.skips}
        assert {"coalgebra", "base", "manageability", "antipode"} <= skipped_levels
        # no downstream checks ran
        ids = [e.check_id for e in rep.entries]
        assert not any(i.startswith("coassociativity") for i in ids)

    def test_no_weight_reported_not_fatal(self, w_example):
        # the dual of the example has no distinguished weight; it is not
        # full, so nu_found is no entry but a property, the weight-dependent
        # checks are skipped with reasons, and the run still completes
        from mpi_lab.context import what as dual_of

        rep = run_suite(dual_of(w_example), level="all", fixture_id="example_dual")
        assert [e.check_id for e in rep.entries if not e.passed] == []
        assert rep.properties["nu_found_residual"] == 1.0
        reasons = [s["reason"] for s in rep.skips]
        assert any("no distinguished weight" in r for r in reasons)

    def test_skip_without_certified_q(self, w_z2, monkeypatch):
        # every corpus fixture happens to certify with Q = 1, so the
        # no-candidate branch is forced here; the antipode level is
        # skipped only when the run wants it
        import mpi_lab.runner as runner_mod

        monkeypatch.setattr(runner_mod, "suggest_q", lambda w: [])
        reasons = {s["level"]: s["reason"]
                   for s in run_suite(w_z2, level="manageability").skips}
        assert "no certified Q" in reasons["manageability"] and "antipode" not in reasons
        rep = run_suite(w_z2, level="all", fixture_id="z2")
        reasons = {s["level"]: s["reason"] for s in rep.skips}
        assert "no certified Q" in reasons["manageability"]
        assert "antipode" in reasons
        ids = [e.check_id for e in rep.entries]
        assert not any(i.startswith("manageability_") for i in ids)
        assert rep.overall_pass  # executed checks all passed; skips recorded

    def test_every_check_once(self, w_z2):
        rep = run_suite(w_z2, level="all")
        ids = [e.check_id for e in rep.entries]
        assert len(ids) == len(set(ids))
        assert all(
            e.residual >= 0.0 and np.isfinite(e.residual) for e in rep.entries
        )

    def test_non_finite_residual_is_a_failed_check(self, tmp_path, w_z2):
        # W scaled by 1e200 overflows W W* W: every overflowing residual is
        # a failed entry with a null residual, and the report stays strict
        # JSON (no NaN or Infinity tokens)
        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        wp = tmp_path / "w.json"
        save_operator(1e200 * w_z2, str(wp))
        out = tmp_path / "rep.json"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["check", str(wp), "--report", "json", "--out", str(out)])
        assert rc == EXIT_CHECK_FAILED
        rep = json.loads(out.read_text(), parse_constant=reject)
        assert rep["checks"][0] == {"id": "partial_isometry", "pass": False, "residual": None}
        assert rep["overall"] == "fail"

    def test_non_finite_residual_cannot_pass(self):
        from mpi_lab.report import CheckReport

        rep = CheckReport("x", 1e-9, "0")
        assert not rep.add("forced", float("nan"), passed=True).passed
        assert not rep.add("inf", float("inf")).passed
        with pytest.raises(ValueError):
            rep.add("negative", -1.0)

    def test_zero_w_skips_base_and_later_levels(self, tmp_path):
        # W = 0 satisfies every axiom but has an empty base span N: the
        # base level and the levels after it are skipped, not aborted
        zero = Operator(space(2, 2), np.zeros((4, 4)))
        rep = run_suite(zero, level="all", fixture_id="zero")
        reasons = {s["level"]: s["reason"] for s in rep.skips}
        assert set(reasons) == {"base", "manageability", "antipode"}
        assert all("base span N is empty" in r for r in reasons.values())
        assert any(e.check_id.startswith("coassociativity") for e in rep.entries)
        wp = tmp_path / "zero.json"
        save_operator(zero, str(wp))
        assert main(["check", str(wp)]) in (EXIT_OK, EXIT_CHECK_FAILED)

    def test_level_ordering_prefixes(self, w_z2):
        rep_ax = run_suite(w_z2, level="axioms")
        rep_co = run_suite(w_z2, level="coalgebra")
        ax_ids = [e.check_id for e in rep_ax.entries]
        co_ids = [e.check_id for e in rep_co.entries]
        assert co_ids[: len(ax_ids)] == ax_ids


class TestTimings:
    """--timings adds one wall time per level that ran, and nothing else."""

    @staticmethod
    def check(tmp_path, w, *flags):
        wp = tmp_path / "w.json"
        save_operator(w, str(wp))
        out = tmp_path / "rep.out"
        main(["check", str(wp), "--out", str(out), *flags])
        return out.read_bytes()

    @pytest.mark.parametrize("case, ran", [
        ("z2", ["axioms", "coalgebra", "base", "manageability", "antipode"]),
        ("zero", ["axioms", "coalgebra", "base"]),  # base stops on N = 0
        ("non_mpi", ["axioms"]),
    ])
    def test_json_carries_one_time_per_level_that_ran(self, tmp_path, w_z2, case, ran):
        w = {"z2": w_z2, "zero": Operator(space(2, 2), np.zeros((4, 4))),
             "non_mpi": Operator(space(2, 2), np.diag([0.5, 1.0, 0.0, 0.0]))}[case]
        timed = json.loads(self.check(tmp_path, w, "--report", "json", "--timings"))
        levels = timed.pop("level_wall_ms")
        assert sorted(levels) == sorted(ran)  # the canonical form sorts keys
        assert all(isinstance(ms, float) and ms >= 0.0 for ms in levels.values())
        assert all(set(c) == {"id", "pass", "residual"} for c in timed["checks"])
        # without the flag the report is the same bytes, minus the times
        plain = self.check(tmp_path, w, "--report", "json")
        assert plain.rstrip(b"\n") == json.dumps(
            timed, sort_keys=True, separators=(",", ":")).encode()

    def test_text_prints_one_time_line_per_level_that_ran(self, tmp_path):
        zero = Operator(space(2, 2), np.zeros((4, 4)))
        text = self.check(tmp_path, zero).decode()
        times = [line.split()[1] for line in text.splitlines() if line.startswith("  [TIME]")]
        assert times == ["axioms:", "coalgebra:", "base:"]
        assert " ms)" not in text  # no check line carries a time


class TestDeterminism:
    # suite --corpus byte identity: tests/test_acceptance.py, criterion 7
    def test_check_byte_identical(self, tmp_path, w_z3):
        wp = tmp_path / "w.json"
        save_operator(w_z3, str(wp))
        outs = []
        for k in range(2):
            op = tmp_path / f"rep{k}.json"
            assert main(["check", str(wp), "--report", "json",
                         "--out", str(op)]) == EXIT_OK
            outs.append(op.read_bytes())
        assert outs[0] == outs[1]

    def test_corpus_byte_identical_across_blas_threads(self, tmp_path):
        # each thread count in its own process, as BLAS reads it at load
        import os
        import subprocess
        import sys
        from pathlib import Path

        import mpi_lab

        src = str(Path(mpi_lab.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"corpus_{threads}.json"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-m", "mpi_lab", "suite", "--corpus", "--seed", "7",
                 "--report", "json", "--out", str(out)],
                env=env, capture_output=True, timeout=300,
            )
            assert done.returncode == EXIT_OK, done.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
