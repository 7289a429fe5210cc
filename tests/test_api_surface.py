"""Guards against library surface that only tests read, and against
parameters that no function body reads.

Every module-level function or class of ``src/mpi_lab/*.py``, and every
method or property of a module-level class, must be referred to by name
from some other src code, be a name that ``mpi_lab/__init__.py``
imports (the public API), be a function that ``bench/spans.py`` traces,
or be a dunder.  What is none of these is dead in the program: only
tests could call it.  A definition that has to stay anyway is listed in
``ALLOWED`` with the reason.  Every parameter of a function under
``src/mpi_lab`` must be read as a name in its body; ``self``, ``cls``
and dunder methods are exempt.  Every field of a dataclass or NamedTuple
under ``src/mpi_lab`` must be read as an attribute by some src code, so
that no result carries a value nothing uses; a class that is serialized
whole is listed in ``SERIALIZED`` with the reason.  No src code but
``tensor.factor`` and ``tensor.spectral_norm`` takes an SVD, names the
rank cutoff ``RANK_TOL`` or takes a matrix 2-norm (an SVD inside numpy).
No src code but ``tensor._column_blocks`` reads the column-block size
``BLOCK_ENTRIES``, so every blocked product takes the same blocks.
A parameter named ``tol`` is allowed only where ``TOL_PARAMETERS`` says
why: every check reads the run's tolerance from its context.  No src code
but ``axioms.dependent_bounds`` reads a field of the axiom gap record
``axioms.AxiomGaps``, so each identity that follows from the axioms has
one bound.  No src code but ``axioms.takes_bound`` compares a value with a
tolerance, beyond ``TOL_COMPARISONS``, which says why each compares no
upper bound: so one rule lets a bound pass an entry.  Every parameter
default of a src function is passed by some call in src or ``bench/``,
beyond ``UNPASSED_DEFAULTS``.  No src annotation is a union of a context
type (``CONTEXT_TYPES``) with another type but None, and no src code
tests for one with ``isinstance``: each check takes the run's context,
never a bare operator in its place.  No src code reads the default
tolerance ``RESIDUAL_TOL`` beyond ``DEFAULT_TOL_READERS``, which says why
each reads it: every entry is judged at the run's tol, ``fx.tol``.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpi_lab"

#: "module.qualname" -> why it stays although no src code refers to it
ALLOWED: dict[str, str] = {}

#: "module.class" -> why its fields stay although src may not read each one
SERIALIZED: dict[str, str] = {
    "axioms.FullnessVerdict": "runner._axioms writes it whole, through asdict, "
    "into the report's fullness property",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree: ast.Module):
    """(qualname, node) of the module-level functions and classes and of
    the methods and properties of the module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def references(node: ast.AST):
    """Every name a subtree refers to: bare names and attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def public_names(src: Path) -> set[str]:
    tree = _parse(src / "__init__.py")
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def traced_paths() -> set[str]:
    """"module.path" of each TRACED entry of bench/spans.py, read statically."""
    tree = _parse(ROOT / "bench" / "spans.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {f"{mod}.{path}" for mod, path in ast.literal_eval(node.value).values()}
    raise AssertionError("bench/spans.py defines no TRACED")


def unreferenced(src: Path) -> list[str]:
    """The "module.qualname" of each definition under ``src`` that the
    guard flags."""
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in references(tree):
            counts[name] = counts.get(name, 0) + 1
    exempt = public_names(src) | traced_paths()
    flagged = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exempt or f"{module}.{qualname}" in exempt:
                continue
            # references inside the definition itself (recursion) do not count
            if counts.get(name, 0) > sum(1 for r in references(node) if r == name):
                continue
            flagged.append(f"{module}.{qualname}")
    return flagged


def test_no_surface_only_tests_read():
    flagged = [name for name in unreferenced(SRC) if name not in ALLOWED]
    assert not flagged, f"no src code refers to: {flagged}"


def unread_parameters(src: Path) -> list[str]:
    """"module.function: parameter" for each parameter of a function under
    ``src`` that the function body never reads as a name."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            flagged += [
                f"{path.stem}.{node.name}: {p.arg}"
                for p in params
                if p is not None and p.arg not in ("self", "cls") and p.arg not in read
            ]
    return flagged


def test_every_parameter_is_read():
    flagged = unread_parameters(SRC)
    assert not flagged, f"parameters no function body reads: {flagged}"


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with dataclass (called or not) or derived from
    NamedTuple."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def unread_fields(src: Path) -> list[str]:
    """"module.class.field" for each field of a dataclass or NamedTuple
    under ``src`` that no src code reads as an attribute."""
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    read = {
        sub.attr
        for tree in trees.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    flagged = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or not _is_record(node):
                continue
            if f"{module}.{node.name}" in SERIALIZED:
                continue
            flagged += [
                f"{module}.{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and item.target.id not in read
            ]
    return flagged


def test_every_field_is_read():
    flagged = unread_fields(SRC)
    assert not flagged, f"fields no src code reads: {flagged}"


#: what only the SVD_OWNERS may name: the SVD and the rank cutoff
RANK_NAMES = {"svd", "RANK_TOL"}
#: the tensor functions that take every SVD: ``factor``, the only reader
#: of RANK_TOL, and ``spectral_norm``, which takes singular values only
SVD_OWNERS = {"factor", "spectral_norm"}


def _is_two_norm(node: ast.AST) -> bool:
    """A call norm(x, 2) or norm(x, ord=2) (or -2): numpy takes an SVD."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "norm":
        return False
    ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
    return any(ast.unparse(o) in ("2", "-2") for o in ords)


def rank_deciders(src: Path) -> list[str]:
    """"module:line" of each use, as a name, an attribute or an import, of
    one of RANK_NAMES, and of each matrix 2-norm, under ``src`` outside the
    SVD_OWNERS of ``tensor`` (the definition of RANK_TOL aside): every SVD
    and every rank cutoff goes through those two functions."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        tree = _parse(path)
        owner = set()
        if path.stem == "tensor":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name in SVD_OWNERS:
                    owner |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id if not isinstance(node.ctx, ast.Store) else None
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                name = None
            if (name in RANK_NAMES or _is_two_norm(node)) and id(node) not in owner:
                flagged.append(f"{path.stem}:{node.lineno}")
    return flagged


def test_one_function_decides_every_rank():
    flagged = rank_deciders(SRC)
    assert not flagged, f"SVDs or rank cutoffs outside {sorted(SVD_OWNERS)}: {flagged}"


def test_rank_guard_flags_an_inline_svd(tmp_path):
    # a mutant whose axioms take their own SVD
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    axioms = tmp_path / "axioms.py"
    axioms.write_text(axioms.read_text() + "\n\ndef _rank(m):\n    return np.linalg.svd(m)\n")
    assert [f.split(":")[0] for f in rank_deciders(tmp_path)] == ["axioms"]


def test_rank_guard_flags_a_spectral_norm(tmp_path):
    # mutants whose axioms take ||m||_2 through numpy's norm, an SVD that
    # neither tensor.factor nor tensor.spectral_norm sees
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    axioms = tmp_path / "axioms.py"
    text = axioms.read_text()
    for call in ("np.linalg.norm(m, 2)", "np.linalg.norm(m, ord=2)"):
        axioms.write_text(text + f"\n\ndef _norm2(m):\n    return {call}\n")
        assert [f.split(":")[0] for f in rank_deciders(tmp_path)] == ["axioms"], call


#: the one function that reads the column-block size: every blocked
#: product takes its blocks from it
BLOCK_NAME, BLOCK_OWNER = "BLOCK_ENTRIES", "_column_blocks"


def block_readers(src: Path) -> list[str]:
    """"module:line" of each read or import of ``BLOCK_NAME`` under ``src``
    outside ``tensor._column_blocks`` (its definition aside)."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        tree = _parse(path)
        owner = set()
        if path.stem == "tensor":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == BLOCK_OWNER:
                    owner |= {id(sub) for sub in ast.walk(node)}
        flagged += [
            f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
            if id(node) not in owner and (
                isinstance(node, ast.Name) and node.id == BLOCK_NAME
                and not isinstance(node.ctx, ast.Store)
                or isinstance(node, ast.Attribute) and node.attr == BLOCK_NAME
                or isinstance(node, ast.alias) and node.name == BLOCK_NAME)
        ]
    return flagged


def test_one_function_decides_the_column_blocks():
    flagged = block_readers(SRC)
    assert not flagged, f"{BLOCK_NAME} read outside tensor.{BLOCK_OWNER}: {flagged}"


def test_block_guard_flags_a_second_block_loop(tmp_path):
    # a mutant whose embedded_mul has its own column-block loop again
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    tensor = tmp_path / "tensor.py"
    text = tensor.read_text()
    call = "    return chain(m.space, (x, legs), (m, range(1, m.space.nlegs + 1)))\n"
    assert call in text
    loop = (
        "    dims, d = m.space.dims, m.space.total_dim\n"
        "    mt, out = m.matrix.reshape(dims + (d,)), np.empty((d, d), complex)\n"
        "    step = max(1, BLOCK_ENTRIES // d)\n"
        "    for s in range(0, d, step):\n"
        "        block = _apply(x.tensor(), legs, mt[..., s:s + step])\n"
        "        out[:, s:s + step] = block.reshape(d, -1)\n"
        "    return Operator(m.space, out)\n"
    )
    tensor.write_text(text.replace(call, loop))
    assert [f.split(":")[0] for f in block_readers(tmp_path)] == ["tensor"]


#: "module.qualname" of each src function with a parameter named tol -> why
TOL_PARAMETERS: dict[str, str] = {
    "context.Fixture.__init__": "builds the context, which carries the run's tolerance",
    "runner.run_suite": "builds the context of its run at tol",
    "runner.corpus_suite": "builds every corpus fixture's context through run_suite",
}


def functions(node: ast.AST, prefix: str = ""):
    """(qualname, node) of every function under ``node``, methods and nested
    functions included, each after the function that encloses it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield f"{prefix}{child.name}", child
            yield from functions(child, f"{prefix}{child.name}.")
        else:
            yield from functions(child, prefix)


def tol_holders(src: Path) -> list[str]:
    """"module.qualname" of each function under ``src``, nested ones
    included, that has a parameter named tol."""
    return [
        f"{path.stem}.{qualname}"
        for path in sorted(src.glob("*.py"))
        for qualname, node in functions(_parse(path))
        if any(a.arg == "tol" for a in (*node.args.posonlyargs, *node.args.args,
                                         *node.args.kwonlyargs))
    ]


def test_tolerance_lives_on_the_context():
    holders = tol_holders(SRC)
    assert [h for h in holders if h not in TOL_PARAMETERS] == [], "tol outside the allow-list"
    assert sorted(TOL_PARAMETERS) == sorted(holders), "stale allow-list entries"


def test_tol_guard_flags_a_check_with_its_own_tol(tmp_path):
    # a mutant whose check_canonical_idempotent takes tol again
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    coalgebra = tmp_path / "coalgebra.py"
    text = coalgebra.read_text()
    assert "def check_canonical_idempotent(sq" in text
    coalgebra.write_text(text.replace("def check_canonical_idempotent(sq",
                                      "def check_canonical_idempotent(tol, sq"))
    assert [h for h in tol_holders(tmp_path) if h not in TOL_PARAMETERS] == [
        "coalgebra.check_canonical_idempotent"]


#: the record of the axiom gaps, and the one function that reads its fields
GAP_RECORD, GAP_READER = "AxiomGaps", "dependent_bounds"


def gap_readers(src: Path) -> list[str]:
    """"module:line" of each read, as an attribute, of a field of
    ``axioms.AxiomGaps`` under ``src`` outside ``axioms.dependent_bounds``."""
    tree = _parse(src / "axioms.py")
    record = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == GAP_RECORD)
    fields = {item.target.id for item in record.body if isinstance(item, ast.AnnAssign)}
    flagged = []
    for path in sorted(src.glob("*.py")):
        tree = _parse(path)
        reader = set()
        if path.stem == "axioms":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == GAP_READER:
                    reader |= {id(sub) for sub in ast.walk(node)}
        flagged += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in fields and id(node) not in reader]
    return flagged


def test_one_function_bounds_the_dependent_identities():
    assert gap_readers(SRC) == [], f"axiom gaps read outside {GAP_READER}"


def test_gap_guard_flags_a_second_bound(tmp_path):
    # a mutant whose coalgebra forms its own coassociativity bound from the
    # axiom gaps
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    coalgebra = tmp_path / "coalgebra.py"
    coalgebra.write_text(coalgebra.read_text() + "\n\ndef _beta(gaps):\n"
                         "    return gaps.norm2**3 * gaps.gap_pi\n")
    assert [f.split(":")[0] for f in gap_readers(tmp_path)] == ["coalgebra", "coalgebra"]


#: "module.qualname" of each src function but ``axioms.takes_bound`` that
#: compares a value with a tolerance -> why that value is not an upper bound
TOL_COMPARISONS: dict[str, str] = {
    "axioms._evaluate": "the early FAIL stop: a certified lower bound, FAIL_MARGIN "
    "above tol",
    "axioms.check_mpi_axioms": "the verdict on the exact residuals of W W* W = W "
    "and mpi1-mpi4",
    "manageability.check_manageability": "the certificate's verdict on its exact "
    "residuals",
    "report.CheckReport.add": "each entry's verdict on the value it reports; an "
    "entry that reports a bound has passed takes_bound already",
    "cli._tol": "refuses a --tol that is not finite and > 0",
    "base_algebra.kappa_map": "the exact solve residuals that choose the solved "
    "right-hand sides, at the tol kappa_solves is judged at",
    "base_algebra.kappa_q_checks": "the exact solve residuals that choose the solved "
    "right-hand sides, at the tol kappa_solves is judged at",
}
#: the one function that lets a certified upper bound decide an entry
BOUND_RULE = "axioms.takes_bound"


def tol_comparisons(src: Path) -> list[str]:
    """"module.qualname" of the innermost function enclosing each
    comparison under ``src`` that reads ``tol`` or ``tolerance`` (the
    report's) as a name or an attribute, ``BOUND_RULE`` aside."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        tree, owner = _parse(path), {}
        for qualname, node in functions(tree):  # an inner function overrides its outer
            owner.update(dict.fromkeys(map(id, ast.walk(node)), f"{path.stem}.{qualname}"))
        flagged += [owner.get(id(sub), path.stem) for sub in ast.walk(tree)
                    if isinstance(sub, ast.Compare)
                    and {"tol", "tolerance"} & set(references(sub))]
    return [f for f in dict.fromkeys(flagged) if f != BOUND_RULE]


def test_one_function_passes_an_entry_on_its_bound():
    found = tol_comparisons(SRC)
    assert [f for f in found if f not in TOL_COMPARISONS] == [], (
        f"a comparison with tol outside {BOUND_RULE}")
    assert sorted(TOL_COMPARISONS) == sorted(found), "stale allow-list entries"


def test_bound_guard_flags_a_margin_free_escalation(tmp_path):
    # a mutant whose TensorSquare.decide keeps a reduced entry that comes in
    # below tol without the margin
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    coalgebra = tmp_path / "coalgebra.py"
    text = coalgebra.read_text()
    rule = "takes_bound(max(res.values()), self.fx)"
    assert rule in text
    coalgebra.write_text(text.replace(rule, "max(res.values()) < self.fx.tol"))
    assert [f for f in tol_comparisons(tmp_path) if f not in TOL_COMPARISONS] == [
        "coalgebra.TensorSquare.decide"]


#: "module.qualname: parameter" -> why its default stays although no call
#: in src or bench/ passes it
UNPASSED_DEFAULTS: dict[str, str] = {}


def unpassed_defaults(src: Path) -> list[str]:
    """"module.qualname: parameter" for each parameter with a default of a
    function under ``src`` that no call in ``src`` or ``bench/`` passes, by
    position or by keyword.  Calls are matched by name: f(...) or x.f(...),
    and the class, or super().__init__, for an __init__; the leading self
    or cls is not passed in the call.  A call with *args or **kwargs passes
    every parameter.  Other dunder methods are called by syntax and are
    exempt."""
    calls = [sub for path in [*sorted(src.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
             for sub in ast.walk(_parse(path)) if isinstance(sub, ast.Call)]

    def callee(call: ast.Call) -> str | None:
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def passes(call: ast.Call, position: int, name: str) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position:
            return True
        return any(k.arg in (None, name) for k in call.keywords)

    flagged = []
    for path in sorted(src.glob("*.py")):
        for qualname, node in functions(_parse(path)):
            names = {node.name}
            if node.name == "__init__":
                names.add(qualname.split(".")[-2])
            elif node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            defaulted = [(i - skip, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            mine = [call for call in calls if callee(call) in names]
            flagged += [f"{path.stem}.{qualname}: {name}" for position, name in defaulted
                        if not any(passes(call, position, name) for call in mine)]
    return flagged


def test_every_default_is_varied():
    flagged = unpassed_defaults(SRC)
    assert [f for f in flagged if f not in UNPASSED_DEFAULTS] == [], (
        "defaults no call in src or bench passes")
    assert sorted(UNPASSED_DEFAULTS) == sorted(flagged), "stale allow-list entries"


def test_default_guard_flags_a_parameter_no_call_passes(tmp_path):
    # a mutant whose tensor.flip takes a leg flavor again, which no call passes
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    tensor = tmp_path / "tensor.py"
    text = tensor.read_text()
    assert "def flip(n: int)" in text
    tensor.write_text(text.replace("def flip(n: int)", "def flip(n: int, flavor: str = H)"))
    assert unpassed_defaults(tmp_path) == ["tensor.flip: flavor"]


#: the types a check takes its input as: the run's context, or one side's
#: A (x) A data built from it
CONTEXT_TYPES = {"Fixture", "TensorSquare"}


def _unions(annotation: ast.AST):
    """The type names of each union in an annotation (X | Y, Union[X, Y] or
    Optional[X]), None left out; a string annotation is parsed first."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    for sub in ast.walk(annotation):
        if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.BitOr)
                or isinstance(sub, ast.Subscript) and set(references(sub.value)) & {
                    "Union", "Optional"}):
            yield set(references(sub)) - {"Union", "Optional", "typing"}


def context_alternatives(src: Path) -> list[str]:
    """"module:line" of each annotation under ``src`` with a union of one of
    CONTEXT_TYPES and another type but None, and of each isinstance call
    that tests for one of CONTEXT_TYPES."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                annotation = node.annotation
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotation = node.returns
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                if set(references(node.args[-1])) & CONTEXT_TYPES:
                    flagged.append(f"{path.stem}:{node.lineno}")
                continue
            else:
                continue
            if annotation is not None and any(
                    names & CONTEXT_TYPES and len(names) > 1 for names in _unions(annotation)):
                flagged.append(f"{path.stem}:{annotation.lineno}")
    return flagged


def test_every_check_takes_the_context():
    flagged = context_alternatives(SRC)
    assert not flagged, f"a second input type beside the run's context: {flagged}"


def test_context_guard_flags_a_bare_operator_path(tmp_path):
    # mutants that give one check back its bare-operator path: the union
    # in its signature, and the isinstance test that would build a context
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    axioms = tmp_path / "axioms.py"
    text = axioms.read_text()
    check = "def check_mpi_axioms(fx: Fixture)"
    assert check in text
    for signature, body in (
        ("def check_mpi_axioms(fx: Operator | Fixture)", ""),
        ("def check_mpi_axioms(fx: Union[Operator, Fixture])", ""),
        ("def check_mpi_axioms(fx)",
         "\n\ndef _context(w):\n    return w if isinstance(w, Fixture) else Fixture(w)\n"),
    ):
        axioms.write_text(text.replace(check, signature) + body)
        assert [f.split(":")[0] for f in context_alternatives(tmp_path)] == ["axioms"], signature


#: the default residual tolerance, which no check may read in place of fx.tol
DEFAULT_TOL = "RESIDUAL_TOL"
#: "module.qualname" of each src function that reads DEFAULT_TOL -> why
DEFAULT_TOL_READERS: dict[str, str] = {
    "context.Fixture.__init__": "the default tol of a context",
    "runner.run_suite": "the default tol of a run",
    "runner.corpus_suite": "the default tol of the corpus runs",
    "cli.build_parser": "the default of --tol",
    "corpus.conjugate_fixture": "refuses a u that is not unitary, an input "
    "check made before any context exists",
    "tensor.OperatorSubspace.unital": "describes a span that RANK_TOL cuts, so it "
    "follows the rank cutoff, not the run's tol",
    "tensor.OperatorSubspace.star_closed": "describes a span that RANK_TOL cuts, so "
    "it follows the rank cutoff, not the run's tol",
}


def default_tol_readers(src: Path) -> list[str]:
    """"module.qualname" of the innermost function enclosing each read of
    ``DEFAULT_TOL`` under ``src``, as a name or an attribute (its
    definition and imports aside), or the module for a read outside every
    function."""
    flagged = []
    for path in sorted(src.glob("*.py")):
        tree, owner = _parse(path), {}
        for qualname, node in functions(tree):  # an inner function overrides its outer
            owner.update(dict.fromkeys(map(id, ast.walk(node)), f"{path.stem}.{qualname}"))
        flagged += [owner.get(id(sub), path.stem) for sub in ast.walk(tree)
                    if isinstance(sub, ast.Name) and sub.id == DEFAULT_TOL
                    and isinstance(sub.ctx, ast.Load)
                    or isinstance(sub, ast.Attribute) and sub.attr == DEFAULT_TOL]
    return list(dict.fromkeys(flagged))


def test_every_entry_is_judged_at_the_run_tol():
    found = default_tol_readers(SRC)
    assert [f for f in found if f not in DEFAULT_TOL_READERS] == [], (
        f"{DEFAULT_TOL} read outside the allow-list")
    assert sorted(DEFAULT_TOL_READERS) == sorted(found), "stale allow-list entries"


def test_default_tol_guard_flags_a_fixed_mask(tmp_path):
    # a mutant whose kappa_map chooses its solved right-hand sides at the
    # default tolerance again, whatever the run's tol
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    base = tmp_path / "base_algebra.py"
    text = base.read_text()
    mask = "solved = res[:m] < fx.tol"
    assert mask in text
    base.write_text(text.replace(mask, "solved = res[:m] < RESIDUAL_TOL"))
    assert [f for f in default_tol_readers(tmp_path) if f not in DEFAULT_TOL_READERS] == [
        "base_algebra.kappa_map"]
