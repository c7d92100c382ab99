"""Source-level guards on the package."""

import ast
from pathlib import Path

import tempest
from tempest import errors

PACKAGE = Path(tempest.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert; invariants must raise explicit exceptions
    found = []
    for path in sorted(PACKAGE.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_every_error_type_is_raised():
    # an exception type nothing raises is dead API; TempestError is the base
    raised = set()
    for path in sorted(PACKAGE.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.TempestError)}
    unused = sorted(defined - raised - {"TempestError"})
    assert not unused, f"error types never raised in the package: {unused}"


def test_arpack_calls_pass_v0():
    # ARPACK's default start vector is random: without v0 results move in
    # their last bits from call to call
    found = []
    for path in sorted(PACKAGE.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("eigs", "eigsh") and "v0" not in {k.arg for k in node.keywords}:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"ARPACK calls without v0: {found}"


def _referenced_names(module: str) -> set:
    """Every name and attribute the module refers to or defines, imported names included."""
    tree = ast.parse((PACKAGE / module).read_text())
    return {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))} \
        | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
           for alias in node.names} \
        | {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_cli_reaches_certificates_through_the_registry():
    # certify, CERTIFICATES and threshold_in_beta are the CLI's one door to a verdict
    direct = {"certify_amai_ct", "certify_amei_ct", "certify_amei_dt", "certify_homogeneous"}
    assert not direct & _referenced_names("cli.py")


def test_oracle_leaves_the_abscissa_solver_to_spectral():
    # spectral_abscissa alone picks between dense and iterative solvers, and
    # alone calls ARPACK
    assert not {"eigvals", "eigs", "eigsh"} & _referenced_names("oracle.py")


def test_graphs_and_thresholds_leave_the_abscissa_solver_to_spectral():
    # every abscissa of a mean matrix or a certificate goes through spectral_abscissa
    for module in ("graphs.py", "thresholds.py"):
        assert not {"eigvals", "eigvalsh"} & _referenced_names(module), module


def test_one_discrete_time_path():
    # every DT edge steps in the lane kernel: no dense sampled path, no fork
    assert not {"sample_graph_path", "_dt_fast"} & _referenced_names("simulate.py")


def test_one_certificate_maximizer():
    # the zoom refines every bracket in one vectorized call per pass; the
    # one-point golden-section search is gone
    assert "_golden_max" not in _referenced_names("spectral.py")


def test_one_perron_loop():
    # power_iteration_abscissa is the one Perron loop: _certified_abscissa
    # starts it from the Ritz vector and has no loop, step cap or bracket
    # tolerance of its own
    assert not {"_POLISH_STEPS", "_POWER_TOL", "_collatz_wielandt_bracket"} \
        & _referenced_names("spectral.py")
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_certified_abscissa")
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(func)}
    assert "power_iteration_abscissa" in names and "_CERTIFY_RTOL" not in names
    loops = [node.lineno for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]
    assert not loops, f"_certified_abscissa loops at lines {loops}"


def test_one_chain_layout():
    # EdgeTable.layout alone tells MARKOV2 rows from chain templates; the
    # simulators and the oracle read its arrays
    for module in ("simulate.py", "oracle.py"):
        assert not {"MARKOV2", "CHAIN0", "jump_tables", "chains"} & _referenced_names(module), \
            module
    # the per-edge samplers are gone: graph paths step every edge from the layout
    for path in sorted(PACKAGE.glob("**/*.py")):
        names = _referenced_names(str(path.relative_to(PACKAGE)))
        assert not {"sample_edge_path", "sample_chain_path_ct", "sample_chain_path_dt"} & names, \
            path.name


def test_one_cell_rule():
    # graphs.arcs alone decides which adjacency cells an edge writes: no
    # simulator or oracle code compares a kind with AMEI to mirror a cell
    for module in ("simulate.py", "oracle.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                 and any(getattr(op, "id", None) == "AMEI"
                         for op in [node.left, *node.comparators])]
        assert not found, f"{module} compares with AMEI at lines {found}"


def test_one_builder_per_certificate_route():
    # T1 and T2 share one template, and each route's report is written in one
    # place: the keys "interval_empty" and "trivial_regime" occur once each in
    # thresholds.py, as a string or a keyword
    tree = ast.parse((PACKAGE / "thresholds.py").read_text())
    assert "_maximized_report" not in _referenced_names("thresholds.py")
    for key in ("interval_empty", "trivial_regime"):
        uses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == key
                or isinstance(node, ast.keyword) and node.arg == key]
        assert len(uses) == 1, f"{key} written at lines {uses}"



def test_scripts_drive_the_public_cli():
    # the scripts reach tempest through public names only, and the Section IV
    # script through tempest.cli alone: figure456 is the one Section IV pipeline
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> the dotted tempest name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tempest":
                imported.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
            elif isinstance(node, ast.Import):
                for a in node.names:  # "import tempest.x" binds tempest, "... as y" tempest.x
                    if a.name.split(".")[0] == "tempest":
                        imported[a.asname or "tempest"] = a.name if a.asname else "tempest"
        used = set(imported.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in imported:
                    used.add(f"{imported[root.id]}.{ast.unparse(node).partition('.')[2]}")
        private = sorted(name for name in used if any(p.startswith("_") for p in name.split(".")))
        assert not private, f"{path.name} refers to private tempest names: {private}"
        if path.name == "reproduce_section_iv.py":
            assert set(imported.values()) == {"tempest.cli"}
        # and no other script runs a Section IV pipeline of its own
        names_figure456 = any(isinstance(node, ast.Constant) and node.value == "figure456"
                              for node in ast.walk(tree))
        assert names_figure456 == (path.name == "reproduce_section_iv.py"), path.name


def test_only_rng_builds_random_streams():
    # every draw comes from a tagged Philox stream of rng.py, as the README
    # promises: no other module seeds or builds a generator of its own
    constructors = {"default_rng", "Generator", "Philox", "SeedSequence", "RandomState"}
    found = []
    for path in sorted(PACKAGE.glob("**/*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.split(".")[-1] in constructors or name.endswith("random.seed"):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} from {node.module}")
            elif isinstance(node, ast.Attribute) and node.attr == "RandomState":
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} RandomState")
    assert not found, f"random streams built outside rng.py: {found}"


def test_er_builder_holds_no_per_pair_table():
    # graph_er_iv draws n(n - 1)/2 pairs in chunks: a full index table or a
    # list of Python tuples would make its memory O(n^2)
    tree = ast.parse((PACKAGE / "graphs.py").read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "graph_er_iv")
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(body) if isinstance(node, ast.Call)}
    assert not {"triu_indices", "tolist"} & called


def test_graph_files_are_read_into_table_rows():
    # graph_from_json turns each model into a table row: only a Coxian edge,
    # a chain template, becomes an object, and no other object route remains
    tree = ast.parse((PACKAGE / "graphs.py").read_text())
    bodies = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name in ("graph_from_json", "_row_from_json")]
    assert len(bodies) == 2
    names = {getattr(node, "id", getattr(node, "attr", None))
             for body in bodies for node in ast.walk(body)}
    assert not {"build_edge_markovian", "build_static_edge", "from_edges",
                "EdgeProcessModel"} & names
    assert not hasattr(tempest.DynamicGraphModel, "edges")
    assert not hasattr(tempest.EdgeTable, "edge")


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _names_in(node) -> set:
    return {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)}


def test_one_bisection_walk():
    # spectral.descend is the one walk along bisection's midpoints: the kappa
    # root and the threshold search both follow it, and neither loops itself
    func = _function("spectral.py", "kappa_inv_at_one")
    assert "descend" in _names_in(func)
    loops = [node.lineno for node in ast.walk(func) if isinstance(node, ast.For)]
    assert not loops, f"kappa_inv_at_one loops at lines {loops}"
    assert "descend" in _referenced_names("thresholds.py")


def test_one_seeded_stream_helper():
    # rng.py alone turns "an int or a Generator" into a run's stream
    for path in sorted(PACKAGE.glob("**/*.py")):
        if path.name == "rng.py":
            continue
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)}
        assert not {"as_generator", "_stream"} & defined, path.name


def test_contact_factor_counts_rows_without_a_membership_product():
    # _contact counts rows by sums over each node's cells and reads entries by
    # mask: no float32 membership product, no int64 flat index
    assert not {"float32", "flatnonzero"} & _names_in(_function("oracle.py", "_contact"))


def test_cli_spectra_reads_the_certificates_values():
    # the spectra task takes eta and mu of B Abar - D from thresholds._mix,
    # the builder every certificate uses, and solves nothing by hand
    assert not {"spectral_abscissa", "matrix_measure"} & _referenced_names("cli.py")
