import mobsum


def test_all_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # ``from mobsum import *``
    missing = [name for name in mobsum.__all__ if not hasattr(mobsum, name)]
    assert not missing, missing
    assert len(set(mobsum.__all__)) == len(mobsum.__all__)


def test_private_helpers_are_used():
    # every private module-level function, class, method and constant of the
    # package is read somewhere in the package besides its own definition
    import ast
    from pathlib import Path

    trees = [ast.parse(p.read_text()) for p in sorted(Path(mobsum.__file__).parent.glob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = set()
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)) and item in tree.body:
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    defined.update(t.id for t in targets if isinstance(t, ast.Name))
    unused = sorted(n for n in defined - used if n.startswith("_") and not n.startswith("__"))
    assert not unused, unused


def test_bounds_imports_no_private_summatory_name():
    # whether a scan reads a held lane or streams it is decided inside
    # SummatoryTables, so the scans need none of summatory's private helpers
    import ast
    from pathlib import Path

    tree = ast.parse((Path(mobsum.__file__).parent / "bounds.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("summatory")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def test_public_options_are_set_by_some_caller():
    # every parameter with a default of an exported function, or of a public
    # method or constructor of an exported class, is passed by position or
    # keyword in some call under src/, tests/, bench/ or scripts/.  Calls
    # match by the called name or attribute (a constructor by its class
    # name), keywords given to functools.partial count for the function it
    # wraps, and an argument that only forwards a defaulted parameter of the
    # enclosing function counts once that parameter is passed itself.
    import ast
    from pathlib import Path

    root = Path(mobsum.__file__).parents[2]
    dirs = ("src", "tests", "bench", "scripts")
    trees = {p: ast.parse(p.read_text()) for d in dirs for p in sorted((root / d).rglob("*.py"))}

    def defaulted(fn: ast.FunctionDef, skip: int) -> dict:
        # parameter name -> its call position, None for a keyword-only one
        pos = (fn.args.posonlyargs + fn.args.args)[skip:]
        out = {a.arg: i for i, a in enumerate(pos) if i >= len(pos) - len(fn.args.defaults)}
        kw = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        return out | {a.arg: None for a, d in kw if d is not None}

    def called(f: ast.AST) -> str | None:
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    # every def under the four directories, by the name a call uses: a
    # method without its self, a constructor by its class name
    key: dict[ast.FunctionDef, str] = {}
    params: dict[str, list[dict]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(item, ast.FunctionDef):
                    key[item] = node.name if item.name == "__init__" else item.name
                    params.setdefault(key[item], []).append(defaulted(item, 1))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node not in key:
                key[node] = node.name
                params.setdefault(node.name, []).append(defaulted(node, 0))

    # (callee, parameter) pairs passed outright, and those passed only when
    # the enclosing function's own defaulted parameter is
    passed: set = set()
    forwards: list = []

    def visit(node: ast.AST, scope: ast.AST | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scope = node
        if isinstance(node, ast.Call):
            name, args = called(node.func), node.args
            if name == "partial" and args:
                name, args = called(args[0]), []
            outer = defaulted(scope, 0) if isinstance(scope, ast.FunctionDef) else {}
            for sig in params.get(name, []):
                for p, i in sig.items():
                    given = [kw.value for kw in node.keywords if kw.arg == p]
                    given += [args[i]] if i is not None and i < len(args) else []
                    for v in given:
                        if isinstance(v, ast.Name) and v.id in outer:
                            forwards.append(((key[scope], v.id), (name, p)))
                        else:
                            passed.add((name, p))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for tree in trees.values():
        visit(tree, None)
    while new := {dst for src, dst in forwards if src in passed} - passed:
        passed |= new

    # a test seam (SummatoryTables(block_size=)) counts as set
    assert ("SummatoryTables", "block_size") in passed
    unset = []
    for p in sorted(Path(mobsum.__file__).parent.glob("*.py")):
        for node in trees[p].body:
            if getattr(node, "name", None) not in mobsum.__all__:
                continue
            if isinstance(node, ast.ClassDef):
                defs = [
                    (m, 1)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and (m.name == "__init__" or not m.name.startswith("_"))
                ]
            else:
                defs = [(node, 0)]
            for fn, skip in defs:
                opts = defaulted(fn, skip)
                unset += [f"{key[fn]}({q}=)" for q in opts if (key[fn], q) not in passed]
    assert not unset, " ".join(sorted(unset))


def test_code_lines_script_counts_this_tree():
    # scripts/code_lines.py counts no docstring, comment or blank line, and
    # prints one row per module of src/mobsum and their total; against this
    # same tree the second column repeats the first
    import importlib.util
    import subprocess
    import sys
    from pathlib import Path

    root = Path(mobsum.__file__).resolve().parents[2]
    script = root / "scripts" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", script)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = (
        '"""doc"""\n\n# c\nx = (1,\n     # c\n     2)\n'
        'def f():\n    """d\n    e"""\n    return x\n'
    )
    assert code_lines.code_lines(source) == 4
    argv = [sys.executable, str(script), "--against", str(root)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    modules = sorted(p.name for p in (root / "src" / "mobsum").glob("*.py"))
    assert [r[0] for r in rows] == [*modules, "total"]
    counts = [int(r[1]) for r in rows]
    assert all(0 < c for c in counts) and sum(counts[:-1]) == counts[-1]
    assert all(r[1] == r[2] for r in rows)
