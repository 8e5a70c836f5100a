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
