"""Every top-level name in `src/equihilb`, and every class member, has a
caller outside the tests.

A `def`, `class` or constant counts as used when another top-level
statement of `src/equihilb`, a `bench/*.py` file or `pyproject.toml` names
it.  A method or class attribute counts as used under the same rule, where
the other statements of its own class count too.  Code that only the tests
call belongs in `tests/`.  Dunder names and click commands (which the
`main` group reaches by decoration) are skipped.  Members are matched by
name alone, so a used member hides an unused one of the same name in
another class.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names(tree):
    """Identifiers a parsed tree names: variables, attributes, imports, and
    dotted string constants such as the bench tracer's "Class.method"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                out.update(node.value.split("."))
    return out


def _defined(stmt):
    """The names a top-level or class-body statement defines, minus dunders
    and click commands."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        calls = [d.func for d in stmt.decorator_list if isinstance(d, ast.Call)]
        if any(isinstance(f, ast.Attribute) and f.attr in ("command", "group") for f in calls):
            return []
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        return []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unused_src_names(root=ROOT):
    """(module, name) of each top-level src name, and (module, "Class.member")
    of each class member, that no other statement uses."""
    outside = set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    for path in sorted((root / "bench").glob("*.py")):
        outside |= _names(ast.parse(path.read_text()))
    stmts = [(path.stem, stmt, _names(stmt))
             for path in sorted((root / "src" / "equihilb").glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]

    def unused(name, others):
        return name not in outside and not any(name in used for used in others)

    out = []
    for module, stmt, _ in stmts:
        others = [used for _, other, used in stmts if other is not stmt]
        out += [(module, name) for name in _defined(stmt) if unused(name, others)]
        if isinstance(stmt, ast.ClassDef):
            members = [(member, _names(member)) for member in stmt.body]
            for member, _ in members:
                near = others + [used for other, used in members if other is not member]
                out += [(module, "%s.%s" % (stmt.name, name))
                        for name in _defined(member) if unused(name, near)]
    return out


def test_every_src_name_has_a_caller_outside_the_tests():
    assert unused_src_names() == []


def _scratch_tree(root, source):
    """A checkout whose one src module m holds the source; pyproject names
    main and a bench file names Fam.count."""
    (root / "src" / "equihilb").mkdir(parents=True)
    (root / "bench").mkdir()
    (root / "pyproject.toml").write_text('equihilb = "equihilb.cli:main"\n')
    (root / "bench" / "jobs.py").write_text('POINTS = [("m", "Fam.count")]\n')
    (root / "src" / "equihilb" / "m.py").write_text(source)


def test_the_guard_flags_a_name_only_its_own_statement_uses(tmp_path):
    _scratch_tree(
        tmp_path,
        "__all__ = []\n"
        "LIMIT = 3\n"
        "def main(): pass\n"
        "def helper(): return LIMIT\n"
        "def orphan(n): return orphan(n - 1) + helper()\n"
        "class Fam: pass\n"
        "@main.command()\n"
        "def cmd(): pass\n"
    )
    assert unused_src_names(tmp_path) == [("m", "orphan")]


def test_the_guard_flags_a_member_only_its_own_statement_uses(tmp_path):
    _scratch_tree(
        tmp_path,
        "class Fam:\n"
        "    LIMIT = 3\n"
        "    SPARE = 1\n"
        "    __slots__ = ()\n"
        "    def __init__(self): self.n = self.LIMIT\n"
        "    def count(self): return self.n\n"
        "    def size(self): return self.n\n"
        "    def step(self): return self.n + 1\n"
        "    def walk(self): return self.walk()\n"
        "def main(): return Fam().size() + Other().climb()\n"
        "class Other:\n"
        "    def climb(self): return self.step()\n"
        "    def orphan(self): pass\n"
    )
    assert unused_src_names(tmp_path) == [
        ("m", "Fam.SPARE"), ("m", "Fam.walk"), ("m", "Other.orphan")]
