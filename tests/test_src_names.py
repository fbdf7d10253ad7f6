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

A parameter with a default counts as used when some call in
`src/equihilb` or a `bench/*.py` file passes it: by keyword, by position,
or through a `*` or `**` argument.  Calls are matched to a function by its
name alone, as members are, and a method's `self` or `cls` takes no
position of an attribute call.  Dunder methods and click commands are
skipped.
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


def _passes(tree):
    """(callee name, arguments passed by position, names passed by keyword)
    of each call in a parsed tree; a `*` argument passes every position and
    a `**` argument every name, shown as None."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = [k.arg for k in node.keywords]
            out.append((name, None if star else len(node.args),
                        None if None in keywords else set(keywords)))
    return out


def unpassed_src_defaults(root=ROOT):
    """(module, function or "Class.method", parameter) of each parameter with
    a default that no call in src or bench passes."""
    trees = [(path.stem, ast.parse(path.read_text()))
             for path in sorted((root / "src" / "equihilb").glob("*.py"))]
    calls = [call for _, tree in trees for call in _passes(tree)]
    for path in sorted((root / "bench").glob("*.py")):
        calls += _passes(ast.parse(path.read_text()))
    out = []
    for module, tree in trees:
        defs = [("", stmt, 0) for stmt in tree.body]
        defs += [(stmt.name + ".", member, 1) for stmt in tree.body
                 if isinstance(stmt, ast.ClassDef) for member in stmt.body]
        for prefix, fn, skip in defs:
            if not isinstance(fn, ast.FunctionDef) or not _defined(fn):
                continue
            if any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
                skip = 0
            args = fn.args
            positional = args.posonlyargs + args.args
            params = [(arg.arg, i - skip)
                      for i, arg in enumerate(positional)
                      if i >= len(positional) - len(args.defaults)]
            params += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            ours = [(npos, names) for name, npos, names in calls if name == fn.name]
            for param, pos in params:
                if not any((pos is not None and (npos is None or npos > pos))
                           or names is None or param in names for npos, names in ours):
                    out.append((module, prefix + fn.name, param))
    return out


def test_every_src_default_is_passed_outside_the_tests():
    assert unpassed_src_defaults() == []


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


def test_the_guard_flags_a_default_no_src_call_passes(tmp_path):
    _scratch_tree(
        tmp_path,
        "def main(a, by_pos=1, by_key=2, spare=3, *, only=4, spare_kw=5): pass\n"
        "def star(a=1, b=2): pass\n"
        "def double(a=1, *, b=2): pass\n"
        "class Fam:\n"
        "    def __init__(self, spare=1): pass\n"
        "    def count(self, a, step=1): pass\n"
        "    @staticmethod\n"
        "    def size(a, step=1): pass\n"
        "def use(xs, kw):\n"
        "    main(0, 1, by_key=2, only=3)\n"
        "    star(*xs)\n"
        "    double(**kw)\n"
        "    Fam().count(1, 2)\n"
        "    Fam.size(1)\n"
        "@main.command()\n"
        "def cmd(spare=1): pass\n"
    )
    assert unpassed_src_defaults(tmp_path) == [
        ("m", "main", "spare"), ("m", "main", "spare_kw"), ("m", "Fam.size", "step")]
