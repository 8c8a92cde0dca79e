"""The package surface: every public name serves a caller or the paper.

Each module of ``src/freejacobi`` and each script of ``scripts`` is parsed
with ``ast``.  A name in a module's ``__all__`` must be loaded (called,
read or subclassed) somewhere in those files other than in its own
definition and in the re-exports of ``__init__.py``, or be one of the
paper's names below, which the package keeps although nothing in it calls
them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freejacobi"

PAPER_NAMES = {
    "chebyshev_U": "the second-kind Chebyshev family every family combines",
    "chebyshev_T": "the first-kind Chebyshev family, half of P_lambda at "
                   "lam = 1",
    "theta_one": "the kernel theta(u) of multiplicative renormalization",
    "theta_ratio": "the kernel Theta_rho(u, v) whose product dependence is "
                   "certified",
    "stieltjes_invert": "the density recovered from the Cauchy transform",
    "pushforward_affine": "the affine image of a law, as mu is of nu",
    "stated_params": "the Jacobi-Szego parameters as the paper states them",
    "stationary_moments": "the moments of mu from the drift's fixed point",
}


def _parse(paths):
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def _exports(tree):
    """The names of a module's ``__all__``, and its top-level definitions
    by name."""
    names, defs = [], {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names = [elt.value for elt in node.value.elts]
    return names, defs


def _loads(tree, skip=()):
    """Names loaded in a tree, as a name or an attribute, outside the nodes
    of ``skip``."""
    skipped = {id(n) for node in skip for n in ast.walk(node)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.add(node.attr)
    return out


def test_every_public_name_has_a_caller_or_is_the_papers():
    modules = _parse(sorted(PACKAGE.glob("*.py")))
    modules.pop(PACKAGE / "__init__.py")
    callers = {**modules, **_parse(sorted((ROOT / "scripts").glob("*.py")))}
    uncalled = []
    for path, tree in modules.items():
        names, defs = _exports(tree)
        for name in names:
            own = [defs[name]] if name in defs else []
            if name not in PAPER_NAMES and not any(
                    name in _loads(t, own if p == path else ())
                    for p, t in callers.items()):
                uncalled.append(f"{path.stem}.{name}")
    assert uncalled == []


def test_paper_names_exist():
    public = set()
    for tree in _parse(sorted(PACKAGE.glob("*.py"))).values():
        public.update(_exports(tree)[0])
    assert sorted(set(PAPER_NAMES) - public) == []


def test_no_library_module_but_the_cli_imports_renorm():
    # The family table, with its data, variants and laws, lives in
    # measures.  renorm (theta kernels, certification, Gram matrices,
    # build_*) reads it, and of the library only the command line and the
    # package's re-exports read renorm.
    importers = []
    for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items():
        if path.stem in ("cli", "__init__"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "renorm" for n in names):
                importers.append(path.stem)
    assert importers == []
