"""Source hygiene of the package: every imported name is used, every
private module-level name is read somewhere in the package, only
``distributions`` tells the NIG and GAL families apart, no module factors
through a generic sparse LU, importing the CLI
leaves the slow ``scipy.special`` unloaded, every name the benchmark's
tracer wraps exists, and the fit still calls through the wrapped
gradient."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nglatent"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no other part of the module
    reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _private_definitions(tree) -> dict:
    """Module-level private functions, classes and constants, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _reads(tree) -> set:
    """Names a module reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def unread_private_names(sources: dict) -> list:
    """Private module-level names that no module of ``sources`` (module
    name to source text) reads; ``__init__`` defines none that count."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    return sorted(
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        if module != "__init__"
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = (
        "import os\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]):\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["Sequence (line 2)", "os (line 1)"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_detects_an_unread_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_spare: int = 4\n"
            "def _used():\n"
            "    return _LIMIT\n"
            "def _left_over():\n"
            "    return 1\n"
            "class _Old:\n"
            "    pass\n"
        ),
        "b": "from .a import _used\n",
        "__init__": "_unread_in_init = 1\n",
    }
    assert unread_private_names(sources) == [
        "a._Old (line 7)",
        "a._left_over (line 5)",
        "a._spare (line 2)",
    ]


def family_names(source: str) -> list:
    """Where a module names the NIG or GAL family: the names ``NIG`` and
    ``GAL`` (read, imported or as attributes) and the literals "nig" and
    "gal"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value.upper()] if node.value in ("nig", "gal") else []
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names if name in ("NIG", "GAL")]
    return out


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE.glob("*.py") if p.name != "distributions.py"], ids=lambda p: p.name
)
def test_only_distributions_names_nig_or_gal(path):
    # the noise-family decision sits behind distributions: other modules
    # read a block's parameter names and GIG laws, never its family
    assert family_names(path.read_text()) == []


def test_detects_a_family_name():
    source = (
        '"""NIG noise in a docstring does not count."""\n'
        "from .distributions import GAUSSIAN, NIG\n"
        "def f(spec, d):\n"
        "    return spec.family == 'gal' or d.GAL\n"
    )
    assert family_names(source) == ["NIG (line 2)", "GAL (line 4)", "GAL (line 4)"]


def sparse_lu_uses(source: str) -> list:
    """Where a module imports ``scipy.sparse.linalg`` (whole, as a module
    or a name from it), reaches it as ``sparse.linalg``, or names
    ``splu``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
            owner = node.value
            if node.attr == "linalg" and getattr(owner, "id", getattr(owner, "attr", "")) == "sparse":
                names = ["scipy.sparse.linalg"]
        else:
            continue
        hits = [n for n in names if n == "splu" or n.startswith("scipy.sparse.linalg")]
        out += [f"{name} (line {node.lineno})" for name in hits]
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_generic_sparse_lu(path):
    # each operator solves through its own structure (LatentOperator.solve)
    # and supplies its own log-determinant; a second, generic factorization
    # path would bypass both
    assert sparse_lu_uses(path.read_text()) == []


def test_detects_a_generic_sparse_lu():
    source = (
        "import scipy.sparse.linalg\n"
        "from scipy.sparse import linalg\n"
        "from scipy.sparse.linalg import spsolve\n"
        "from scipy import sparse\n"
        "def f(K, b):\n"
        "    return sparse.linalg.spsolve(K, b), splu(K)\n"
    )
    assert sparse_lu_uses(source) == [
        "scipy.sparse.linalg (line 1)",
        "scipy.sparse.linalg (line 2)",
        "scipy.sparse.linalg.spsolve (line 3)",
        "splu (line 6)",
        "scipy.sparse.linalg (line 6)",
    ]


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special takes about 0.2 s to import, every CLI command pays its
    # imports, and only the Bessel helpers, the GAL prior and the GAL nu
    # gradient use it: they import it when they run
    code = "import sys, nglatent.cli; print('scipy.special' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert out.stdout.strip() == "False"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_existing_names():
    # perfbench/layers.py wraps package names where their callers look them
    # up; a renamed or deleted one fails here, not in a traced benchmark run
    import nglatent
    from nglatent import _linalg, cli, distributions, gibbs, gradients, inference, model, operators

    owners = [nglatent, _linalg.SpdFactor, cli, cli.RunConfig, distributions, gibbs,
              gibbs.GibbsChain, gradients, inference, model.Model, operators]
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_perfbench("tracer").Tracer()
    try:
        _load_perfbench("layers").install(tracer, nglatent)
        assert gibbs.GibbsChain.sweep is not before[owners.index(gibbs.GibbsChain)]["sweep"]
        assert inference.rb_gradient is not before[owners.index(inference)]["rb_gradient"]
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert [k for k, v in names.items() if after[k] is not v] == [], owner


def test_benchmark_tracer_sees_every_fit_gradient():
    # the benchmark's per-layer gradient metrics read the wrapped
    # inference.rb_gradient; a fit that stops calling through it would
    # report zero gradient calls and time.  One call serves all chains of
    # an iteration
    import nglatent
    from nglatent.distributions import NoiseSpec
    from nglatent.model import assemble_model, simulate
    from nglatent.operators import ar1_operator

    n = 20
    model = assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(0.5, n),
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
    )
    Y, _ = simulate(model, rng=np.random.default_rng(1))
    chains, iters = 2, 3
    tracer = _load_perfbench("tracer").Tracer()
    layers = _load_perfbench("layers")
    try:
        layers.install(tracer, nglatent)
        nglatent.map_fit(
            model, Y, nglatent.FitOptions(chains=chains, max_iters=iters, min_iters=iters, k=2)
        )
    finally:
        tracer.uninstall()
    metrics = layers.metrics(tracer, 0.0, 0.0, 0.0, 0.0)
    assert metrics["gradients.rb_calls"] == iters


def test_benchmark_tracer_sees_every_gig_draw():
    # the benchmark's per-layer GIG metrics read the wrapped
    # gig_sample_many; a sweep that stopped calling through it would report
    # zero draws and time
    import nglatent
    from nglatent.distributions import NoiseSpec
    from nglatent.gibbs import gibbs_run
    from nglatent.model import assemble_model, simulate
    from nglatent.operators import ar1_operator

    n, sweeps = 20, 5
    model = assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ar1_operator(0.5, n),
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
    )
    Y, _ = simulate(model, rng=np.random.default_rng(1))
    tracer = _load_perfbench("tracer").Tracer()
    layers = _load_perfbench("layers")
    try:
        layers.install(tracer, nglatent)
        gibbs_run(np.random.default_rng(2), model, None, Y, iters=sweeps, burnin=0)
    finally:
        tracer.uninstall()
    metrics = layers.metrics(tracer, 0.0, 0.0, 0.0, 0.0)
    assert metrics["distributions.gig_draws"] == n * sweeps
    assert metrics["distributions.gig_s"] > 0


@pytest.mark.parametrize("kind", ["tensor", "bivariate"])
def test_fit_converts_no_sparse_matrix_to_a_band(monkeypatch, kind):
    # every band on a fit's path, of Q and of the Matern K in the kernel
    # log-determinant, is laid out through index maps built with the model;
    # a band map built later (SpdFactor of a sparse matrix) serves callers
    # off that path only
    import nglatent
    from nglatent import _linalg
    from nglatent.distributions import NoiseSpec
    from nglatent.mesh import build_interval_mesh
    from nglatent.model import assemble_model, simulate
    from nglatent.operators import ar1_operator, bivariate_operator, matern_operator, tensor_operator

    mesh = build_interval_mesh(np.linspace(0.0, 4.0, 12))
    if kind == "tensor":
        op = tensor_operator(ar1_operator(0.5, 4), matern_operator(1.2, mesh))
    else:
        op = bivariate_operator(matern_operator(0.8, mesh), matern_operator(1.6, mesh), 2.5, 0.5)
    model = assemble_model(
        A=sparse.identity(op.dim, format="csr"),
        X=np.zeros((op.dim, 0)),
        op=op,
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
    )
    Y, _ = simulate(model, rng=np.random.default_rng(1))

    def refuse(*args, **kwargs):
        raise AssertionError("sparse-to-band conversion on the fit's path")

    monkeypatch.setattr(_linalg, "BandMap", refuse)
    options = nglatent.FitOptions(chains=2, max_iters=4, min_iters=4, k=2, sgld_samples=3)
    fit = nglatent.map_fit(model, Y, options)
    assert np.all(np.isfinite(fit.theta_map))
