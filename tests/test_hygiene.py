"""Static hygiene of the package source, checked with the stdlib ``ast``.

No linter is a dependency of the project, so this is its lint step: every
name a module or a test file (``conftest.py`` included) imports must be
used in that file, and every module-level private (``_name``) function or
class must be referenced somewhere in ``src/`` or ``tests/``.  The rules
cover every file of the package: ``__init__.py`` holds only its docstring,
so a bare ``import hypns`` loads no submodule and no numpy, and each name
has one import path, its submodule.

No module may call a BLAS-backed product (``vdot``, ``dot``, ``inner``,
``matmul``, ``tensordot`` or the ``@`` operator) or reach LAPACK
(``polyfit``, ``lstsq``, any ``linalg`` attribute or import).  A BLAS call wakes
OpenBLAS's thread pool, whose threads spin on after it returns and take the
CPU from the other workers of the experiment pool; reductions are written
as elementwise products and sums.  LAPACK costs memory even when called
once: the ``np.polyfit`` that ``fit_rate`` made at the end of every sweep
raised the peak RSS of a fresh-process ``converge_3d`` benchmark sample
by 1.0-1.1 MiB (54.7 to 55.8 MiB), so the rate fit is a closed-form least
squares.

``numpy.fft`` transforms may be called only in ``spectral.py`` and
``initial_data.py``, and there only by the pruned box passes
``_box_rfftn`` and ``_box_irfftn``, the whole transforms ``transform`` and
``inverse_transform`` and the seeded noise's ``_seeded_spectrum``.  So
every transform of a step goes through the pruned passes, whose counts
``tests/test_fft_counts.py`` derives.

The 2/3-rule box layout is ``spectral.py``'s own: no other module may
reference ``box_blocks``, ``box_rows`` or the table form of the projection
``_leray_inplace``.  The solvers reach the box through ``box_gather``,
``box_add`` and the box kernel ``_box_forcing``, the seeded data through
``_leray_full``.

Each rule is written once.  The box kernel ``_box_forcing`` is read only
by the rules built on it: ``convection_term``, ``ns.dt_v`` and the two
steppers' ``step``.  ``diagnostics.py`` imports no private name, so its
checks reach the kernel through those public rules, not through second
copies of them.  The modulated energy has one rule too:
``WaveState.modulated_density`` is called only by the wave energy's
``energy_density`` and by ``diagnostics.dafermos_energy``, which the
energy report reads rather than writing the sum out again.

A field's coefficients are copied once.  Only ``experiments.load_field``,
which reads them from a file, calls the copying ``SpectralField``
constructor; every array the package makes itself is wrapped by
``spectral._adopt``.  Every field of a module-level dataclass is read
somewhere: a field that is only ever set is a record nobody keeps.

The reference field has one builder: only ``experiments._reference_data``
calls ``build_reference_field``.  A pool worker of a convergence sweep
takes v0 from the reference run it was sent, so each process holds one
reference field and one ``Grid``.

Each solver judges a sample once.  ``ns.march`` only steps and yields: it
calls no ``isinstance`` and no failure check.  ``_check_finite`` is read
only by ``ns_solve``; the wave's one test is its energy ceiling.

Every option is one a run sets.  A config key must be set by a workload,
an acceptance criterion or the README, and a parameter of a function or
method in ``src/hypns/`` whose default is not ``None`` must be passed by
some call in ``src/`` or ``bench/``.  A value that only tests change is a
module constant, which those tests monkeypatch.

``ctypes`` may be imported only in ``ns.py``, whose ``_keep_heap`` is the
one platform-specific call into the C library (the allocator policy).

No module may import ``multiprocessing`` or ``concurrent.futures`` at module
level.  Only a ``jobs > 1`` run uses the process pool; while ``import hypns``
loaded ``concurrent.futures.process`` it took 191 ms instead of 148 ms and
1.4 MiB more RSS (medians of 15 fresh interpreters, 2-vCPU VM), so the pool
class is imported on first use (``experiments.__getattr__``).
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from hypns.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypns"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(tree):
    """Every identifier read as a name or an attribute in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


BLAS_PRODUCTS = {"vdot", "dot", "inner", "matmul", "tensordot", "polyfit", "lstsq"}


def blas_products(path):
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BLAS_PRODUCTS:
                found.append(f"{path.name}:{node.lineno}: {name}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"{path.name}:{node.lineno}: linalg")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name.split(".") for name in names):
                found.append(f"{path.name}:{node.lineno}: linalg")
    return found


FFT_TRANSFORMS = {
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
}


def fft_transform_calls(path):
    """Calls of ``<...>.fft.<transform>`` and of transforms imported from ``numpy.fft``."""
    tree = parse(path)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
        for alias in node.names
        if alias.name in FFT_TRANSFORMS
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        via_module = (
            isinstance(func, ast.Attribute)
            and func.attr in FFT_TRANSFORMS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "fft"
        )
        if via_module or (isinstance(func, ast.Name) and func.id in imported):
            found.append(f"{path.name}:{node.lineno}")
    return found


def fft_calling_functions(path):
    """``<file>:<function>`` of the innermost function around each call of
    ``fft_transform_calls``; ``<file>:<module>`` outside every function."""
    defs = [node for node in ast.walk(parse(path)) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = set()
    for call in fft_transform_calls(path):
        line = int(call.rsplit(":", 1)[1])
        around = [d for d in defs if d.lineno <= line <= d.end_lineno]
        found.add(f"{path.name}:{max(around, key=lambda d: d.lineno).name if around else '<module>'}")
    return found


def imported_modules(path):
    """Top-level names of the modules a file imports absolutely."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def imported_names(path):
    """Names a file imports with ``from ... import``."""
    return {
        alias.name for node in ast.walk(parse(path)) if isinstance(node, ast.ImportFrom) for alias in node.names
    }


def module_level_imports(path):
    """Dotted names of the modules a file imports outside function bodies;
    ``from a import b`` gives both ``a`` and ``a.b``."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
                found.extend(f"{child.module}.{alias.name}" for alias in child.names)
            visit(child)

    visit(parse(path))
    return found


POOL_MODULES = ("multiprocessing", "concurrent.futures")


def unused_imports(path):
    tree = parse(path)
    used = referenced_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{path.name}: {bound}")
    return found


def unreferenced_private_defs():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    used = set().union(*(referenced_names(parse(p)) for p in sources))
    found = []
    for path in MODULES:
        for node in parse(path).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and node.name.startswith("_") and node.name not in used:
                found.append(f"{path.name}: {node.name}")
    return found


def test_every_import_is_used():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert ROOT / "tests" / "conftest.py" in tests
    assert [f for path in [*MODULES, *tests] for f in unused_imports(path)] == []


def test_every_private_definition_is_referenced():
    assert unreferenced_private_defs() == []


def test_no_blas_products():
    assert [f for path in sorted(PACKAGE.glob("*.py")) for f in blas_products(path)] == []


FFT_FUNCTIONS = {
    "spectral.py:_box_rfftn",
    "spectral.py:_box_irfftn",
    "spectral.py:transform",
    "spectral.py:inverse_transform",
    "initial_data.py:_seeded_spectrum",
}


def test_fft_transforms_only_where_counted():
    found = set().union(*(fft_calling_functions(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert found == FFT_FUNCTIONS


def test_pool_modules_not_imported_at_module_level():
    assert "numpy" in module_level_imports(PACKAGE / "spectral.py")  # the rule sees imports
    eager = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in module_level_imports(path)
        if any(name == m or name.startswith(m + ".") for m in POOL_MODULES)
    ]
    assert eager == []


def test_package_import_loads_nothing():
    # a fresh interpreter: this one has imported every submodule already
    code = "import sys, hypns\nprint(*sorted(m for m in sys.modules if m.startswith(('hypns.', 'numpy'))))\n"
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


BOX_INTERNALS = {"box_blocks", "box_rows", "_leray_inplace"}


def test_box_layout_only_in_spectral():
    assert BOX_INTERNALS <= referenced_names(parse(PACKAGE / "spectral.py"))  # the rule sees the names
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "spectral.py"
        for name in sorted(BOX_INTERNALS & (referenced_names(parse(path)) | imported_names(path)))
    ]
    assert found == []


def scopes_of(path, hit):
    """``<file>:<function>`` of the innermost function around each node for
    which ``hit`` holds, a method as ``Class.method``; ``<file>:<module>``
    outside every function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif hit(child):
                found.add(f"{path.name}:{scope or '<module>'}")
            visit(child, inner)

    visit(parse(path), "")
    return found


def reads_name(node, name):
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def name_readers(path, name):
    """The scopes (``scopes_of``) of each read of ``name``."""
    return scopes_of(path, lambda node: reads_name(node, name))


def name_callers(path, name):
    """The scopes (``scopes_of``) of each call of ``name``."""
    return scopes_of(path, lambda node: isinstance(node, ast.Call) and reads_name(node.func, name))


BOX_FORCING_READERS = {
    "spectral.py:convection_term",
    "ns.py:dt_v",
    "ns.py:_NsStepper.step",
    "nlw.py:_NlwStepper.step",
}


def test_box_kernel_read_only_by_its_rules():
    found = set().union(*(name_readers(path, "_box_forcing") for path in MODULES))
    assert found == BOX_FORCING_READERS


def test_diagnostics_imports_no_private_name():
    names = imported_names(PACKAGE / "diagnostics.py")
    assert "WaveState" in names  # the rule sees the imports
    assert sorted(n for n in names if n.startswith("_")) == []


def test_field_constructor_called_only_by_load_field():
    found = set().union(*(name_callers(path, "SpectralField") for path in MODULES))
    assert found == {"experiments.py:load_field"}


def test_reference_field_built_only_by_reference_data():
    found = set().union(*(name_callers(path, "build_reference_field") for path in MODULES))
    assert found == {"experiments.py:_reference_data"}


def test_modulated_density_read_only_by_the_energies():
    found = set().union(*(name_callers(path, "modulated_density") for path in MODULES))
    assert found == {"nlw.py:WaveState.energy_density", "diagnostics.py:dafermos_energy"}


def test_finite_check_read_only_by_ns_solve():
    found = set().union(*(name_readers(path, "_check_finite") for path in MODULES))
    assert found == {"ns.py:ns_solve"}


# calls that judge a sample or branch on its form
FAILURE_CHECKS = {"isinstance", "_check_finite", "isfinite", "SolverFailure"}


def test_march_only_steps():
    march = next(node for node in ast.walk(parse(PACKAGE / "ns.py"))
                 if isinstance(node, ast.FunctionDef) and node.name == "march")
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
              for n in ast.walk(march) if isinstance(n, ast.Call)}
    assert "plan_steps" in called  # the rule sees the calls
    assert sorted(called & FAILURE_CHECKS) == []
    assert not any(isinstance(n, ast.Raise) for n in ast.walk(march))


def test_ctypes_only_in_ns():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py")) if "ctypes" in imported_modules(p)]
    assert importers == ["ns.py"]


# The benchmark under ``bench/`` wraps and calls the package by name.  A
# traced run reports a name it cannot find as ``absent`` and its metric as
# None, so a removed or renamed entry point would turn a run incorrect
# rather than fail a test.  These checks read ``bench/`` with ``ast`` and
# import nothing from it.
BENCH = ROOT / "bench"


def module_constant(path, name):
    """The literal value assigned to the module-level ``name`` in ``path``."""
    for node in parse(path).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def microbenchmark_targets(path):
    """``(module, name)`` of every ``(module, "name", ...)`` tuple in ``path``."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, name = node.elts[:2]
            if isinstance(module, ast.Name) and isinstance(name, ast.Constant) and isinstance(name.value, str):
                found.append((module.id, name.value))
    return found


def missing_attributes(targets):
    return [f"hypns.{m}.{a}" for m, a in targets if not hasattr(importlib.import_module(f"hypns.{m}"), a)]


def test_bench_traced_entry_points_exist():
    entries = module_constant(BENCH / "tracer.py", "LAYER_ENTRY_POINTS")
    pool = module_constant(BENCH / "tracer.py", "POOL_SPAN")
    assert len(entries) > 1  # the rule sees the names it governs
    assert missing_attributes([(module, attr) for _, module, attr in (*entries, pool)]) == []


def test_bench_microbenchmark_targets_exist():
    targets = microbenchmark_targets(BENCH / "worker.py")
    assert {m for m, _ in targets} == {"spectral", "nlw"}  # the rule sees the calls it governs
    assert missing_attributes(targets) == []


# A config key must be one that a run sets: a workload (a keyword of a
# ``dict(...)`` call or a subscript store in ``bench/workloads.py``), an
# acceptance criterion (a keyword of an ``ExperimentConfig(...)`` call in
# ``tests/test_acceptance.py``) or the README (a ``key = ...`` line of an
# example config; a key that its prose only names is set by no run).  A
# key that nothing sets is a setting nobody turns.


def call_keywords(tree, name):
    """Keywords of every call of the plain name ``name`` in the tree."""
    return {
        k.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        for k in node.keywords
    }


def config_keys_set(workloads, acceptance, readme):
    """Keys set by the sources of the workloads and the acceptance
    criteria and by the README's ``key = value`` lines, its example
    configs: a key that the README's prose only names sets nothing."""
    tree = ast.parse(workloads)
    stores = {
        getattr(node.slice, "value", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
    }
    found = call_keywords(tree, "dict") | stores | call_keywords(ast.parse(acceptance), "ExperimentConfig")
    return found | set(re.findall(r"^\s*(\w+) = ", readme, re.MULTILINE))


def test_every_config_key_is_set_by_a_run():
    planted = config_keys_set("w = dict(dim=2)\nw['n'] = 8\n", "ExperimentConfig(s=0.5)\n", "`T` and\n    dt = 1\n")
    assert planted == {"dim", "n", "s", "dt"}  # the rule sees each form, and no prose mention
    paths = (BENCH / "workloads.py", ROOT / "tests" / "test_acceptance.py", ROOT / "README.md")
    keys = config_keys_set(*(p.read_text(encoding="utf-8") for p in paths))
    assert sorted({f.name for f in fields(ExperimentConfig)} - keys) == []


# The same holds for the parameters of the package's functions and
# methods: a parameter whose default is not ``None`` must be passed by some
# call in ``src/`` or ``bench/``, by keyword or by position.  A ``*args`` or
# ``**kwargs`` at a call counts for every parameter it could fill.  A call
# is matched by the callable's name (``f(...)`` or ``x.f(...)``), an
# ``__init__`` by its class's name.  A default that only tests override is
# a constant; ``None`` marks an argument a caller may leave out.


def defaulted_parameters(tree, prefix):
    """``(label, called name, position, parameter)`` of each parameter of a
    function or method in ``tree`` whose default is not ``None``.  The
    label is ``prefix.qualified name``; the position is the parameter's
    index among the arguments a call passes (a method's ``self`` is not
    one), or None for a keyword-only parameter."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner)
                continue
            args = child.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            bound = 1 if owner and not static else 0
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(i - bound, p.arg, d) for i, (p, d) in enumerate(zip(positional[first:], args.defaults), first)]
            params += [(None, p.arg, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            called = owner if child.name == "__init__" else child.name
            label = f"{prefix}.{owner + '.' if owner else ''}{child.name}"
            for position, name, default in params:
                if not (isinstance(default, ast.Constant) and default.value is None):
                    found.append((label, called, position, name))
            visit(child, None)

    visit(tree, None)
    return found


def passes(call, position, name):
    """Whether ``call`` passes the parameter ``name`` at ``position``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(sources, callers):
    """``module.function: names`` of each function or method of ``sources``
    (module name to source text) with defaulted parameters that no call in
    ``callers`` (source texts) passes."""
    calls = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = {}
    for module, text in sources.items():
        for label, called, position, name in defaulted_parameters(ast.parse(text), module):
            if not any(passes(call, position, name) for call in calls.get(called, ())):
                unset.setdefault(label, []).append(name)
    return [f"{label}: {', '.join(names)}" for label, names in unset.items()]


PLANTED_DEFAULTS = """
def solve(x, steps=10, tol=1e-6, observer=None, *, mode="fast"):
    return x

def tune(rate=0.5):
    return rate

class Stepper:
    def __init__(self, dt=0.1):
        self.dt = dt

    def step(self, u, scale=1.0, clip=False):
        return u

    @staticmethod
    def make(n=4):
        return n
"""

PLANTED_CALLS = """
solve(1, 20)
tune(**options)
Stepper().step(0, clip=True)
Stepper.make(*sizes)
"""


def test_parameter_rule_flags_planted_defaults():
    found = unset_parameters({"planted": PLANTED_DEFAULTS}, [PLANTED_CALLS])
    assert found == ["planted.solve: tol, mode", "planted.Stepper.__init__: dt", "planted.Stepper.step: scale"]


def test_every_parameter_default_is_set_by_a_run():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in (*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py"))]
    assert unset_parameters(sources, callers) == []


# A public name in ``src/hypns`` must serve a run: something in ``src/``
# other than its own definition, the benchmark under ``bench/`` or the
# acceptance criteria (``tests/test_acceptance.py``) must reference it.
# Oracles and helpers that only their own tests call belong in ``tests/``.
# The names that ``bench/`` wraps or times by string count as references.
#
# The same holds for the public methods and properties of module-level
# classes, with the reference an attribute ``x.name`` outside the member's
# own body.  The rule cannot tell the receiver's type, so an attribute that
# a builtin type also has (``ratios.values()`` on a dict) counts for no
# class: a member named so is always reported.
#
# A field of a module-level dataclass must be read: an attribute load
# ``x.field`` in ``src/`` outside its own class, in ``bench/`` or in
# ``tests/``.  A field that is only ever set is a record nobody keeps.


def defined_names(node):
    """Names a module-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


BUILTIN_MEMBERS = {name for t in (dict, list, set, frozenset, tuple, str) for name in dir(t)}


def attributes(tree):
    """Every attribute name read in the tree, once per occurrence."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def public_members(tree):
    """``(class name, method)`` of each public method and property of the
    module-level classes of ``tree``."""
    return [
        (node.name, item)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def unreferenced_public_names(sources, outside):
    """``file: name`` of each public module-level name defined in ``sources``
    (file name to source text) that no statement of ``sources`` references
    outside its own definition and that ``outside`` does not hold, then
    ``file: Class.member`` of each such public member."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set(outside)
    for tree in trees.values():
        for node in tree.body:
            used |= referenced_names(node) - defined_names(node)
    found = [
        f"{name}: {defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in sorted(defined_names(node))
        if not defined.startswith("_") and defined not in used
    ]
    reads = sum(map(attributes, trees.values()), Counter())
    for name, tree in trees.items():
        for cls, member in public_members(tree):
            elsewhere = reads[member.name] > attributes(member)[member.name] or member.name in outside
            if member.name in BUILTIN_MEMBERS or not elsewhere:
                found.append(f"{name}: {cls}.{member.name}")
    return found


def attribute_loads(tree):
    """Every attribute name loaded (read, not stored) in the tree, once per
    occurrence."""
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def dataclass_fields(tree):
    """``(class node, field)`` of each field of the module-level dataclasses
    of ``tree``."""
    return [
        (node, item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def unread_fields(sources, outside):
    """``file: Class.field`` of each dataclass field of ``sources`` (file
    name to source text) that no statement of ``sources`` loads outside
    its own class and that ``outside`` does not hold."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum(map(attribute_loads, trees.values()), Counter())
    return [
        f"{name}: {cls.name}.{field}"
        for name, tree in trees.items()
        for cls, field in dataclass_fields(tree)
        if reads[field] == attribute_loads(cls)[field] and field not in outside
    ]


def run_path_references():
    """Names referenced by ``bench/`` (its string tables included) and by
    the acceptance criteria."""
    used = set().union(*(referenced_names(parse(p)) for p in BENCH.glob("*.py")))
    used |= {name for _, name in microbenchmark_targets(BENCH / "worker.py")}
    entries = module_constant(BENCH / "tracer.py", "LAYER_ENTRY_POINTS")
    used |= {attr for _, _, attr in (*entries, module_constant(BENCH / "tracer.py", "POOL_SPAN"))}
    return used | referenced_names(parse(ROOT / "tests" / "test_acceptance.py"))


PLANTED = """
LIMIT = 3

def entry():
    return helper() + LIMIT

def helper():
    return 1

def orphan(k):
    return orphan(k - 1) if k else 0

def _private():
    return 0

class Unused:
    pass

class Box:
    size: int = 0

    def read(self):
        return self.size + entry()

    def orphan_method(self):
        return self.orphan_method()

    def values(self):
        return {}.values()

    def _hidden(self):
        return 0

def reader(box):
    return box.read() + box.values()
"""


def test_public_name_rule_flags_planted_orphans():
    found = unreferenced_public_names({"planted.py": PLANTED}, outside={"entry", "Box", "reader"})
    members = ["planted.py: Box.orphan_method", "planted.py: Box.values"]
    assert found == ["planted.py: orphan", "planted.py: Unused", *members]
    assert {"linf_norm", "ProcessPoolExecutor", "run_convergence"} <= run_path_references()


def test_every_public_name_serves_a_run():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_public_names(sources, run_path_references()) == []


PLANTED_RECORDS = """
@dataclass(frozen=True)
class Kept:
    read: int
    written: int

    def twice(self):
        return 2 * self.written

@dataclass
class Mutable:
    count: int = 0

def bump(m):
    m.count = Kept(1, 2).read
"""


def test_field_rule_flags_planted_write_only_fields():
    found = unread_fields({"planted.py": PLANTED_RECORDS}, outside=set())
    assert found == ["planted.py: Kept.written", "planted.py: Mutable.count"]


def test_every_dataclass_field_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    outside = set().union(*(attribute_loads(parse(p)) for p in (*BENCH.glob("*.py"), *(ROOT / "tests").glob("*.py"))))
    assert unread_fields(sources, outside) == []
