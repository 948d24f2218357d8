"""The package's source and its public namespace.

No lint tool runs with the tests, so an import that nothing uses is caught
here: every name a module imports is used in it, listed in its ``__all__``,
or imported on a line marked ``# noqa: F401``. So is dead code: every
method, and every ``_private`` module-level function, is referred to
somewhere in the package outside its own body.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest

import proxsel
from proxsel import lasso

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "proxsel").glob("*.py"))

MODULES = ("exceptions", "linalg", "identification", "estimators", "simulation", "data_io")

#: The names the package exported before ``__all__`` was built from its
#: modules' own lists; each must stay exported.
EXPORTED = (
    "__version__",
    "ProxselError", "RankDeficient", "EmptySupport", "CombinatorialBlowup",
    "InvalidBound", "AssumptionViolation", "SingularBlock", "NoConvergence",
    "DegenerateTreatment", "AggregateFailure", "MissingColumn", "ParseError",
    "EmptyAfterFiltering", "ConfigError", "IoError", "WeakProxyWarning",
    "OlsFit", "project", "ols", "orthonormal_basis",
    "IdentificationReport", "DiagnosticReport", "check_majority_rule",
    "check_identification", "irrepresentable_diagnostic", "rip_constants",
    "rip_recovery_margin",
    "Dataset", "EstimationConfig", "FirstStage", "ProxyEstimate", "first_stage",
    "median_gamma", "alpha_median", "lasso_solve", "kkt_violation",
    "lasso_proximal", "adaptive_lasso_proximal", "post_adaptive_2sls",
    "estimate_invalid_tcp", "estimate_invalid_tcp_ocp", "subsample_ci",
    "oracle_p2sls", "naive_p2sls", "ols_baseline", "select_lambda",
    "default_subsample_size",
    "SimConfig", "SubsampleCiConfig", "MethodMetrics", "MonteCarloReport",
    "generate_invalid_tcp_data", "generate_invalid_tcp_ocp_data",
    "run_monte_carlo", "run_study",
    "SchemaMap", "LoadResult", "OcpRow", "RunReport", "load_csv",
    "parse_config", "estimate_to_dict", "monte_carlo_to_dict", "write_report",
    "read_report",
)


def unused_imports(source: str) -> list[str]:
    """Imported names that ``source`` neither uses nor lists in ``__all__``,
    skipping ``__future__`` imports, star imports and ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unreferenced_functions(sources: Sequence[str]) -> list[str]:
    """Methods (dunders aside) and ``_private`` module-level functions of
    ``sources`` whose name no code in ``sources`` uses outside their own
    body, as a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    uses = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    defs += [node for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    dead = []
    for fn in defs:
        if fn.name.startswith("__"):
            continue
        own = {id(node) for node in ast.walk(fn)}
        if not any(
            getattr(node, "id", getattr(node, "attr", None)) == fn.name
            and id(node) not in own
            for node in uses
        ):
            dead.append(f"line {fn.lineno}: {fn.name}")
    return dead


def test_every_private_function_and_method_is_used():
    assert unreferenced_functions([p.read_text(encoding="utf-8") for p in SOURCES]) == []


def test_the_guard_finds_an_unreferenced_function():
    source = (
        "def _used(): return 1\n"
        "def _unused(): return _unused()\n"
        "def public(): return _used()\n"
        "class C:\n"
        "    def __init__(self): self.m()\n"
        "    def m(self): return 0\n"
        "    def orphan(self): return 0\n"
    )
    assert unreferenced_functions([source]) == ["line 2: _unused", "line 7: orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Any, Sequence\n"
        "from .linalg import ols  # noqa: F401\n"
        "__all__ = ['Any']\n"
        "x: Sequence = ()\n"
    )
    assert unused_imports(source) == ["line 2: math"]


def ledger_writes(source: str) -> list[str]:
    """Item assignments (or deletions) to a name or attribute ``errors``
    outside ``keep_first``, the one helper that merges per-problem errors
    (each problem keeps its first)."""
    tree = ast.parse(source)
    helper = {
        id(node) for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "keep_first"
        for node in ast.walk(fn)
    }
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "errors"
        and id(node) not in helper
    )]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_per_problem_errors_are_merged_only_by_the_ledger_helper(path):
    assert ledger_writes(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_a_hand_written_merge():
    source = (
        "def keep_first(errors, new):\n"
        "    for i, e in enumerate(new):\n"
        "        if errors[i] is None:\n"
        "            errors[i] = e\n"
        "def stage(errors, out, new, on, other):\n"
        "    for i, e in zip(on, new): errors[i] = e\n"
        "    out.errors[on[0]] = new[0]\n"
        "    errors[0] = errors[0] or new[0]\n"
        "    first, errors[1] = new[0], new[1]\n"
        "    other[errors[0]] = errors[0]\n"
        "    x = errors[0]\n"
    )
    assert ledger_writes(source) == ["line 6", "line 7", "line 8", "line 9"]


def fail_readers(sources: Sequence[tuple[str, str]]) -> list[str]:
    """The functions, as ``module.name``, that index a factor's per-dataset
    first-stage failures (``core.fail[...]``): one function turns them into
    a stack's error ledger, so every stage sees them in one order."""
    return [
        f"{module}.{fn.name}" for module, source in sources
        for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fail" for node in ast.walk(fn))
    ]


def test_first_stage_failures_are_read_by_the_ledger_alone():
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert fail_readers(sources) == ["estimators._ledger"]


def test_the_guard_finds_a_second_reader():
    source = (
        "def _ledger(core, ds):\n"
        "    return [core.fail[d] for d in ds]\n"
        "def stage(core, ds):\n"
        "    n = len(core.fail)\n"
        "def refit(self):\n"
        "    first = self.fail[0]\n"
    )
    assert fail_readers([("m", source)]) == ["m._ledger", "m.refit"]


def referrers(sources: Sequence[tuple[str, str]], name: str) -> list[str]:
    """The functions, as ``module.name``, whose body refers to ``name``, as a
    name or an attribute."""
    return [
        f"{module}.{fn.name}" for module, source in sources
        for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
        and any(getattr(node, "id", getattr(node, "attr", None)) == name
                for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute)))
    ]


def test_the_penalty_is_set_by_the_selection_stage_alone():
    # One penalty path: select_lambda and the pipeline both reach _penalty
    # through _select, so they cannot fail in different orders.
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert referrers(sources, "_penalty") == ["estimators._select"]


def test_the_guard_finds_a_second_penalty_path():
    source = (
        "def _select(core):\n"
        "    return _penalty(core)\n"
        "def select_lambda(core):\n"
        "    return estimators._penalty(core)\n"
        "def stage(core):\n"
        "    pick = _penalty\n"
        "def _penalty(core):\n"
        "    return penalty(core)\n"
    )
    assert referrers([("m", source)], "_penalty") == ["m._select", "m.select_lambda", "m.stage"]


def definitions(sources: Sequence[tuple[str, str]], name: str) -> list[str]:
    """The functions named ``name``, as ``module.name``."""
    return [
        f"{module}.{fn.name}" for module, source in sources
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name == name
    ]


def test_no_stage_silences_numpy_for_a_failed_problem():
    # Each stage computes only the problems alive in its ledger, so no stage
    # needs a placeholder or a silenced warning for a failed one. The two
    # errstate blocks feed rank certificates, which report non-finite entries.
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert referrers(sources, "errstate") == [
        "estimators._reduced_design", "linalg._back_substitute"
    ]
    assert definitions(sources, "_positive") == []


def test_the_guard_finds_a_silenced_stage_and_a_placeholder_helper():
    source = (
        "def _reduced_design(fx):\n"
        "    with np.errstate(over='ignore'):\n"
        "        return fx\n"
        "def _select(x):\n"
        "    with errstate(all='ignore'):\n"
        "        return _positive(x)\n"
        "def _positive(x):\n"
        "    return np.where(x > 0.0, x, 1.0)\n"
    )
    assert referrers([("m", source)], "errstate") == ["m._reduced_design", "m._select"]
    assert definitions([("m", source)], "_positive") == ["m._positive"]


def test_a_is_assembled_in_one_place():
    # A Dataset stores A = [X, 1, Z, D, W, Y] once; every fit reads it, or a
    # subsample's rows of it, and none rebuilds it.
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert referrers(sources, "vstack") == ["estimators.__post_init__"]
    assert definitions(sources, "_augmented") == []


def test_the_guard_finds_a_second_assembly():
    source = (
        "class Dataset:\n"
        "    def __post_init__(self):\n"
        "        a = np.vstack([self.X.T, self.Y])\n"
        "def _augmented(data):\n"
        "    return vstack([data.X.T, data.Y]).T\n"
        "def _what(data):\n"
        "    return data.A\n"
    )
    assert referrers([("m", source)], "vstack") == ["m._augmented", "m.__post_init__"]
    assert definitions([("m", source)], "_augmented") == ["m._augmented"]


def test_estimators_take_a_qr_only_in_the_factor_and_the_refit():
    # With (X, 1) leading A, every other stage reads R22 and needs no QR.
    source = (SOURCES[0].parent / "estimators.py").read_text(encoding="utf-8")
    assert referrers([("estimators", source)], "qr") == ["estimators._factor", "estimators._refit"]


def test_the_guard_finds_a_qr_in_another_stage():
    source = (
        "def _factor(a):\n"
        "    return np.linalg.qr(a, mode='r')\n"
        "def _reduced_design(top):\n"
        "    q, r = linalg.qr(top)\n"
        "def _refit(x):\n"
        "    return np.linalg.qr(x)\n"
    )
    assert referrers([("m", source)], "qr") == ["m._factor", "m._reduced_design", "m._refit"]


def qr_calls_without_mode_r(source: str) -> list[str]:
    """The ``qr`` calls of ``source``, as ``line N``, that do not pass
    ``mode="r"``: each of them forms a ``Q``."""
    return [
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "qr"
        and not any(kw.arg == "mode" and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "r" for kw in node.keywords)
    ]


def test_estimators_form_no_q():
    # Every factor and the refit read the R factor alone, as A L = Q (R L).
    source = (SOURCES[0].parent / "estimators.py").read_text(encoding="utf-8")
    assert "qr(" in source
    assert qr_calls_without_mode_r(source) == []


def test_the_guard_finds_a_reduced_mode_qr():
    source = (
        "def _factor(a):\n"
        "    return np.linalg.qr(a, mode='r')\n"
        "def _refit(x):\n"
        "    q, r = np.linalg.qr(x)\n"
        "    q, r = np.linalg.qr(x, mode='reduced')\n"
        "    return qr(x, mode=mode)\n"
    )
    assert qr_calls_without_mode_r(source) == ["line 4", "line 5", "line 6"]


def general_solves(source: str) -> list[str]:
    """The references of ``source``, as ``line N``, to a general ``solve``
    (``np.linalg.solve``, or ``solve`` imported by name) or to the stacked
    LU helper ``_solve``: a triangular factor needs neither."""
    return [
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        in ("solve", "_solve")
    ]


@pytest.mark.parametrize("name", ["estimators.py", "linalg.py"])
def test_triangular_factors_are_solved_by_the_one_back_substitution(name):
    # Every R factor is certified and solved by linalg.solve_upper; lasso's
    # symmetric Gram blocks are not factors, and identification solves
    # nothing itself (see the test below).
    source = (SOURCES[0].parent / name).read_text(encoding="utf-8")
    assert "solve_upper(" in source
    assert general_solves(source) == []


def test_the_guard_finds_a_general_solve():
    source = (
        "from numpy.linalg import solve\n"
        "def _factor(r, b):\n"
        "    coef = np.linalg.solve(r, b)\n"
        "    return _solve(r, b, ok), solve_upper(r, b), lasso._block_solve(r, b)\n"
        "def _refit(r, b):\n"
        "    return solve(r, b), linalg.solve_upper(r, b)\n"
    )
    assert general_solves(source) == ["line 1", "line 3", "line 4", "line 6"]


def test_identification_judges_no_rank_of_its_own():
    # irrepresentable_diagnostic reads X[:, A]'s coefficients through
    # linalg._qr_fit, so its rank verdict is solve_upper's: no Gram block, no
    # eigenvalue floor and no general solve. The eigenvalues of rip_constants
    # are its restricted-isometry constants, not a rank test.
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert general_solves(dict(sources)["identification"]) == []
    assert referrers(sources, "eigvalsh") == ["identification.rip_constants"]
    assert "identification.irrepresentable_diagnostic" in referrers(sources, "_qr_fit")


def test_the_guard_finds_a_rank_rule_of_its_own():
    source = (
        "from numpy.linalg import solve\n"
        "def irrepresentable_diagnostic(x, a, s):\n"
        "    if np.linalg.eigvalsh(x[a])[0] <= MIN_BLOCK_EIG:\n"
        "        raise SingularBlock('singular')\n"
        "    return np.linalg.solve(x[a], s)\n"
        "def rip_constants(gram):\n"
        "    return eigvalsh(gram)\n"
    )
    assert general_solves(source) == ["line 1", "line 5"]
    assert referrers([("identification", source)], "eigvalsh") == [
        "identification.irrepresentable_diagnostic", "identification.rip_constants"
    ]


def test_the_one_rank_certificate_is_solve_upper():
    # The kappa_F bound, then the SVD on the factors it leaves in doubt:
    # every rank verdict of the package is linalg.solve_upper's.
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert not any("rank_errors" in source for _, source in sources)
    assert referrers(sources, "svd") == ["linalg.solve_upper"]


def test_the_guard_finds_a_second_rank_certificate():
    source = (
        "def solve_upper(r, b):\n"
        "    return np.linalg.svd(r, compute_uv=False)\n"
        "def rank_errors(r):\n"
        "    return [s for s in linalg.svd(r)]\n"
        "def _reduced_design(tri):\n"
        "    certify = svd\n"
    )
    assert referrers([("linalg", source)], "svd") == [
        "linalg.solve_upper", "linalg.rank_errors", "linalg._reduced_design"
    ]


def test_lasso_solve_and_cv_penalty_reach_the_solver_through_lasso_gram():
    # One solver: the guess, the path and the support solves sit behind
    # lasso_gram, which every lasso of the package goes through.
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert referrers(sources, "_path") == ["lasso.lasso_gram"]
    assert referrers(sources, "_support_solve") == ["lasso.lasso_gram"]
    assert referrers(sources, "_block_solve") == ["lasso._path", "lasso._support_solve"]
    assert {"lasso.lasso_solve", "lasso.cv_penalty"} <= set(referrers(sources, "lasso_gram"))


#: The coordinate-descent solver's names, gone with it.
COORDINATE_DESCENT = (
    "max_sweeps", "DEFAULT_MAX_SWEEPS", "DUAL_GAP_TOL", "_sweep", "_coordinate_descent", "_polish",
)


def identifiers(source: str) -> set[str]:
    """Every name ``source`` defines or uses: names, attributes, functions,
    classes, parameters and keyword arguments."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            found.add(node.arg)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_coordinate_descent_name_is_left(path):
    assert identifiers(path.read_text(encoding="utf-8")) & set(COORDINATE_DESCENT) == set()


def test_the_lasso_entry_points_take_no_start():
    for fn in (lasso.lasso_solve, lasso.lasso_gram):
        assert not {"start", "max_sweeps"} & set(inspect.signature(fn).parameters)


def test_the_guard_finds_a_coordinate_descent_name():
    source = (
        "DUAL_GAP_TOL = 1e-8\n"
        "def solve(x, max_sweeps=10):\n"
        "    return lasso._sweep(x), run(x, max_sweeps=1)\n"
    )
    assert identifiers(source) & set(COORDINATE_DESCENT) == {
        "DUAL_GAP_TOL", "max_sweeps", "_sweep"
    }


def frozen_writes(source: str) -> list[str]:
    """Calls to ``object.__setattr__`` outside a ``__post_init__``: a frozen
    object is written only while it is being built."""
    tree = ast.parse(source)
    building = {
        id(node) for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
        for node in ast.walk(fn)
    }
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and getattr(node.func.value, "id", None) == "object"
            and id(node) not in building]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_frozen_objects_are_written_only_while_built(path):
    assert frozen_writes(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_a_write_to_a_built_object():
    source = (
        "class C:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "def cache(c):\n"
        "    object.__setattr__(c, 'b', 2)\n"
        "    setattr(c, 'd', 3)\n"
        "    c.__setattr__('e', 4)\n"
    )
    assert frozen_writes(source) == ["line 5"]


def parameter_truncations(source: str, builtin: str = "int") -> list[str]:
    """The calls of ``builtin`` in ``source``, as ``line N``, on a parameter
    of an enclosing function, or, within a loop or comprehension over a
    parameter, on a name it binds. ``int`` truncates a float and takes a
    bool, so an integer argument is read by ``linalg.as_index`` instead;
    ``float`` takes a bool and a string, so a real argument is read by
    ``linalg.as_real``, whose own ``float()`` is the one not counted."""
    def bound(target) -> set[str]:
        return {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}

    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        if getattr(fn, "name", None) == "as_real":  # the reader itself
            continue
        a = fn.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
        scopes = [(fn, params)]
        for node in ast.walk(fn):
            loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
            names = set().union(*(bound(loop.target) for loop in loops
                                  if getattr(loop.iter, "id", None) in params))
            scopes.append((node, names))
        found |= {
            call.lineno for scope, names in scopes for call in ast.walk(scope)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == builtin
            and call.args and getattr(call.args[0], "id", None) in names
        }
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_integer_arguments_are_read_by_as_index(path):
    # The command line parses strings with int(); everywhere else a count,
    # index or seed goes through linalg.as_index, which refuses 1.5 and True.
    assert parameter_truncations(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_a_truncated_argument():
    source = (
        "def read(k, ocps, *rest, flag=None):\n"
        "    a = int(k)\n"
        "    b = sorted(set(int(j) for j in ocps))\n"
        "    for m in rest:\n"
        "        c = int(m)\n"
        "    d = int(len(ocps)), int(k + 1), int(flag.n), [int(j) for j in flag.ids]\n"
        "    return as_index(k, 'k', 0)\n"
        "def other(x):\n"
        "    return int(k), [int(j) for j in range(x)], lambda v: int(v)\n"
    )
    assert parameter_truncations(source) == ["line 2", "line 3", "line 5", "line 9"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("cli.py", "data_io.py")],
                         ids=lambda p: p.name)
def test_real_arguments_are_read_by_as_real(path):
    # The command line and the file readers parse strings with float();
    # everywhere else a real argument goes through linalg.as_real, which
    # refuses True and "0.5".
    assert parameter_truncations(path.read_text(encoding="utf-8"), "float") == []


def test_the_guard_finds_a_coerced_real_argument():
    source = (
        "def fit(data, lam, *, levels=()):\n"
        "    a = EstimationConfig(lambda_n=float(lam))\n"
        "    b = [float(x) for x in levels], int(lam)\n"
        "    c = float(data.beta), float(lam * 2), float(len(levels))\n"
        "    return as_real(lam, 'lam')\n"
        "def other(x):\n"
        "    return float(lam), lambda v: float(v)\n"
        "def as_real(value, name):\n"
        "    return float(value)\n"
    )
    assert parameter_truncations(source, "float") == ["line 2", "line 3", "line 7"]


def unread_flags(source: str) -> list[str]:
    """The ``bool``-annotated parameters of the public functions in
    ``source``, as ``function.parameter``, whose first read is not as the
    first argument of ``as_flag``. A flag read for truth takes ``"no"`` and
    ``1`` as True, so a public flag goes through ``linalg.as_flag`` first."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            if getattr(p.annotation, "id", None) != "bool":
                continue
            reads = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == p.arg
                     and isinstance(n.ctx, ast.Load)]
            checked = {id(call.args[0]) for call in ast.walk(fn) if isinstance(call, ast.Call)
                       and getattr(call.func, "id", None) == "as_flag" and call.args}
            first = min(reads, key=lambda n: (n.lineno, n.col_offset), default=None)
            if first is None or id(first) not in checked:
                found.append(f"{fn.name}.{p.arg}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_flags_are_read_by_as_flag(path):
    assert unread_flags(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_a_flag_read_for_truth():
    source = (
        "def load(path, *, strict: bool = True):\n"
        "    strict = as_flag(strict, 'strict')\n"
        "    return strict\n"
        "def ci(data, recenter: bool = False):\n"
        "    if recenter:\n"
        "        return as_flag(recenter, 'recenter')\n"
        "def fit(data, quiet: bool = False, n: int = 0):\n"
        "    return data\n"
        "def _select(core, warn: bool):\n"
        "    return core if warn else None\n"
        "class C:\n"
        "    def run(self, verbose: bool = False, flag=None):\n"
        "        return print(verbose, flag)\n"
    )
    assert unread_flags(source) == ["ci.recenter", "fit.quiet", "run.verbose"]


def test_a_monte_carlo_import_leaves_the_file_and_subset_layers_unloaded():
    code = ("import sys, proxsel.simulation; "
            "print(sorted({'proxsel.data_io', 'proxsel.identification'} & set(sys.modules)))")
    src = str(Path(proxsel.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_public_names_are_listed_once():
    assert len(proxsel.__all__) == len(set(proxsel.__all__))


def test_every_previously_exported_name_is_still_exported():
    assert len(set(EXPORTED)) == 66
    assert sorted(set(EXPORTED) - set(proxsel.__all__)) == []


def test_each_public_name_is_its_defining_modules_object():
    assert set(proxsel.__all__) == {"__version__"} | {
        name for m in MODULES for name in importlib.import_module(f"proxsel.{m}").__all__
    }
    for m in MODULES:
        module = importlib.import_module(f"proxsel.{m}")
        for name in module.__all__:
            obj = getattr(proxsel, name)
            assert obj is getattr(module, name), (m, name)
            home = getattr(obj, "__module__", None)
            if home is not None and home.startswith("proxsel."):
                assert getattr(importlib.import_module(home), name) is obj, (home, name)
