"""The public surface of the wbcsim package.

The names below are every public name `wbcsim` exports, sorted, one per
line, so that a change to the package's surface shows up as a one-line
diff here. Submodules are not part of the surface.
"""

import ast
import re
import types
from pathlib import Path

import wbcsim

PUBLIC_NAMES = [
    "ABORT",
    "AdversaryConfig",
    "BitstringDistribution",
    "BoundKind",
    "DensityMatrix16",
    "Event",
    "FailureReport",
    "GlobalCountList",
    "GridSpec",
    "LocalCountListR",
    "LocalCountListS",
    "MonteCarloResult",
    "NOT_FOUND",
    "OUTCOMES",
    "OUTCOME_PROBS",
    "OUTSIDE_REGION",
    "OutOfDomainError",
    "Outcome",
    "ParameterError",
    "ProtocolParams",
    "StrategyR",
    "StrategyS",
    "Transcript",
    "best_failure_probability_bruteforce",
    "chernoff_R",
    "chernoff_S",
    "chernoff_no_faulty",
    "classical_fidelity",
    "classify_broadcast",
    "classify_weak_broadcast",
    "estimate_pf",
    "failure_reports",
    "global_counts",
    "grid_search",
    "ideal_distribution",
    "in_guaranteed_region",
    "ingest_counts",
    "ingest_density_matrix",
    "lambda_threshold",
    "m_min_upper",
    "pf_R_bounds",
    "pf_S_bounds",
    "pf_bruteforce",
    "pf_no_faulty_exact",
    "project_S",
    "quantum_fidelity_pure_target",
    "run_protocol",
    "sample_event",
    "substream",
    "zeta_R",
    "zeta_S",
]


def test_public_names_are_pinned():
    exported = [n for n, v in vars(wbcsim).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(exported) == PUBLIC_NAMES


def test_no_module_imports_a_name_it_never_uses():
    # no linter is installed; __init__.py imports only to export
    unused = []
    for path in sorted(Path(wbcsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []


def test_version_agrees_with_pyproject():
    # every manifest records wbcsim.__version__; tomllib is 3.11+, so a regex reads the file
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert wbcsim.__version__ == re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
