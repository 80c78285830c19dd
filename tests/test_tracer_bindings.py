"""Some imports under `src/` are kept only so that the benchmark's tracer,
`perfbench/spans.py`, finds a name to wrap in that module; each is marked
with a comment naming that file.  This lists them and checks that each is
still a tracer target of its module and is used nowhere else in it, so
that an in-tree tracer can delete exactly this list.  `perfbench/spans.py`
is read as text, never imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "priorlab"
MARK = "perfbench/spans.py"

# (module, name) of every import marked as kept for the tracer
TRACER_ONLY = (
    ("priorlab.cli", "parity_family"),
    ("priorlab.cli", "verify_lemma_chain"),
    ("priorlab.cli", "verify_sqrt_bound"),
    ("priorlab.cli", "verify_tree_inequality"),
    ("priorlab.estimators", "exact_outcome_dist"),
    ("priorlab.ratelab", "exact_bayes_error"),
    ("priorlab.ratelab", "sample_arrays"),
)


def span_targets() -> set:
    """The (object path, attribute) pairs of the tracer's SPANS table."""
    for node in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return {(path, attr) for path, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no SPANS table")


def marked_bindings() -> list:
    """(module, name) of each marked import: a name on a line that names
    MARK, or every name of an import right below a comment that does."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, ast.ImportFrom):
                continue
            above = lines[node.lineno - 2].strip() if node.lineno > 1 else ""
            whole = above.startswith("#") and MARK in above
            found += [
                (f"priorlab.{path.stem}", alias.asname or alias.name)
                for alias in node.names
                if whole or MARK in lines[alias.lineno - 1]
            ]
    return sorted(found)


def test_the_marked_imports_are_the_listed_ones():
    assert marked_bindings() == sorted(TRACER_ONLY)


@pytest.mark.parametrize("module, name", TRACER_ONLY, ids=lambda v: v.rsplit(".", 1)[-1])
def test_marked_import_is_a_span_target_used_nowhere_else(module, name):
    assert (module, name) in span_targets()
    tree = ast.parse((SRC / f"{module.split('.')[-1]}.py").read_text())
    uses = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]
    assert not uses, f"{module} uses {name} at lines {uses}"
