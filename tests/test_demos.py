"""Every renewalshot name a demo uses still exists.

The demos in demos/ are scripts of a few seconds each.  No test runs
them: the `demos` step of .github/workflows/tier1.yml does, and fails on
a non-zero exit, which is what catches a changed signature, or on stdout
that differs from the demo's demos/expected/<name>.txt.  This test
parses them instead: every name a demo imports from renewalshot, or
reads as module.attr of an imported renewalshot name, must resolve, so a
rename or removal in the package cannot leave a demo pointing at a name
that is gone.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def used_names(tree):
    """Dotted renewalshot names the module imports or reads as attributes
    of an imported renewalshot name."""
    bound = {}                  # local name -> dotted renewalshot name
    used = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "renewalshot"):
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "renewalshot":
                    bound[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else "renewalshot")
                    used.append(a.name)
    used += bound.values()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            used.append(f"{bound[node.value.id]}.{node.attr}")
    return used


def exists(dotted):
    """True when the dotted name is a module or an attribute path from
    one."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], start=2):
            if not hasattr(obj, part):
                importlib.import_module(".".join(parts[:i]))
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_the_check_sees_a_missing_name():
    tree = ast.parse("from renewalshot import limits\n"
                     "from renewalshot.verify import no_such_name\n"
                     "limits.no_such_function(1)\n")
    assert [n for n in used_names(tree) if not exists(n)] == [
        "renewalshot.verify.no_such_name",
        "renewalshot.limits.no_such_function"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_uses_only_existing_names(demo):
    names = used_names(ast.parse(demo.read_text(encoding="utf-8")))
    assert names, f"{demo.name} uses no renewalshot name"
    missing = [n for n in names if not exists(n)]
    assert not missing, f"{demo.name} uses names that are gone: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_has_expected_output(demo):
    # the file the CI step diffs the demo's stdout against
    assert (demo.parent / "expected" / f"{demo.stem}.txt").is_file()
