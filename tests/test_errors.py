"""The package's exception classes, checked from its source."""

import ast
from pathlib import Path

from scimetrics import errors

SRC = Path(errors.__file__).parent


def raised_names() -> set[str]:
    """The name of the class or value in each ``raise`` statement of the package."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_somewhere():
    # A class that nothing raises is dead: a caller catching it waits for nothing.
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.ScimetricsError)
    }
    assert "ScimetricsError" in classes and len(classes) > 1
    assert classes - {"ScimetricsError"} - raised_names() == set()
