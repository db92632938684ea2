"""Every `raise` in `src/postpop/` must be reached by tier-1.

Runs the tier-1 suite in this process under a `sys.settrace` line
collector that records the lines executed in `src/postpop/`, then lists
each `raise` statement none of whose lines ran, and exits 1 if there is
one. Tracing roughly doubles tier-1's wall time, so this is a CI step of its
own, not a tier-1 test (pytest does not collect this file).

    python tests/raises_reached.py [extra pytest arguments]

pytest runs without its cache, so nothing is written into the checkout.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "postpop"


def raise_lines(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each `raise` statement in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    import pytest  # after the path: the tests import postpop from src/

    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.settrace(scope)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests"), *argv])
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"tier-1 failed (pytest exit code {code}); raises not checked")
        return 1
    raises = [(name, first, last) for name, path in files.items()
              for first, last in raise_lines(path)]
    unreached = [f"{files[name].relative_to(REPO)}:{first}" for name, first, last in raises
                 if hit[name].isdisjoint(range(first, last + 1))]
    print(f"{len(raises) - len(unreached)} of {len(raises)} raise statements in "
          "src/postpop reached")
    for line in unreached:
        print(f"  unreached: {line}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
