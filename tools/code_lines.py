"""Count the code lines of Python files: lines that hold a token of code,
so no blank line, no comment and no module, class or function docstring.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them; the default
is ``src/`` beside this script's directory. It prints one line per file,
the count and then the path, in sorted path order, and a last line with
the total. A string that spans lines counts each of its lines, unless it
is a docstring.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths) -> list:
    found = []
    for path in paths:
        if os.path.isdir(path):
            found += [os.path.join(d, f) for d, _, files in os.walk(path)
                      for f in files if f.endswith(".py")]
        else:
            found.append(path)
    return sorted(found)


def main(argv=None) -> None:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        paths = [os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")]
    total = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {os.path.relpath(path)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
