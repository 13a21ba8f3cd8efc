"""Count the lines of src/loopsoup/*.py: code lines and total lines.

Code lines leave out docstrings (of modules, classes and functions),
comments and blank lines; total lines are every line of every file.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to src/loopsoup under the repository root.  Prints one
line per file and the totals.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text):
    """(code lines, total lines) of one Python source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docs)
    return len(code), len(text.splitlines())


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(__file__).resolve().parents[1] / "src" / "loopsoup"
    code_total = lines_total = 0
    for path in sorted(root.glob("*.py")):
        code, lines = count(path.read_text())
        code_total += code
        lines_total += lines
        print(f"{path.name:16} {code:6} {lines:6}")
    print(f"{'total':16} {code_total:6} {lines_total:6}")


if __name__ == "__main__":
    main(sys.argv)
