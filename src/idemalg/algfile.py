"""The algebra file format: human-writable structured text.

    # comments run to end of line
    algebra no-edge
    size 3
    labels a b c          # optional, one distinct label per element
    op f 2
    0 2 2
    1 1 2
    2 2 2
    op g 2
    0 0 2  1 1 2  2 2 2
    end

Tables are flat, row-major, radix-size; whitespace and line breaks inside a
table are free-form.  `parse` returns the validated FiniteAlgebra (a bad
token raises ValidationError before any check of the algebra) and `render`
writes one in canonical form (rows of `size` entries): parse(render(a)) == a.
A name or label that would not read back as one token (an empty one, or one
holding whitespace or `#`) makes `render` raise ValidationError.
"""

from __future__ import annotations

from typing import Optional

from .algebra import FiniteAlgebra, table_length, validate_algebra
from .errors import ValidationError


def parse(text: str) -> FiniteAlgebra:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    pos = 0

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValidationError(f"unexpected end of file (wanted {expected or 'a token'})")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValidationError(f"expected {expected!r}, found {tok!r}")
        return tok

    def take_int() -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise ValidationError(f"expected an integer, found {tok!r}") from None

    take("algebra")
    name = take()
    take("size")
    size = take_int()
    labels: Optional[tuple[str, ...]] = None
    if tokens[pos:pos + 1] == ["labels"]:
        take()
        labels = tuple(take() for _ in range(size))
    operations = []
    while tokens[pos:pos + 1] == ["op"]:
        take()
        op_name = take()
        arity = take_int()
        table = tuple(take_int() for _ in range(table_length(op_name, size, arity)))
        operations.append((op_name, arity, table))
    take("end")
    if pos != len(tokens):
        raise ValidationError(f"trailing content after 'end': {tokens[pos]!r}")
    if not operations:
        raise ValidationError("an algebra file needs at least one operation")
    return validate_algebra(name, size, operations, labels)


def render(algebra: FiniteAlgebra) -> str:
    """The file text of the algebra; ValidationError for a name or label
    that `parse` would not read back as one token."""
    for what, token in [("algebra name", algebra.name)] + \
            [("label", label) for label in algebra.labels or ()]:
        if token.split() != [token] or "#" in token:
            raise ValidationError(f"{what} {token!r} cannot be written to an algebra file: "
                                  "it must be one token without whitespace or '#'")
    lines = [f"algebra {algebra.name}", f"size {algebra.size}"]
    if algebra.labels is not None:
        lines.append("labels " + " ".join(algebra.labels))
    for op in algebra.operations:
        lines.append(f"op {op.name} {op.arity}")
        for row_start in range(0, len(op.table), algebra.size):
            row = op.table[row_start:row_start + algebra.size]
            lines.append(" ".join(str(v) for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def load(path: str) -> FiniteAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    return parse(text)


def save(algebra: FiniteAlgebra, path: str) -> None:
    text = render(algebra)      # before the file is opened: an error leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
