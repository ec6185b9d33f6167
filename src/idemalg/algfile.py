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
table are free-form.  Serialization is canonical (rows of `size` entries),
so parse -> render -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import FiniteAlgebra, table_length, validate_algebra
from .errors import ValidationError


@dataclass(frozen=True)
class AlgebraFile:
    name: str
    size: int
    labels: Optional[tuple[str, ...]]
    operations: tuple[tuple[str, int, tuple[int, ...]], ...]

    def to_algebra(self) -> FiniteAlgebra:
        return validate_algebra(self.name, self.size, self.operations, self.labels)

    @staticmethod
    def from_algebra(algebra: FiniteAlgebra) -> "AlgebraFile":
        return AlgebraFile(algebra.name, algebra.size, algebra.labels,
                           tuple((op.name, op.arity, op.table)
                                 for op in algebra.operations))


def parse(text: str) -> AlgebraFile:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

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
    if peek() == "labels":
        take()
        labels = tuple(take() for _ in range(size))
    operations = []
    while peek() == "op":
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
    return AlgebraFile(name, size, labels, tuple(operations))


def render(af: AlgebraFile) -> str:
    lines = [f"algebra {af.name}", f"size {af.size}"]
    if af.labels is not None:
        lines.append("labels " + " ".join(af.labels))
    for name, arity, table in af.operations:
        lines.append(f"op {name} {arity}")
        for row_start in range(0, len(table), af.size):
            row = table[row_start:row_start + af.size]
            lines.append(" ".join(str(v) for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def load(path: str) -> FiniteAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    return parse(text).to_algebra()


def save(algebra: FiniteAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(AlgebraFile.from_algebra(algebra)))
