"""Exception types shared across the package."""


class IdemalgError(Exception):
    """Base class for all errors raised by this package."""


# --- algebra validation ---

class ValidationError(IdemalgError):
    pass


class BadTableLength(ValidationError):
    def __init__(self, op, expected, got):
        super().__init__(f"operation {op!r}: table has {got} entries, expected {expected}")
        self.op, self.expected, self.got = op, expected, got


class EntryOutOfRange(ValidationError):
    def __init__(self, op, entry, size):
        super().__init__(f"operation {op!r}: entry {entry} not in range 0..{size - 1}")
        self.op, self.entry, self.size = op, entry, size


class NonIdempotent(ValidationError):
    def __init__(self, op, x, value):
        super().__init__(f"operation {op!r} is not idempotent: f({x},...,{x}) = {value}")
        self.op, self.x, self.value = op, x, value


class DuplicateOpName(ValidationError):
    def __init__(self, op):
        super().__init__(f"duplicate operation name {op!r}")
        self.op = op


class SignatureMismatch(ValidationError):
    def __init__(self, detail):
        super().__init__(f"signatures do not match: {detail}")


class NotACongruence(IdemalgError):
    def __init__(self, op, tuple_a, tuple_b, value_a, value_b):
        super().__init__(
            f"partition not compatible with {op!r}: "
            f"f{tuple_a} = {value_a} and f{tuple_b} = {value_b} fall in different blocks")
        self.op, self.tuple_a, self.tuple_b = op, tuple_a, tuple_b


class NotATolerance(IdemalgError):
    def __init__(self, coordinate):
        super().__init__(f"link relation at coordinate {coordinate} is not compatible")
        self.coordinate = coordinate


class NotClosed(IdemalgError):
    def __init__(self, op, args, value):
        super().__init__(f"subset not closed: {op}{args} = {value} escapes")
        self.op, self.args, self.value = op, args, value


class TooLarge(IdemalgError):
    def __init__(self, size, bound, remedy="pass --force, or Limits(max_size=None)"):
        super().__init__(f"universe size {size} exceeds analysis bound {bound} "
                         f"({remedy})")
        self.size, self.bound = size, bound


# --- terms ---

class UnknownSymbol(IdemalgError):
    def __init__(self, name):
        super().__init__(f"operation symbol {name!r} not present in algebra")
        self.name = name


class ArityMismatch(IdemalgError):
    def __init__(self, detail):
        super().__init__(detail)


class TermSyntaxError(IdemalgError):
    pass


# --- generation / subpower ---

class ElementNotGenerated(IdemalgError):
    def __init__(self, element):
        super().__init__(f"element {element} is not in the generated subuniverse")
        self.element = element


class ProjectionNotFull(IdemalgError):
    def __init__(self, coordinate):
        super().__init__(f"relation does not project onto the full universe at "
                         f"coordinate {coordinate}")
        self.coordinate = coordinate


class CapExceededError(IdemalgError):
    """A closure hit its node cap where a complete answer was required."""

    def __init__(self, cap, context=""):
        super().__init__(f"node cap {cap} exceeded{': ' + context if context else ''}")
        self.cap = cap


# --- synthesis ---

class SynthesisError(IdemalgError):
    pass


class NotSmooth(SynthesisError):
    def __init__(self, algebra_name, edge):
        super().__init__(f"algebra {algebra_name!r} is not smooth: thick edge {edge} "
                         f"is not a subuniverse")
        self.algebra_name, self.edge = algebra_name, edge


class PostconditionFailed(SynthesisError):
    def __init__(self, detail):
        super().__init__(detail)


class VerificationFailed(SynthesisError):
    def __init__(self, condition, edge, detail):
        super().__init__(f"condition {condition} failed on edge {edge}: {detail}")
        self.condition, self.edge = condition, edge


class WitnessNotFound(SynthesisError):
    def __init__(self, detail):
        super().__init__(detail)


class EmptyResult(SynthesisError):
    def __init__(self, detail):
        super().__init__(detail)


class UnsupportedCombination(SynthesisError):
    def __init__(self, detail):
        super().__init__(detail)


class CaseNotRecognized(SynthesisError):
    def __init__(self, detail):
        super().__init__(detail)


class PreconditionViolated(IdemalgError):
    def __init__(self, detail):
        super().__init__(detail)
