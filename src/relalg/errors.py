"""Exception types shared across the package."""


class RelAlgError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(RelAlgError):
    """An operand has the wrong arity or sort."""


class UniverseMismatchError(RelAlgError):
    """Operands live over different universes."""


class FormatError(RelAlgError):
    """A textual input (literal, file, grammar) is malformed."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class FragmentError(RelAlgError):
    """An operation symbol is not available in the chosen signature fragment."""


class InsufficientSortsError(RelAlgError):
    """A sort above the algebra's bound was requested and the algebra cannot
    materialize it."""


class ElementCapExceededError(RelAlgError):
    """Enumerating a sort would exceed the configured element cap."""


class PreconditionError(RelAlgError):
    """A documented precondition of a construction does not hold."""


class IllDefinedMapError(RelAlgError):
    """A quotient map is ambiguous; carries the witnessing pair of substitutions."""

    def __init__(self, message: str, alpha=None, beta=None):
        super().__init__(message)
        self.alpha = alpha
        self.beta = beta


class ObstructionError(RelAlgError):
    """A filter/ideal disjointness argument failed; the algebra violates the
    axiom named by ``axiom_id``.  For axiom (0) the error carries the failing
    schema instance: ``shape`` is its blocks and ``r_elems + s_elems`` its
    slot values, which replay_instance reproduces.  For axiom (10) it carries
    the base and witness filter generators in ``r_elems`` and the packed
    ideal's generator in ``s_elems``, which fill no clause's slots."""

    def __init__(self, message: str, axiom_id: int, shape=None, r_elems=None, s_elems=None):
        super().__init__(message)
        self.axiom_id = axiom_id
        self.shape = tuple(shape) if shape is not None else None
        self.r_elems = tuple(r_elems) if r_elems is not None else None
        self.s_elems = tuple(s_elems) if s_elems is not None else None
