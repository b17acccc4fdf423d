"""Error taxonomy shared by the whole laboratory.

Exit-code mapping used by the CLI: usage problems exit 2, capacity problems
exit 3, everything else is an ordinary failure (exit 1).
"""


class DdlabError(Exception):
    """Base class for all laboratory errors."""


class ShapeError(DdlabError):
    """An input has the wrong length, arity, or index range."""


class CapacityError(DdlabError):
    """A size cap of `limits` was exceeded."""


class StructuralError(DdlabError):
    """A program object is malformed (bad transition, non-unitary or non-stochastic row)."""


class DependencyError(DdlabError):
    """A function depends on a variable declared as ignorable."""


class CommutativityError(DdlabError):
    """A program required to be commutative failed the commutativity check."""


class ConsistencyError(DdlabError):
    """Two representations that must agree were found to disagree."""


class UsageError(DdlabError):
    """A request is malformed (unknown format, bad parameter combination)."""
