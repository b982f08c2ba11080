"""Exception hierarchy.

Every error raised by the library derives from GossliftError and carries a
short module tag so the command line tool can prefix messages uniformly.
"""


class GossliftError(Exception):
    """Base class for all library errors."""

    tag = "gosslift"


class FieldError(GossliftError):
    """Bad field parameters or element operations."""

    tag = "field"


class PolyError(GossliftError):
    """Polynomial arithmetic or parsing failures."""

    tag = "poly"


class ExtensionError(GossliftError):
    """Extension configuration, discriminant, or splitting failures."""

    tag = "extension"


class ZetaError(GossliftError):
    """Ideal count table and zeta evaluation failures."""

    tag = "zeta"


class WittError(GossliftError):
    """Truncated Witt vector failures."""

    tag = "witt"


class GroupError(GossliftError):
    """Permutation group failures."""

    tag = "group"
