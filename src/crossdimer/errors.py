"""The one base class of every input error the package raises."""


class CrossdimerError(Exception):
    """Input the package cannot take; the CLI exits 2 on it.  An exactness
    guard (matchcount.InexactArithmetic) is not one."""
