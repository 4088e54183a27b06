"""Exception hierarchy for the ricci_spectrum package."""


class RicciSpectrumError(Exception):
    """Base class for all package-specific errors."""


# -- graph construction / structure ---------------------------------------

class NonPositiveWeight(RicciSpectrumError):
    """An edge weight was zero or negative."""


class DuplicateEdge(RicciSpectrumError):
    """The same unordered vertex pair appeared twice in an edge list."""


class EmptyGraph(RicciSpectrumError):
    """An edge list with no edges was supplied."""


class DisconnectedGraph(RicciSpectrumError):
    """An operation that requires a connected graph got a disconnected one."""


class NotNeighbors(RicciSpectrumError):
    """The two vertices are not joined by an edge."""


class SameVertex(RicciSpectrumError):
    """A vertex pair operation was called with x == y."""


class LoopAlreadyPresent(RicciSpectrumError):
    """Lazy-walk construction requires a loop-free input graph."""


# -- optimal transport ------------------------------------------------------

class InfiniteDistance(RicciSpectrumError):
    """Measure supports straddle two metric components."""


class InternalInconsistency(RicciSpectrumError):
    """An exact consistency check failed: a bug, not a property of the input."""


class CertificateGapNonzero(InternalInconsistency):
    """Internal consistency failure: dual potential does not reach the primal cost."""


# -- spectrum / bounds ------------------------------------------------------

class ZeroDenominator(RicciSpectrumError):
    """Rayleigh ratio of a constant eigenfunction."""


class OutsideFloatRange(RicciSpectrumError):
    """An exact weight or degree has no finite, nonzero float64 for the eigensolver."""


class InvalidBoundInput(RicciSpectrumError):
    """Caller-supplied eigenvalue bound is impossible for the given parity of t."""


# -- cli ---------------------------------------------------------------------

class ParseError(RicciSpectrumError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
