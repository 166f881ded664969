"""Exception types shared across the package."""


class TCycleError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRotation(TCycleError):
    """A rotation record is inconsistent with the edge list."""


class NonPlanarCertificate(TCycleError):
    """The rotation system fails the Euler check, so it does not describe
    a planar (sphere) embedding."""


class UnknownVertex(TCycleError):
    pass


class ParseError(TCycleError):
    """Bad instance file."""


class SizeLimitExceeded(TCycleError):
    """A brute-force oracle was asked to handle an instance larger than its
    guaranteed-exhaustive range.  Oracles never degrade silently."""


class InvalidConfiguration(TCycleError):
    """A cycles-and-loop configuration violates its preconditions."""


class NotDisjoint(TCycleError):
    pass


class NotNested(TCycleError):
    pass


class NotACycle(TCycleError):
    pass


class HoleCountError(TCycleError):
    """A punctured-plane stage was given the wrong number of holes."""


class NoConnectingCurve(TCycleError):
    """No radial curve joins the two holes that were to be cut together."""


class InvalidDecomposition(TCycleError):
    """A tree decomposition fails validation (uncovered edge or a vertex
    whose bags do not form a connected subtree)."""


class EdgeUncovered(InvalidDecomposition):
    """Some edge has no bag containing both of its endpoints."""


class VertexSubtreeDisconnected(InvalidDecomposition):
    """The bags containing some vertex do not induce a non-empty subtree."""


class BoundaryTooLarge(TCycleError):
    """A boundary set is too big to profile."""


class ModulatorInvalid(TCycleError):
    """The set handed to the protrusion decomposition does not leave a
    graph of small enough width."""


class SpliceError(TCycleError):
    """Replacing a part destroyed planarity or produced an inconsistent
    embedding."""
