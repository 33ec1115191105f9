"""Exception hierarchy.

ConfigError covers bad user input; PhysicsError covers situations where the
requested quantity is genuinely undefined (gap closings, broken PT symmetry,
trivial quenches). The CLI maps these onto distinct exit codes.
"""


class DqptWalkError(Exception):
    """Base class for everything raised by this package."""


class ConfigError(DqptWalkError):
    """Bad user input."""


class InvalidInitialProtocolError(ConfigError):
    """Initial coin angles do not give momentum-independent eigenstates."""


class PhysicsError(DqptWalkError):
    """The requested quantity is undefined for this walk or quench."""


class DegenerateSpectrumError(PhysicsError):
    """Quasienergy gap closed; eigenvectors undefined."""


class TopologicalBoundaryError(PhysicsError):
    """Gap closes somewhere on the momentum grid; winding undefined."""


class InsufficientResolutionError(PhysicsError):
    """Winding accumulation did not settle onto an integer."""


class PTBrokenError(PhysicsError):
    """Operation requires an entirely real quasienergy spectrum."""


class TrivialQuenchError(PhysicsError):
    """Initial and final protocols share an eigenbasis; weight identically zero."""


class IllDefinedPhaseError(PhysicsError):
    """Loschmidt amplitude vanished; its phase carries no information."""


class UndefinedDynamicPhaseError(PhysicsError):
    """Dynamic phase requested in a PT-broken sector."""


class UnresolvedPhaseJumpError(PhysicsError):
    """Phase increment stayed near pi after maximum local refinement."""
