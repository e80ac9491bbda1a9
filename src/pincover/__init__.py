"""Pin structures on surfaces and their orientation double covers, exactly."""

from .characteristic import obstructions, w1, w1_cup_w1, w2
from .clifford import Multivector, Signature, fiber_group_tag, lift_orthogonal, twisted_adjoint
from .pin2 import PIN_MINUS, PIN_PLUS
from .structures import (
    boundary_lift_table,
    descend,
    double_structure,
    enumerate_structures,
    lift_involution,
    moebius_descent,
)
from .surface import build, cover_diagram, double

__version__ = "0.1.0"

__all__ = [
    "Multivector",
    "Signature",
    "PIN_PLUS",
    "PIN_MINUS",
    "build",
    "boundary_lift_table",
    "cover_diagram",
    "descend",
    "double",
    "double_structure",
    "enumerate_structures",
    "fiber_group_tag",
    "lift_involution",
    "lift_orthogonal",
    "moebius_descent",
    "obstructions",
    "twisted_adjoint",
    "w1",
    "w1_cup_w1",
    "w2",
    "__version__",
]
