"""0-1 ILP substrate: model, branch & bound solver, Tiresias encoder."""

from .encode import TiresiasEncoder, make_encoder
from .model import BinaryProgram, Constraint
from .solver import ILPSolution, enumerate_optima, pick_solution, solve

__all__ = [
    "TiresiasEncoder",
    "make_encoder",
    "BinaryProgram",
    "Constraint",
    "ILPSolution",
    "enumerate_optima",
    "pick_solution",
    "solve",
]
