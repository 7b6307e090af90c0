"""Solvability of x^2 - D y^2 = n by residue-symbol criteria.

The library decides the generalized Pell equation for two families of D
(a product of two primes 1 mod 4 whose quartic symbols multiply to -1,
and twice a squarefree product of primes 1 mod 8 with a suitable sum of
two squares), via class-group and Hilbert-symbol conditions, and carries
a complete continued-fraction solver as an independent oracle.
"""

from .verdict import Verdict
from .intcore import Factorization, factor, is_prime, sqrt_mod
from .symbols import REAL, burde_product, hilbert_q, jacobi, quartic_2_of_d, quartic_residue
from .quadring import (
    QuadOrderInfo,
    TwistPoint,
    classify_order,
    find_twist_point,
    splitting_type,
    two_squares_all,
)
from .localanalysis import (
    CharacterTable,
    LocalPoint,
    character_table,
    find_local_point,
    hilbert_ev,
    local_solvable,
    places_over,
    square_class_2,
)
from .pellsolver import CFExpansion, PellFundamental, cf_fundamental, minimal_solutions, solve
from .artin import (
    AdelicChoice,
    ClassGroup,
    Form,
    artin_condition,
    class_group,
    class_images_of_norm,
    joint_artin_decide,
    twist_symbol,
)
from .criteria import classify_2p, classify_pq, decide_221, known_obstructions

__all__ = [
    "AdelicChoice",
    "CFExpansion",
    "CharacterTable",
    "ClassGroup",
    "Factorization",
    "Form",
    "LocalPoint",
    "PellFundamental",
    "QuadOrderInfo",
    "REAL",
    "TwistPoint",
    "Verdict",
    "artin_condition",
    "burde_product",
    "cf_fundamental",
    "character_table",
    "class_group",
    "class_images_of_norm",
    "classify_2p",
    "classify_order",
    "classify_pq",
    "decide_221",
    "factor",
    "find_local_point",
    "find_twist_point",
    "hilbert_ev",
    "hilbert_q",
    "is_prime",
    "jacobi",
    "joint_artin_decide",
    "known_obstructions",
    "local_solvable",
    "minimal_solutions",
    "places_over",
    "quartic_2_of_d",
    "quartic_residue",
    "solve",
    "splitting_type",
    "sqrt_mod",
    "square_class_2",
    "twist_symbol",
    "two_squares_all",
]
