"""Exact symbolic matrix rank and determinant identity testing.

Decides and certifies maximum rank / nonsingularity questions for matrix
spaces through generalized Wong sequences, with brute-force oracles for
ground truth on small finite fields.
"""

from .errors import SymrankError
from .fields import (ExtensionField, Field, FieldSpec, PrimeField,
                     RationalField, distinct_elements, ensure_size, make_field)
from .linalg import Mat, Subspace, image, kernel, pseudo_inverse, rref
from .spaces import MatSpace
from .wong import (WitnessReport, WongTrace, first_wong, second_wong,
                   verify_witness, witness_test)
from .po import PoAnswer, PoInstance, find_ell, helpful_subspaces, solve_po
from .smr import SmrResult, pad_square, reduce_coefficients, smr, smr_rank_only
from .sdit import (RationalSditReport, TriOutcome,
                   is_triangularizable_with_nonsingular, rational_sdit, tri_algo)
from .oracles import (blackbox_greedy, brute_disc, brute_max_rank, sk3,
                      strict_upper_embed, yz_lift, yz_lift_shifted)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
