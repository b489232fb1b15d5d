"""Exact arithmetic for twisted polynomial rings, Drinfeld modules over
F_q[t], their torsion and Frobenius norms, determinant modules, and
Frobenius-recovery decision procedures."""

from .bivar import BivarPoly, parse_bivar
from .dmodule import (DrinfeldModule, carlitz_module, dm_characteristic,
                      dm_phi)
from .family import (DrinfeldFamily, carlitz_family,
                     dm_residual_frobenius_check, dm_unit_valuation_check,
                     family_specialize)
from .finitefield import (FFElem, FField, FieldEmbedding, extension_of,
                          ff_embed, ff_generator, ff_make)
from .frobrec import (NOT_FROBENIUS, XTOY, YTOX, FrobClassification,
                      FrobeniusDecision, classify_frobenius_bivariate,
                      frobenius_target, recover_monomial_exponent,
                      strip_p_powers, theorem_frob_res)
from .motive import (det_drinfeld, motive_det, motive_frobenius_norm,
                     motive_matrix, verify_tate_det)
from .ore import (OrePoly, ore_divmod_left, ore_divmod_right, ore_eval,
                  ore_kernel, ore_splitting_degree, separable_part)
from .ratfunc import RationalFunction, parse_ratfunc
from .reports import (FrobeniusReport, choose_prime_sets, dm_frobenius_norm,
                      family_norm_table, norm_report, place_report,
                      residual_table)
from .torsion import (TorsionModule, dm_frobenius_matrix, dm_torsion,
                      torsion_point_count)
from .upoly import (UPoly, monic_irreducibles, parse_upoly, upoly_crt,
                    upoly_gcd, upoly_irreducible, upoly_roots, upoly_xgcd)

__all__ = [name for name in dir() if not name.startswith("_")]
