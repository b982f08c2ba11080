"""Exact arithmetic for extensions of F_q(T): splitting types, ideal-count
tables, Weil and mod-p zeta functions, their Witt-vector lifts, and
Gassmann equivalence of subgroups."""

from .errors import (ExtensionError, FieldError, GossliftError, GroupError,
                     LaurentError, PolyError, WittError, ZetaError)
from .field import (FIELD_SIZE_BOUND, FiniteField, ResidueField, ZechField,
                    gf_create)
from .poly import (MonicPoly, enumerate_monic, enumerate_monic_irreducibles,
                   factor_monic, poly_factor_degrees)
from .laurent import LaurentSeries, laurent_inv_pow
from .textforms import (format_terms, format_tpoly, format_xt_poly,
                        parse_monic, parse_tpoly, parse_xt_poly)
from .extension import (ExtensionSpec, SplittingType, builtin_extension,
                        discriminant, parse_extension, parse_extension_file,
                        splitting_type, splitting_types, trivial_extension)
from .zeta import (DirichletTable, WeilSeries, ZetaVerdict, compare_zeta,
                   dirichlet_table, dump_table, goss_eval, load_table,
                   local_counts, pgalois_check, prime_power_residues,
                   reconstruct_splitting, weil_series)
from .witt import (FieldOps, LaurentOps, WittPolys, WittVector, int_to_witt,
                   lifted_goss_eval, teichmuller, witt_add, witt_mul,
                   witt_neg, witt_structure_polys, witt_sub, witt_text,
                   witt_zero)
from .gassmann import (GassmannReport, PermGroup, all_subgroups_of_order,
                       are_conjugate, builtin_group, cayley_komatsu,
                       compose, conjugacy_classes_of, coset_cycle_type,
                       coset_types, cycle_type, cyclic_subgroup_classes,
                       format_perm, gassmann_by_cycle_type, gassmann_check,
                       inverse, klein4, klein4_pair, parse_group_file,
                       parse_group_text, parse_perm, perm_order, psl27,
                       psl27_pair, psl211, psl211_pair, subgroups_of_order,
                       symmetric_group)
from .demos import DEMOS, run_demo, standard_extensions

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
