"""Pattern-avoiding sorting machines over permutations, Cayley
permutations, restricted growth functions and (modified) ascent
sequences: machines, characterization oracles, bijections, generating
trees, enumeration formulas and golden-table verification."""

from .words_core import (Domain, ParseError, Which, Word, complement,
                         direct_sum, format_word, identity, inflate, inverse,
                         is_member, ltr_decompose, ltr_maxima, ltr_minima,
                         modify, parse_word, reverse, skew_sum, standardize,
                         unmodify)
from .patterns import (NAMED, Pattern, PatternKind, PatternParseError,
                       avoids, barred, bivincular, cayley_mesh, classical,
                       contains, format_pattern, mesh, parse_pattern,
                       path_pattern)
from .machine import (DEFAULT_GUARDS, MachineSpec, MachineTrace, fertility,
                      image_set, is_sortable, iter_domain, machine_outputs,
                      machine_run, sigma_stack_output, sortable_count,
                      sortable_words, stack21_output)
from .oracles import (Classification, FallbackRequired, UnsupportedError,
                      classify, fertility_123, hat, is_effective,
                      is_fully_bijective_cayley, is_injective, oracle_for,
                      oracle_is_sortable, sortable_123, sorted_set,
                      sorted_set_123, verify_witness)
from .paths_trees import (LatticePath, PathKind, SuccessionRule,
                          count_dyck_bounded, dyck_path, format_path,
                          iter_dyck, iter_motzkin, iter_schroder,
                          motzkin_path, parse_path, rule_catalog, rule_ids,
                          rule_level_counts, schroder_path)
from .bijections import (StoreMode, alpha_strip, av213_to_dyck,
                         av321_to_rgfnr12321, beta_motzkin, delta,
                         delta_inverse, dyck_to_av213, dyck_to_rgf1221, eta,
                         eta_inverse, parse_labeled_motzkin, phi_add_max,
                         rgf1221_to_dyck, rgfnr12321_to_av321,
                         schroder_to_sort123, sort123_to_schroder)
from .enumeration import (GoldenTable, Method, SequenceId, count_sortable,
                          golden_ids, golden_table, sequence_value,
                          verify_golden)

__version__ = "1.0.0"
