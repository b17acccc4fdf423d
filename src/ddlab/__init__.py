"""ddlab — a desk-scale laboratory for leveled branching programs.

Truth-table functions with exact subfunction/width measures, deterministic /
nondeterministic / probabilistic / quantum leveled programs, addressed-input
reordering transforms at function and program level, a catalogue of structured
functions with explicit programs, and reproducible experiment suites.
"""
from .boolfn import (BoolFn, PartialBoolFn, Partition, VarOrder, evaluate, n_min, n_pi,
                     restrict, subfunction_count)
from .diagrams import (LeveledObdd, LeveledProgram, Nobdd, Pobdd, acceptance_table,
                       build_binary_tree_obdd, embed_obdd_as_nobdd, embed_obdd_as_pobdd,
                       eval_nobdd, eval_obdd, eval_pobdd, function_of, is_commutative,
                       rounded_table, sample_orders, size, to_text, width)
from .errors import (CapacityError, CommutativityError, ConsistencyError, DdlabError,
                     DependencyError, ShapeError, StructuralError, UsageError)
from .experiments import (ExperimentReport, ExperimentSpec, parse_function_spec,
                          parse_program_spec, report_emit, run, run_suite, suite_checks)
from .fixtures import (eq_multipliers, load_multiplier_fixtures, modp_multipliers,
                       recombined_eq_multipliers)
from .quantum import (BoundedErrorVerdict, QuantumProgram, UnitarityReport, accept_probability,
                      check_unitary, computes_with_bounded_error, is_commutative_quantum,
                      reorder_quantum)
from .quantum import acceptance_table as quantum_acceptance_table
from .reorder import (BlockLayout, allowed_input_indexes, lift, reorder_function, reorder_nobdd,
                      reorder_obdd, reorder_pobdd, totalize, xor_reorder_qobdd)
from .zoo import (PjInstance, RpjLayout, SearchResult, eq, eq_geometric_pobdd, eq_weighted_obdd,
                  fingerprint_eq_qobdd, fingerprint_modp_qobdd, mod_p, msw_b, or_guess_nobdd,
                  pj_2k_obdd, pj_bool, pj_decode, pj_encode, pj_eval, req, req_b, rpj,
                  rpj_2k_obdd, search_good_multipliers, ws, ws_b)

__version__ = "0.1.0"
