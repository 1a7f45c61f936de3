"""Workbench for finite quasi-Boolean algebras."""

from .algebra import (FiniteAlgebra, ValidationReport, axiom_holds_at,
                      algebra_from_dict, algebra_to_dict, cloud_map, cloud_of,
                      dump_algebra, is_flat, load_algebra, quasi_leq,
                      regular_elements, require_valid, validate)
from .congruences import (CongruenceDecomposition, all_congruences,
                          compose_flat, compose_nonflat, decompose,
                          extend_from_subalgebra, generated_congruence,
                          principal_congruence_flat,
                          principal_congruence_nonflat, split_congruence,
                          subalgebra, subalgebras)
from .enumeration import (EnumerationReport, enumerate_all, enumerate_flat,
                          verify_structure)
from .fixtures import FIXTURE_NAMES, all_fixtures, fixture
from .partitions import (Partition, format_partition, is_congruence,
                         pair_closure_gaps, parse_partition)
from .quotients import (ElementMap, boolean_algebra, chi, direct_product,
                        embed_into_product, find_isomorphism,
                        is_homomorphism, is_irreducible, make_flat,
                        make_irreducible, quotient, tau)
from .terms import (Equation, Term, Verdict, Witness, decide,
                    equation_corpus, eval_term, format_equation, format_term,
                    holds_in, parse_equation, parse_term, variables)

__version__ = "0.1.0"
