"""Inverse automata over involutive alphabets, Cayley-graph
constellations, Gaschütz mod-p extension layers, alternating-group
completions, and exact dissolver / disconnection / closure decisions
for finite A-generated groups."""

from .words import (ASCII_LETTERS, EMPTY, Word, concat, format_word, invert,
                    parse_word, power, reduce)
from .automata import (InverseAutomaton, LabeledGraph, Subgraph, amalgam,
                       as_inverse_automaton, bouquet, canonical, core_of_words,
                       embed_check, fold, full_subgraph, member, rank_from_core,
                       read_aut, to_dot, transition_group, trim, write_aut)
from .perms import (AlternatingCertificate, Permutation, PermSpec,
                    alternating_certificate, from_cycles, is_primitive,
                    is_prime, is_transitive, parse_cycles)
from .groups import (CyclicSpec, ExtensionSpec, KleinSpec, MaterializedGroup,
                     Morphism, OrderBoundError, ProductSpec,
                     abelian_relations, abelianization, canonical_morphism,
                     identity_morphism, materialize, product_A,
                     subgroup_closure, traversal_vector)
from .gaschuetz import (CenterInfo, GaschuetzElement, GaschuetzLayer,
                        StructureReport, Tower, TowerSpec, build_tower, center,
                        coprime_structure_checks, layer_abelianization,
                        order_formula)
from .constellations import (Constellation, MaxConstellationPair, MinimalCut,
                             amalgams_of, assemble_AG, chain_letter, delta_a,
                             maximal_constellations, minimal_cut_sets)
from .completion import (CompletionPlan, PredissolverReport,
                         complete_to_alternating, predissolver_certificate,
                         smallest_prime_greater)
from .dissolve import (DissolveReport, KeyLemmaReport, RankReport,
                       counting_lifts_check, detecting_edges_check,
                       disconnection_equivalence, dissolve_all, dissolves_linear,
                       dissolves_materialized, key_lemma_report,
                       schreier_rank_check)
from .errors import VerificationError
from .closure import (closure_at_level, closure_chain, extendible_at_level,
                      product_membership_at_level, schreier_graph, subgroup_image)

__version__ = "0.1.0"
