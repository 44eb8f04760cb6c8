"""Fuel-indexed machines on Baire-like name spaces.

Partial operators between spaces of total question-answering functions are
represented by total machines with an explicit effort budget, paired with
self-modulating moduli of continuity.  The package provides the operator
semantics and effort search, monotonization and composition, translations to
and from the function-space (associate) encoding, concrete represented
spaces, exact-real realizers, and a realizer-checking harness.
"""

from .alphabets import (OPT_NONE, STAR, Alphabet, FiniteFunction, NameOracle,
                        booleans_alphabet, constant_oracle, encode_value,
                        extend_with_default, format_rational, lookup,
                        naturals_alphabet, one_point_alphabet, opt_alphabet,
                        override_oracle, pair_alphabet, parse_rational,
                        rationals_alphabet, restriction_eq)
from .associates import (Answer, AssociateFn, DialogueRound,
                         DialogueTranscript, Query, dialogue_machine,
                         dialogue_trace, machine_to_associate)
from .machines import (ContinuousMachine, Evaluation, MembershipResult,
                       ModulusSearchError, MonotoneMachine,
                       brute_force_min_modulus, compose_monotone,
                       derive_modulus_machine, effort_schedule, evaluate,
                       evaluate_traced, in_F_M, monotone_machine, use_first)
from .realizers import (INVERSION_POINTS, SIGN_POINTS, CorpusSample,
                        FiniteMultifunction, RealizerReport, check_realizer,
                        chooses_through, corpus_sample, exact_name, grid_name,
                        inversion_machine, load_corpus, mf_compose,
                        sign_machine, standard_corpus, tightens)
from .spaces import (KLEENEAN_PREFIX, PRECOMPLETION_SEARCH_BOUND,
                     RATIONAL_NAME_SCALES, Kleenean, RepresentedSpace,
                     bool_to_kleenean_realizer, discrete_space, embed_name,
                     kleenean_from_bool, kleenean_to_bool_machine, kleeneans,
                     monotonize_kleenean_name, precompletion, rational_reals,
                     search_translate, sign_kleenean)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
