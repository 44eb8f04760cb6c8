"""The package's public names: a refactor may add names, never drop one."""

import contmach

#: Every name ``contmach`` exported when this guard was written.
EXPORTED = (
    "Alphabet", "Answer", "AssociateFn", "ContinuousMachine",
    "CorpusSample", "DialogueRound", "DialogueTranscript", "Evaluation",
    "FiniteFunction", "FiniteMultifunction", "INVERSION_POINTS",
    "KLEENEAN_PREFIX", "Kleenean", "MembershipResult",
    "ModulusSearchError", "MonotoneMachine", "NameOracle", "OPT_NONE",
    "PRECOMPLETION_SEARCH_BOUND", "Query", "RATIONAL_NAME_SCALES",
    "RealizerReport", "RepresentedSpace", "SIGN_POINTS", "STAR",
    "alphabets", "associates", "bool_to_kleenean_realizer",
    "booleans_alphabet", "booleans_space", "brute_force_min_modulus",
    "check_realizer", "chooses_through", "compose_monotone",
    "constant_oracle", "corpus_sample", "derive_modulus_machine",
    "dialogue_machine", "dialogue_trace", "discrete_space",
    "effort_schedule", "embed_name", "encode_value", "evaluate",
    "evaluate_traced", "exact_name", "extend_with_default",
    "format_rational", "grid_name", "in_F_M", "inversion_machine",
    "kleenean_from_bool", "kleenean_to_bool_machine", "kleeneans",
    "list_diff", "load_corpus", "lookup", "machine_to_associate",
    "machines", "mf_compose", "monotone_machine",
    "monotonize_kleenean_name", "naturals_alphabet", "one_point_alphabet",
    "opt_alphabet", "oracle_fixture", "oracle_from_fixture",
    "override_oracle", "pair_alphabet", "parse_rational", "precompletion",
    "rational_reals", "rationals_alphabet", "realizers", "restriction_eq",
    "search_translate", "sign_kleenean", "sign_machine", "spaces",
    "standard_corpus", "sublist", "table_oracle", "tightens", "use_first",
)


def test_exported_names_are_kept():
    assert len(EXPORTED) == 84
    missing = sorted(set(EXPORTED) - set(contmach.__all__))
    assert missing == []
