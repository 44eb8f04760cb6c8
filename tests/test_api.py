"""The package's public surface: a refactor may add names, never drop one
(``sublist``, ``list_diff``, ``oracle_fixture`` and ``oracle_from_fixture``
were dropped on purpose, as nothing but their own tests called them, and so
were ``table_oracle``, a second constructor of the table oracle that
``extend_with_default`` over a ``FiniteFunction`` already is, and the
Booleans' own space constructor, a second spelling of
``discrete_space(booleans_alphabet())``), the package and its tools import
nothing outside the standard library, and no module imports a name it never
uses."""

import ast
import pathlib
import sys

import contmach

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every name ``contmach`` exported when this guard was written, less the
#: six helpers named above that were dropped on purpose: the four fixture
#: and list helpers, ``table_oracle`` and the Booleans' space constructor.
EXPORTED = (
    "Alphabet", "Answer", "AssociateFn", "ContinuousMachine",
    "CorpusSample", "DialogueRound", "DialogueTranscript", "Evaluation",
    "FiniteFunction", "FiniteMultifunction", "INVERSION_POINTS",
    "KLEENEAN_PREFIX", "Kleenean", "MembershipResult",
    "ModulusSearchError", "MonotoneMachine", "NameOracle", "OPT_NONE",
    "PRECOMPLETION_SEARCH_BOUND", "Query", "RATIONAL_NAME_SCALES",
    "RealizerReport", "RepresentedSpace", "SIGN_POINTS", "STAR",
    "alphabets", "associates", "bool_to_kleenean_realizer",
    "booleans_alphabet", "brute_force_min_modulus",
    "check_realizer", "chooses_through", "compose_monotone",
    "constant_oracle", "corpus_sample", "derive_modulus_machine",
    "dialogue_machine", "dialogue_trace", "discrete_space",
    "effort_schedule", "embed_name", "encode_value", "evaluate",
    "evaluate_traced", "exact_name", "extend_with_default",
    "format_rational", "grid_name", "in_F_M", "inversion_machine",
    "kleenean_from_bool", "kleenean_to_bool_machine", "kleeneans",
    "load_corpus", "lookup", "machine_to_associate", "machines",
    "mf_compose", "monotone_machine", "monotonize_kleenean_name",
    "naturals_alphabet", "one_point_alphabet", "opt_alphabet",
    "override_oracle", "pair_alphabet", "parse_rational", "precompletion",
    "rational_reals", "rationals_alphabet", "realizers", "restriction_eq",
    "search_translate", "sign_kleenean", "sign_machine", "spaces",
    "standard_corpus", "tightens", "use_first",
)


def test_exported_names_are_kept():
    assert len(EXPORTED) == 78
    missing = sorted(set(EXPORTED) - set(contmach.__all__))
    assert missing == []


#: Absolute imports allowed besides the standard library: the package
#: itself, and the module the tools share.
OWN_MODULES = frozenset({"contmach", "bench_pairs"})


def test_imports_are_stdlib_only():
    sources = (sorted((ROOT / "src" / "contmach").glob("*.py"))
               + sorted((ROOT / "tools").glob("*.py")))
    assert {"machines.py", "cli.py", "bench_pairs.py"} <= {p.name for p in sources}
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [(path.name, module) for module in modules
                        if module.partition(".")[0] not in OWN_MODULES
                        and module.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def package_names():
    """(module, name) for every name the package's modules use: each
    Name's id, Attribute's attr, import alias's name and asname, and each
    def's or class's name."""
    for path in sorted((ROOT / "src" / "contmach").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for field in ("id", "attr", "name", "asname"):
                name = getattr(node, field, None)
                if isinstance(name, str):
                    yield path.name, name


def test_scale_table_is_named_only_in_alphabets():
    # Every other module asks for 2^-n through ``alphabets._scale``, so the
    # table's lookup rule has one owner.
    names = [entry for entry in package_names() if entry[0] != "alphabets.py"]
    assert {"realizers.py", "spaces.py"} <= {module for module, _ in names}
    assert [entry for entry in names if entry[1] == "_SCALES"] == []


def test_first_answer_rule_is_written_only_in_alphabets():
    # First-match tables keep each question's first answer with
    # ``dict.setdefault``; ``alphabets`` owns every such table (``_index``,
    # ``_Transcript``, the shared scales), so no other module names it.
    users = [module for module, name in package_names() if name == "setdefault"]
    assert users and set(users) == {"alphabets.py"}


def test_print_limit_is_read_only_in_alphabets():
    # The rule for a rational too long to print as p/q has one owner: every
    # other module asks ``alphabets`` (``_check_power_of_two``, ``parse_rational``).
    readers = [module for module, name in package_names()
               if name == "get_int_max_str_digits"]
    assert readers and set(readers) == {"alphabets.py"}


def test_scanned_record_is_named_only_in_machines():
    # ``_Settled`` is the record of a machine without a settle of its own;
    # every settling machine outside ``machines`` builds one of the record
    # classes with a list rule of its own (``dialogue_machine`` a
    # ``_FirstSettled``), so no other module names it or its encoder.
    users = [module for module, name in package_names()
             if name in ("_Settled", "_encoded")]
    assert users and set(users) == {"machines.py"}


def test_no_module_imports_a_name_it_never_uses():
    # Each name an import binds (``import a.b`` binds ``a``) is read as a
    # Name somewhere in its module.  ``__init__`` imports to re-export, and
    # a ``__future__`` import binds nothing the module reads.
    sources = ([path for path in sorted((ROOT / "src" / "contmach").glob("*.py"))
                if path.name != "__init__.py"]
               + sorted((ROOT / "tools").glob("*.py"))
               + sorted((ROOT / "tests").glob("*.py")))
    assert {"machines.py", "code_lines.py", "_families.py"} <= {
        path.name for path in sources}
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound = [alias.asname or alias.name.partition(".")[0]
                     for alias in node.names]
            unused += [(path.name, name) for name in bound if name not in read]
    assert unused == []
