"""Piercing sets for families of axis-parallel boxes.

Exact integer geometry, ground-truth packing/piercing oracles,
constructive piercing algorithms with certified size guarantees, the
bound recurrences they realize, extremal instance generators, and a
JSON-based instance format with a CLI.

Every public name is imported from its submodule on first access
(PEP 562), so a process loads only the modules it uses: `boxpierce
verify` never loads the piercing algorithms.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "LOG_CBRT9_OF_2", "BoundRule", "BoundTable", "bound_best_known",
        "bound_hadwiger2", "bound_lemma1", "bound_prop1", "bound_prop3",
        "build_table", "h", "table_to_csv",
    ), "bounds"),
    **dict.fromkeys((
        "RandomSpec", "gen_extremal_two_line", "gen_gadget", "gen_random",
    ), "generators"),
    **dict.fromkeys((
        "Box", "BoxFamily", "FourWaySplit", "Interval", "Point", "TwoLines",
        "intersects", "lift_points", "project_onto_hyperplane", "split_four",
        "split_three",
    ), "geometry"),
    **dict.fromkeys((
        "Instance", "InstanceFormatError", "VerifyReport", "instance_from_json",
        "instance_to_json", "load_instance", "read_instance", "verify_piercing",
        "write_instance",
    ), "instances"),
    **dict.fromkeys((
        "DEFAULT_CAP", "CapExceeded", "NuResult", "TauResult", "candidate_grid",
        "common_point", "nu_exact", "tau_exact",
    ), "oracles"),
    **dict.fromkeys((
        "PierceReport", "SplitPolicy", "TraceNode", "pierce_ddim", "pierce_intervals_1d",
        "pierce_planar", "pierce_two_lines",
    ), "piercing"),
}

__all__ = sorted(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
