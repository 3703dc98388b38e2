"""Walls on wreath products of finite groups with free groups.

Builds the left-invariant space-with-walls structure on H wr F_n from the
Cayley-tree walls of F_n, enumerates separating walls with an independent
brute-force oracle, verifies properness of the wall metric on exhaustive
boxes, and certifies at finite scale that the wall kernel embeds
squared-distance-isometrically into Hilbert space.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it, imported on first access (PEP 562).
_EXPORTS = {
    "CapExceededError": "groups",
    "CndReport": "embedding",
    "DEFAULT_CAP": "groups",
    "GrowthRow": "embedding",
    "LampConfig": "groups",
    "LampGroup": "groups",
    "MAX_RANK": "groups",
    "ParseError": "grammar",
    "ReducedWord": "groups",
    "SublevelReport": "wreath_walls",
    "TreeHalfSpace": "walls",
    "WreathElement": "groups",
    "WreathHalfSpace": "wreath_walls",
    "WreathWallSpace": "wreath_walls",
    "cnd_check": "embedding",
    "distance_matrix": "embedding",
    "free_ball": "groups",
    "free_reduce": "groups",
    "growth_table": "embedding",
    "load_lamp_table": "grammar",
    "load_sample_file": "grammar",
    "parse_config": "grammar",
    "parse_element": "grammar",
    "parse_lamp_table": "grammar",
    "parse_sample_text": "grammar",
    "parse_word": "grammar",
    "predicted_ball_size": "groups",
    "separating_tree_walls": "walls",
    "translate_half_space": "walls",
    "validate_distance_matrix": "embedding",
    "validate_sample": "columns",
    "wall_coordinates": "embedding",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
