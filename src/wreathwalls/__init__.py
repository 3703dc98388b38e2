"""Walls on wreath products of finite groups with free groups.

Builds the left-invariant space-with-walls structure on H wr F_n from the
Cayley-tree walls of F_n, enumerates separating walls with an independent
brute-force oracle, verifies properness of the wall metric on exhaustive
boxes, and certifies at finite scale that the wall kernel embeds
squared-distance-isometrically into Hilbert space.
"""

from .embedding import (
    CndReport,
    GrowthRow,
    cnd_check,
    distance_matrix,
    growth_table,
    hamming_distances,
    validate_distance_matrix,
    validate_sample,
    wall_coordinates,
)
from .grammar import (
    ParseError,
    load_lamp_table,
    load_sample_file,
    parse_config,
    parse_element,
    parse_lamp_table,
    parse_sample_text,
    parse_word,
)
from .groups import (
    DEFAULT_CAP,
    MAX_RANK,
    CapExceededError,
    LampConfig,
    LampGroup,
    ReducedWord,
    WreathElement,
    free_ball,
    free_reduce,
    predicted_ball_size,
)
from .walls import (
    TreeHalfSpace,
    separating_tree_walls,
    translate_half_space,
)
from .wreath_walls import SublevelReport, WreathHalfSpace, WreathWallSpace

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CndReport",
    "DEFAULT_CAP",
    "GrowthRow",
    "LampConfig",
    "LampGroup",
    "MAX_RANK",
    "ParseError",
    "ReducedWord",
    "SublevelReport",
    "TreeHalfSpace",
    "WreathElement",
    "WreathHalfSpace",
    "WreathWallSpace",
    "cnd_check",
    "distance_matrix",
    "free_ball",
    "free_reduce",
    "growth_table",
    "hamming_distances",
    "load_lamp_table",
    "load_sample_file",
    "parse_config",
    "parse_element",
    "parse_lamp_table",
    "parse_sample_text",
    "parse_word",
    "predicted_ball_size",
    "separating_tree_walls",
    "translate_half_space",
    "validate_distance_matrix",
    "validate_sample",
    "wall_coordinates",
]
