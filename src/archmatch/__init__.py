"""archmatch: architecture descriptions, protocol automata, component matching.

The package mirrors the pipeline: `dsl` parses architecture description
units, `model` resolves them into interfaces/contracts/components and derives
publications, `protocol` compiles call protocols to automata and decides
inclusion, `category` builds and links the business and application
architectures, `sigmatch` and `matcher` answer "can an existing component
satisfy this requirement?", and `repo` keeps the compiled index on disk.
"""

from . import dsl, matcher, model, protocol, repo, sigmatch
from .matcher import Requirement
from .model import publish, resolve, validate_publication
from .repo import build_index, load, load_requirement

__version__ = "0.1.0"

__all__ = [
    "category",
    "dsl",
    "matcher",
    "model",
    "protocol",
    "repo",
    "sigmatch",
    "Requirement",
    "publish",
    "resolve",
    "validate_publication",
    "build_index",
    "load",
    "load_requirement",
    "__version__",
]
