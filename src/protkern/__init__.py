"""Kernelization for parameterized graph problems by protrusion replacement."""

from .engine import EngineConfig, meta_kernelize, verify_kernel
from .graph import Graph, generate, parse_edge_list, parse_family, write_edge_list
from .problems import ProblemInstance, ProblemSpec, brute_opt, decide, get_problem

__all__ = [
    "EngineConfig",
    "Graph",
    "ProblemInstance",
    "ProblemSpec",
    "brute_opt",
    "decide",
    "generate",
    "get_problem",
    "meta_kernelize",
    "parse_edge_list",
    "parse_family",
    "verify_kernel",
    "write_edge_list",
]
