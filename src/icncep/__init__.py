"""Named-data broker with in-network complex-event processing.

The package is organised by plane:

- packet, tables: value types and per-node forwarding state
- engine: the per-node data plane (packet handlers, operator runtime)
- query: query language front end (lexer, parser, lambda translation)
- operators: evaluation semantics of the operator library
- placement: path building over a delay map, operator assignment
- sim: deterministic discrete-event harness, topology presets, datasets
- cli: operator-facing commands (parse, explain, run-sim, replay, metrics)
"""

__version__ = "0.1.0"
