"""Command-line surface: JSON in, JSON out.

Exit code 0 on success, 2 for invalid input, 1 for any other package
error, such as a node limit hit or a failed check.
"""

from __future__ import annotations

import json
import sys

import click

from . import verify as verify_mod
from .annulus import (
    MarkedAnnulus,
    arc_from_json,
    arc_to_json,
    flip as flip_op,
    triangulation_from_json,
    triangulation_to_json,
    variable_of_arc,
)
from .engine import DEFAULT_NODE_LIMIT, exchange_graph, mutate_seed, seed_from_json, seed_to_json
from .errors import (
    ClusterLabError,
    InvalidAnnulus,
    InvalidArc,
    InvalidParameter,
    InvalidQuiver,
    InvalidTriangulation,
)
from .laurent import format_poly, poly_to_json
from .quiver import classify_tilde_A, quiver_from_json, quiver_to_json


_INVALID_INPUT = (
    InvalidQuiver, InvalidAnnulus, InvalidArc, InvalidParameter, InvalidTriangulation,
)


def _load(path: str) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise InvalidParameter(f"{path} is not JSON: {error}") from error


def _emit(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


class _EnvelopeGroup(click.Group):
    """Every command's package errors become one JSON envelope, exiting 2
    for invalid input and 1 for any other error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ClusterLabError as error:
            _emit({"passed": False, "error": type(error).__name__, "detail": str(error)})
            sys.exit(2 if isinstance(error, _INVALID_INPUT) else 1)


@click.group(cls=_EnvelopeGroup)
def main():
    """Exact cluster-algebra computations on annulus triangulations."""


@main.command("mutate-quiver")
@click.option("--quiver", "quiver_path", required=True, type=click.Path(exists=True))
@click.option("--at", "direction", required=True, type=int)
def mutate_quiver_cmd(quiver_path: str, direction: int):
    """Mutate a quiver at one point."""
    quiver = quiver_from_json(_load(quiver_path))
    _emit(quiver_to_json(quiver.mutate(direction)))


@main.command("mutate-seed")
@click.option("--seed", "seed_path", required=True, type=click.Path(exists=True))
@click.option("--at", "direction", required=True, type=int)
@click.option("--trace", is_flag=True, help="Also print the exchange relation.")
def mutate_seed_cmd(seed_path: str, direction: int, trace: bool):
    """Mutate a seed at one direction."""
    seed = seed_from_json(_load(seed_path))
    mutated = mutate_seed(seed, direction)
    payload = seed_to_json(mutated)
    if trace:
        payload["trace"] = {
            "direction": direction,
            "old": format_poly(seed.cluster[direction]),
            "new": format_poly(mutated.cluster[direction]),
            "product": format_poly(seed.cluster[direction] * mutated.cluster[direction]),
        }
    _emit(payload)


@main.command("exchange-graph")
@click.option("--seed", "seed_path", required=True, type=click.Path(exists=True))
@click.option("--depth", required=True, type=int)
@click.option("--limit", default=DEFAULT_NODE_LIMIT, show_default=True, type=int)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
def exchange_graph_cmd(seed_path: str, depth: int, limit: int, dot_path: str | None):
    """Enumerate the exchange graph to a depth, optionally writing DOT."""
    seed = seed_from_json(_load(seed_path))
    graph = exchange_graph(seed, depth, limit)
    if dot_path:
        with open(dot_path, "w") as handle:
            handle.write(graph.to_dot() + "\n")
    _emit(graph.to_json())


@main.command("classify")
@click.option("--quiver", "quiver_path", required=True, type=click.Path(exists=True))
def classify_cmd(quiver_path: str):
    """Recognize an affine type-A quiver up to mutation equivalence."""
    quiver = quiver_from_json(_load(quiver_path))
    _emit(classify_tilde_A(quiver).to_json())


@main.group()
def annulus():
    """Operations on annulus triangulations."""


@annulus.command("flip")
@click.option("--triangulation", "tri_path", required=True, type=click.Path(exists=True))
@click.option("--arc", "arc_index", required=True, type=int)
def flip_cmd(tri_path: str, arc_index: int):
    """Flip one arc of a triangulation."""
    tri = triangulation_from_json(_load(tri_path))
    result = flip_op(tri, arc_index)
    _emit(
        {
            "triangulation": triangulation_to_json(result.triangulation),
            "removed": arc_to_json(result.removed),
            "new_arc": arc_to_json(result.new_arc),
            "quad_pairs": [
                [arc_to_json(side) if side is not None else "boundary" for side in pair]
                for pair in result.pairs
            ],
        }
    )


@annulus.command("variable")
@click.option("--p", required=True, type=int)
@click.option("--q", required=True, type=int)
@click.option("--arc", "arc_path", required=True, type=click.Path(exists=True))
def variable_cmd(p: int, q: int, arc_path: str):
    """Cluster variable of an arc, in the fan triangulation's frame."""
    ann = MarkedAnnulus(p, q)
    arc = arc_from_json(ann, _load(arc_path))
    value = variable_of_arc(ann, arc)
    payload = poly_to_json(value)
    payload["display"] = format_poly(value)
    _emit(payload)


@main.command("verify")
@click.option("--report", "report_name", required=True,
              help=f"One of {', '.join(verify_mod.REPORT_NAMES)}, or all.")
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--depth", type=int, default=None)
@click.option("--K", "big_k", type=int, default=None)
@click.option("--seed-rng", type=int, default=None)
def verify_cmd(report_name: str, p, q, depth, big_k, seed_rng):
    """Run a verification report; a failed check exits 1 with the error envelope."""
    reports = verify_mod.run_report(
        report_name, p=p, q=q, depth=depth, K=big_k, rng_seed=seed_rng
    )
    _emit([report.to_json() for report in reports])


if __name__ == "__main__":
    main()
