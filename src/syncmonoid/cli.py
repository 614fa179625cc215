"""Command-line interface.

Machine-readable output (JSON or the map/graph text formats) goes to
stdout, or to a file with --out; human summaries go to stderr.  Exit
codes: 0 success, 1 domain error (bad file contents, caps, out of memory),
2 usage error, 3 internal error (a certificate failed its check), 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .dixon import summary_rows
from .errors import CapExceeded, VerificationError
from .experiments import (
    ExperimentConfig,
    estimate_record,
    estimate_sync_probability,
    exact_sync_probability,
    explore_classes,
    explore_maximal_nonsync,  # not called here; bench/tracing.py hooks this name
    sweep,
)
from .formats import FormatError, format_graph, format_maps, parse_graph, parse_maps
from .graphs import (
    check_maximality_conditions,
    derived_graph,
    endomorphism_count,
    enumerate_endomorphisms,
    hull,
    pair_numbering,
)
from .sync import (
    GeneratorSet,
    is_synchronizing,
    min_rank_witness,
    separation_graph,
    shortest_synchronizing_word,
)
from .transform import rank


class UsageError(Exception):
    pass


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {value}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("all n values must be at least 1")
    return values


_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(obj, sort_keys=True) builds per call


_EMPTY_EDGES = '"edges": []'  # where _cmd_explore splits a class record's text


def _emit(args, obj) -> None:  # bench/tracing.py hooks this name
    args.sink.write(_ENCODER.encode(obj) + "\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_generators(path: str) -> GeneratorSet:
    return GeneratorSet(parse_maps(_read(path)))


def _cmd_sync(args) -> int:
    gens = _load_generators(args.maps)
    ok = is_synchronizing(gens)
    _emit(args, {"synchronizing": ok})
    _note(f"synchronizing: {'yes' if ok else 'no'}")
    return 0


def _cmd_gr(args) -> int:
    gens = _load_generators(args.maps)
    graph = separation_graph(gens)
    args.sink.write(format_graph(graph))
    _note(f"separation graph: {graph.n} vertices, {graph.num_edges()} edges")
    return 0


def _cmd_minrank(args) -> int:
    gens = _load_generators(args.maps)
    word, witness = min_rank_witness(gens)
    _emit(
        args,
        {
            "rank": rank(witness),
            "word": [gi + 1 for gi in word],
            "map": witness.one_based(),
        },
    )
    _note(f"minimum rank {rank(witness)} via a word of length {len(word)}")
    return 0


def _cmd_word(args) -> int:
    gens = _load_generators(args.maps)
    if args.shortest:
        word = shortest_synchronizing_word(gens, cap=args.cap)
    else:
        greedy, witness = min_rank_witness(gens)
        word = greedy if rank(witness) == 1 else None
    if word is None:
        _emit(args, {"word": None, "length": None})
        _note("no synchronizing word exists")
    else:
        _emit(args, {"word": [gi + 1 for gi in word], "length": len(word)})
        _note(f"synchronizing word of length {len(word)}")
    return 0


def _cmd_hull(args) -> int:
    graph = hull(parse_graph(_read(args.graph)))
    args.sink.write(format_graph(graph))
    _note(f"hull: {graph.num_edges()} edges")
    return 0


def _cmd_derived(args) -> int:
    graph = derived_graph(parse_graph(_read(args.graph)))
    args.sink.write(format_graph(graph))
    _note(f"derived graph: {graph.num_edges()} edges")
    return 0


def _cmd_endos(args) -> int:
    x = parse_graph(_read(args.graph))
    if args.count_only:
        count = endomorphism_count(x, cap=args.cap)
        _emit(args, {"count": str(count)})
        _note(f"{count} endomorphisms")
    else:
        endos = enumerate_endomorphisms(x, cap=args.cap)
        args.sink.write(format_maps(endos))
        _note(f"{len(endos)} endomorphisms")
    return 0


def _cmd_nearcon(args) -> int:
    x = parse_graph(_read(args.graph))
    cond = check_maximality_conditions(x)
    _emit(
        args,
        {
            "n": x.n,
            "is_hull": cond.is_hull,
            "omega": cond.omega,
            "chi": cond.chi,
            "every_edge_in_max_clique": cond.every_edge_in_max_clique,
            "passes": cond.passes,
        },
    )
    _note(f"maximality conditions {'pass' if cond.passes else 'fail'}")
    return 0


def _generator_counts(args) -> tuple[int, int]:
    if getattr(args, "k", None) is not None:
        if args.perms is not None or args.maps_count is not None:
            raise UsageError("--k conflicts with --perms/--maps-count")
        return 0, args.k
    if args.perms is None or args.maps_count is None:
        raise UsageError("need either --k or both --perms and --maps-count")
    if args.perms + args.maps_count < 1:
        raise UsageError("need at least one generator (--perms + --maps-count >= 1)")
    return args.perms, args.maps_count


def _cmd_estimate(args) -> int:
    r, s = _generator_counts(args)
    config = ExperimentConfig(args.n, r, s, args.trials, args.seed)
    est = estimate_sync_probability(config, threads=args.threads)
    _emit(args, estimate_record("estimate", config, est))
    _note(f"estimate {est.estimate:.6f}  CI [{est.ci_low:.6f}, {est.ci_high:.6f}]")
    return 0


def _cmd_exact(args) -> int:
    result = exact_sync_probability(args.n, *_generator_counts(args))
    _emit(args, {"exact": f"{result.numerator}/{result.denominator}"})
    _note(f"exact probability {result.numerator}/{result.denominator} ({result.context})")
    return 0


def _cmd_sweep(args) -> int:
    import time

    r, s = _generator_counts(args)
    start = time.perf_counter()
    records = sweep(
        args.n,
        [(r, s, args.trials)],
        args.seed,
        threads=args.threads,
    )
    for record in records:
        _emit(args, record)
    elapsed = time.perf_counter() - start
    _note(f"sweep: {len(records)} records in {elapsed:.2f}s")
    return 0


def _cmd_explore(args) -> int:
    """Stream the records of ``explore_maximal_nonsync`` as JSON lines,
    encoding each class once.  The first member of a class encodes its
    record with an empty edge list and splits the text there; every member
    then writes that head, the text of its own edges and the tail.  The keys
    are sorted, so ``edges`` always sits at the same place and each line is
    byte for byte what ``_emit`` writes for the member's dict."""
    limit = 7 if args.canonical else 6
    if args.n > limit:
        raise UsageError(
            f"explore supports n <= {limit} ({'canonical' if args.canonical else 'labeled'} mode)"
        )
    pairs, _ = pair_numbering(args.n)
    top = len(pairs) - 1
    edge_texts = [(1 << (top - p), f"[{v + 1}, {w + 1}]") for p, (v, w) in enumerate(pairs)]
    parts = {}  # id of a class record (kept alive by the walk) -> (head, tail)
    count = 0
    for record, value in explore_classes(args.n, args.canonical, args.cap):
        split = parts.get(id(record))
        if split is None:
            text = _ENCODER.encode(dict(record, canonical=args.canonical, edges=[]))
            pieces = text.split(_EMPTY_EDGES)
            if len(pieces) != 2:
                raise VerificationError(f"{_EMPTY_EDGES} occurs {len(pieces) - 1} times in {text}")
            split = parts[id(record)] = (pieces[0] + '"edges": [', "]" + pieces[1] + "\n")
        head, tail = split
        args.sink.write(head + ", ".join([t for bit, t in edge_texts if value & bit]) + tail)
        count += 1
    _note(f"explore: {count} graphs, {len(parts)} classes")
    return 0


def _cmd_dixon(args) -> int:
    rows = summary_rows(args.max_n)
    for row in rows:
        _emit(args, row)
    _note(f"dixon table: {len(rows)} rows")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing keeps no state in
    it, as each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="syncmonoid",
        description="Synchronizing transformation monoids: exact machinery and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    positive, nonneg = _int_at_least(1), _int_at_least(0)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write machine output to this file instead of stdout")

    def maps_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("--maps", required=True, help="transformation file (one map per line)")
        p.set_defaults(func=func)
        return p

    def graph_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("--graph", required=True, help="graph file ('n m' header, edge lines)")
        p.set_defaults(func=func)
        return p

    maps_cmd("sync", _cmd_sync, "decide whether the generated monoid is synchronizing")
    maps_cmd("gr", _cmd_gr, "emit the separation graph of the generated monoid")
    maps_cmd("minrank", _cmd_minrank, "greedy minimum-rank witness word and map")
    word = maps_cmd("word", _cmd_word, "synchronizing word (greedy, or shortest via subset BFS)")
    word.add_argument("--shortest", action="store_true", help="exhaustive shortest word")
    word.add_argument("--cap", type=positive, default=10**6,
                      help="most subsets the --shortest search visits")

    graph_cmd("hull", _cmd_hull, "emit the hull of the graph")
    graph_cmd("derived", _cmd_derived, "emit the derived graph (edges in maximum cliques)")
    endos = graph_cmd("endos", _cmd_endos, "enumerate or count graph endomorphisms")
    endos.add_argument("--count-only", action="store_true")
    endos.add_argument("--cap", type=positive, default=10**6)
    graph_cmd("nearcon", _cmd_nearcon, "check the maximal-non-synchronizing conditions")

    estimate = sub.add_parser(
        "estimate", help="Monte Carlo synchronization probability", parents=[common]
    )
    estimate.add_argument("--n", type=positive, required=True)
    estimate.add_argument("--k", type=positive, help="shorthand for --perms 0 --maps-count K")
    estimate.add_argument("--perms", type=nonneg, help="number of random permutations")
    estimate.add_argument("--maps-count", type=nonneg, help="number of random endofunctions")
    estimate.add_argument("--trials", type=positive, required=True)
    estimate.add_argument("--seed", type=int, required=True)
    estimate.add_argument("--threads", type=positive, default=1,
                          help="worker processes; results do not depend on this")
    estimate.set_defaults(func=_cmd_estimate)

    exact = sub.add_parser(
        "exact", help="exact synchronization probability, counted up to conjugacy",
        parents=[common]
    )
    exact.add_argument("--n", type=positive, required=True)
    exact.add_argument("--perms", type=nonneg, required=True)
    exact.add_argument("--maps-count", type=nonneg, required=True)
    exact.set_defaults(func=_cmd_exact)

    sweep_p = sub.add_parser("sweep", help="batch of estimates over several n", parents=[common])
    sweep_p.add_argument("--n", type=_int_list, required=True,
                         help="comma-separated degrees, e.g. 10,20,40 (empty allowed)")
    sweep_p.add_argument("--perms", type=nonneg, required=True)
    sweep_p.add_argument("--maps-count", type=nonneg, required=True)
    sweep_p.add_argument("--trials", type=positive, required=True)
    sweep_p.add_argument("--seed", type=int, required=True)
    sweep_p.add_argument("--threads", type=positive, default=1)
    sweep_p.set_defaults(func=_cmd_sweep)

    explore = sub.add_parser("explore", help="scan all graphs on n vertices", parents=[common])
    explore.add_argument("--n", type=positive, required=True)
    explore.add_argument("--canonical", action="store_true",
                         help="one representative per isomorphism class "
                              "(recommended for n >= 5)")
    explore.add_argument("--cap", type=positive, default=10**6)
    explore.set_defaults(func=_cmd_explore)

    dixon = sub.add_parser(
        "dixon", help="exact transitive-pair table for random permutations", parents=[common]
    )
    dixon.add_argument("--max-n", type=positive, required=True)
    dixon.set_defaults(func=_cmd_dixon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sink = None
    try:
        if getattr(args, "out", None):
            sink = open(args.out, "w", encoding="utf-8")
            args.sink = sink
        else:
            args.sink = sys.stdout
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}; try smaller inputs or a lower --cap",
              file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if sink is not None:
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
