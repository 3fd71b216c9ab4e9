"""Command-line entry point wiring all modules together.

Subcommands: verify, tour, tour-enum, tour-family, embed, faces, iso,
classify, search, bounds, pipeline.  Output is deterministic JSON (sorted
keys, no timestamps); repeated runs on the same inputs are byte-identical.
Exit codes: 0 = pass, 1 = mathematical failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import heapq
import io
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import __version__, embedding, iso, kernels, knight, pfarray, pipeline, validation

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: _NONFINITE.get(float.__repr__(x)) or float.__repr__(x),
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(obj: object, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    CPython's ``json`` uses its C encoder only without ``indent``; this one
    writes the leaves with the functions ``json`` uses and joins each
    container once.  The items of a list are encoded together by
    :func:`_cells`.  Dict keys must be str, and a leaf must be exactly one of
    the types in ``_LEAF``; anything else raises ``TypeError``.  ``pad`` is
    the newline and indentation of the current level.
    """
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if type(obj) is dict:
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if type(obj) is list or type(obj) is tuple:
        return "[" + inner + ("," + inner).join(_cells(obj, inner)) + pad + "]" if obj else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _cells(values: Sequence, pad: str) -> Iterable[str]:
    """The texts of ``values``, each as ``_dumps(value, pad)`` writes it.

    The values are taken as one column where their shape allows it, so the
    work per value runs in C: leaves of one type through one function (ints
    through a table of their reprs when the range is no longer than the
    column); non-empty dicts sharing one key set column by column, each
    record assembled from its key prefixes; non-empty lists as the cells of
    all their items, regrouped.  Anything else goes through ``_dumps`` one
    value at a time.
    """
    types = set(map(type, values))
    kind = next(iter(types)) if len(types) == 1 else None
    if kind is int:
        lo, hi = min(min(values), 0), max(max(values), -1)
        if hi - lo < len(values):
            # negative ints index from the end: table[x] = repr(x) for lo <= x <= hi
            table = list(map(int.__repr__, itertools.chain(range(hi + 1), range(lo, 0))))
            return map(table.__getitem__, values)
    if kind in _LEAF:
        return map(_LEAF[kind], values)
    inner = pad + "  "
    if kind is dict and values[0]:
        keys = sorted(values[0])
        try:
            columns = [[d[key] for d in values] for key in keys]
        except KeyError:
            columns = []
        # each record has every key, and by the count no other
        if columns and sum(map(len, values)) == len(keys) * len(values):
            parts, sep = [], "{"
            for key, column in zip(keys, columns):
                parts += [itertools.repeat(sep + inner + encode_basestring_ascii(key) + ": "),
                          _cells(column, inner)]
                sep = ","
            parts.append(itertools.repeat(pad + "}"))
            return map("".join, zip(*parts))
    if types <= {list, tuple} and all(values):
        items = iter(_cells(list(itertools.chain.from_iterable(values)), inner))
        # each islice takes the next len(value) cells, in order, as map runs
        joined = map(("," + inner).join, map(itertools.islice, itertools.repeat(items),
                                                 map(len, values)))
        return map("".join, zip(itertools.repeat("[" + inner), joined,
                                itertools.repeat(pad + "]")))
    return [_dumps(x, pad) for x in values]


def _print(chunks: Iterable[str]) -> None:
    """Print ``chunks`` as one text and a newline, writing each as it comes;
    when the reader has closed stdout, drop the rest quietly.

    The rest of the output then goes to the null device, so the flush at
    interpreter exit cannot raise either, and the command ends with its own
    exit code.
    """
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(data: dict, text: str | None, as_text: bool) -> None:
    _print([text if as_text and text is not None else _dumps(data)])


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _decode(path: str, raw: bytes) -> str:
    """``raw``, the bytes of ``path``, decoded as ``Path.read_text`` decodes a
    file: in the locale's encoding, with universal newlines."""
    try:
        content = io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    if not content.strip():
        raise UsageError(f"{path} is empty")
    return content


def _read(path: str) -> str:
    return _decode(path, _read_bytes(path))


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create directory {path}: {exc}") from None
    return path


def _load_array(path: str, raw: bytes | None = None) -> pfarray.PartiallyFilledArray:
    """The array in the file ``path``; ``raw`` is its bytes when already read."""
    try:
        return pfarray.parse_array(_decode(path, _read_bytes(path) if raw is None else raw))
    except pfarray.ArrayFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _validate(array: pfarray.PartiallyFilledArray, source: str) -> validation.ValidationReport:
    """validate_heffter, with a v inconsistent with the weights as a usage error."""
    try:
        return validation.validate_heffter(array)
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from None


def _load_skeleton(path: str) -> pfarray.Skeleton:
    """Array files and bare skeleton JSONs are both accepted for tour commands."""
    content = _read(path)
    stripped = content.lstrip()
    try:
        if stripped.startswith("{") and "\"filled\"" in stripped:
            return pfarray.parse_skeleton_json(content)
        return pfarray.parse_array(content).skeleton()
    except pfarray.ArrayFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_direction(text: str | None, length: int, what: str) -> tuple[int, ...]:
    if text is None:
        return (1,) * length
    try:
        vec = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise UsageError(f"--{what} must be comma-separated ±1") from None
    try:
        validation._check_directions(vec, length, f"--{what}")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return vec


def _load_solution(path: str, m: int, n: int) -> knight.OrientationPair:
    try:
        pair = knight.OrientationPair.from_json_dict(json.loads(_read(path)))
        if len(pair.rows) != m or len(pair.cols) != n:
            raise UsageError(f"{path}: solution shape does not match the array")
        validation._check_directions(pair.rows, m, "row")
        validation._check_directions(pair.cols, n, "column")
        return pair
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad solution file: {exc}") from None


# -- subcommands ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    array = _load_array(args.array)
    report = _validate(array, args.array)
    gs = validation.is_globally_simple(array) if report.passed else None
    data = report.to_json_dict()
    data["globally_simple"] = gs
    _emit(data, f"passed={report.passed} globally_simple={gs}", args.text)
    return PASS if report.passed else FAIL


def cmd_tour(args: argparse.Namespace) -> int:
    skel = _load_skeleton(args.input)
    rows = _parse_direction(args.R, skel.m, "R")
    cols = _parse_direction(args.C, skel.n, "C")
    start = None
    if args.start:
        try:
            i, j = (int(x) for x in args.start.split(","))
            start = (i, j)
        except ValueError:
            raise UsageError("--start must be i,j") from None
    try:
        result = knight.tour(skel, rows, cols, start)
    except ValueError as exc:  # an unfilled --start cell, an empty skeleton
        raise UsageError(str(exc)) from None
    data = {
        "start": list(result.start),
        "covers_all": result.covers_all,
        "period": result.period,
        "filled": len(skel.filled),
    }
    if args.cells:
        data["cells"] = [list(c) for c in result.cells]
    _emit(data, f"covers_all={result.covers_all} period={result.period}", args.text)
    return PASS if result.covers_all else FAIL


def cmd_tour_enum(args: argparse.Namespace) -> int:
    skel = _load_skeleton(args.input)
    try:
        pairs = kernels.scan_orientations(skel, args.trivial_R, args.budget)
    except ValueError as exc:  # an empty skeleton, a budget exceeded
        raise UsageError(str(exc)) from None
    if args.text:
        _print([f"count={len(pairs)}"])
    else:
        _print_listing({"m": skel.m, "n": skel.n, "trivial_rows": args.trivial_R,
                        "count": len(pairs)}, "solutions",
                       _solution_listing(skel.m, skel.n, pairs))
    return PASS if pairs else FAIL


def _solution_listing(m: int, n: int, pairs: Sequence[tuple[int, int]],
                      chunk: int = 4096) -> Iterator[str]:
    """``_dumps`` at pad ``"\\n  "`` of the ``OrientationPair.to_json_dict``
    records of ``pairs``, (R-mask, C-mask) pairs of an m x n skeleton as
    :func:`kernels.scan_orientations` returns them, ``chunk`` records at a time.

    Each record is five texts joined: the ``C`` items of its mask's top half
    and of its bottom half, the ``E`` positions of each half, and its ``R``.
    They come from tables made once per listing, over the half vectors of
    :func:`kernels._halves` and over the distinct row masks.  A top half with
    no -1 takes its bottom half's ``E`` from a second table that opens the
    list, or writes ``[]``.
    """
    low = n // 2
    cut, item, close = (1 << low) - 1, ",\n        ", "\n      ]"

    def texts(vector: tuple[int, ...], first: int) -> tuple[list[str], list[str]]:
        """The entries of ``vector``, and the positions of its -1s counted
        from ``first``, as texts."""
        return ([repr(d) for d in vector],
                [repr(j) for j, d in enumerate(vector, first) if d < 0])

    top_vectors, bottom_vectors = kernels._halves(n)
    bottoms, minus_rest, minus_only = [], [], []
    for vector in bottom_vectors:
        entries, minus = texts(vector, n - low + 1)
        bottoms.append("".join(item + x for x in entries) + close + ',\n      "E": ')
        minus_rest.append("".join(item + x for x in minus) + close)
        minus_only.append("[\n        " + item.join(minus) + close if minus else "[]")
    tops = []
    for vector in top_vectors:
        entries, minus = texts(vector, 1)
        tops.append((',\n    {\n      "C": [\n        ' + item.join(entries),
                     "[\n        " + item.join(minus) if minus else "",
                     minus_rest if minus else minus_only))
    # one R text per distinct row mask, as m is unbounded when the rows are trivial
    rows = {r: ',\n      "R": ' + _dumps(kernels._vector(r, m), "\n      ") + "\n    }"
            for r in {r for r, _ in pairs}}
    opening = "["
    for start in range(0, len(pairs), chunk):
        tokens = []
        for r, c in pairs[start:start + chunk]:
            head, minus, minus_tail = tops[c >> low]
            y = c & cut
            tokens += (head, bottoms[y], minus, minus_tail[y], rows[r])
        tokens[0] = opening + tokens[0][1:]
        yield "".join(tokens)
        opening = ","
    yield "[]" if opening == "[" else "\n  ]"


def cmd_tour_family(args: argparse.Namespace) -> int:
    alias = {"3diag": "ThreeDiag", "threediag": "ThreeDiag",
             "power2": "PowerTwo", "powertwo": "PowerTwo",
             "k7": "KSeven", "kseven": "KSeven",
             "prime": "PrimeN", "primen": "PrimeN",
             "pairs": "PairsGeneral", "pairsgeneral": "PairsGeneral"}
    name = alias.get(args.family.lower())
    if name is None:
        raise UsageError(f"unknown family {args.family!r}")
    # the options each family takes beside --n; each but --r is required
    takes = {"ThreeDiag": (), "PowerTwo": ("k", "r"), "KSeven": ("r",),
             "PrimeN": ("k", "r"), "PairsGeneral": ("k", "i", "s1")}[name]
    params: dict = {"n": args.n}
    for option in ("k", "i", "s1", "r"):
        value = getattr(args, option)
        if value is not None and option not in takes:
            raise UsageError(f"family {name} does not take --{option}")
        if value is None and option in takes and option != "r":
            raise UsageError(f"family {name} needs --{option}")
        if value is not None:
            params[option] = value
    try:
        family = knight.build_family(name, **params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    from . import bounds  # census() imports it too

    try:
        census = family.census()
    except bounds.TooLargeError:
        raise UsageError(f"census of family {name} for n={args.n} "
                         "is too large to print") from None
    emitted = census if args.limit is None else min(census, args.limit)
    pairs = itertools.islice(family, emitted)
    if args.text:
        for _ in pairs:  # each pair is still generated and certified
            pass
        _print([f"census={census} emitted={emitted}"])
        return PASS
    _print_listing({"spec": family.spec.to_json_dict(), "census": census,
                    "emitted": emitted}, "solutions",
                   _family_listing(pairs))
    return PASS


def _family_listing(pairs: Iterable[knight.OrientationPair],
                    chunk: int = 4096) -> Iterator[str]:
    """``_dumps`` at pad ``"\\n  "`` of the ``OrientationPair.to_json_dict``
    records of ``pairs``, ``chunk`` records at a time.

    Every entry of R and C is +1 or -1, so a vector's text is its entries'
    texts from a two-item table, joined.  Each distinct vector of a chunk is
    written once, and each distinct C's ``E``: a family's vectors recur,
    each as some pair's C and another's R.
    """
    items, close = {1: "\n        1", -1: "\n        -1"}, "\n      ]"
    head, tail = ',\n    {\n      "C": ', "\n    }"
    pairs, opening = iter(pairs), "["
    while block := list(itertools.islice(pairs, chunk)):
        by_cols = {pair.cols: pair for pair in block}
        vectors = {vector: "[" + ",".join(map(items.__getitem__, vector)) + close
                   for vector in dict.fromkeys(itertools.chain(by_cols, (r for r, _ in block)))}
        minus = {}
        for cols, pair in by_cols.items():
            positions = ",\n        ".join(map(repr, pair.minus_positions))
            minus[cols] = (',\n      "E": ' + ("[\n        " + positions + close
                                                  if positions else "[]") + ',\n      "R": ')
        tokens = []
        for rows, cols in block:
            tokens += (head, vectors[cols], minus[cols], vectors[rows], tail)
        tokens[0] = opening + tokens[0][1:]
        text = "".join(tokens)
        # only the text outlives its chunk, so the next one is built alone
        del block, by_cols, vectors, minus, tokens
        yield text
        opening = ","
    yield "[]" if opening == "[" else "\n  ]"


def _print_listing(data: dict, key: str, listing: Iterable[str]) -> None:
    """Print ``_dumps(data)`` with the text pieces of ``listing``, a list at
    pad ``"\\n  "``, as its ``key``, writing each piece as it comes."""
    head, tail = _dumps({**data, key: []}).split(f'"{key}": []', 1)
    _print(itertools.chain([f'{head}"{key}": '], listing, [tail]))


def _face_listing(emb: embedding.CombinatorialEmbedding, listed: int) -> str:
    """``_dumps`` at pad ``"\\n  "`` of the records ``{"color", "simple",
    "vertices"}`` of the first ``listed`` faces of ``emb``, in the order of
    :func:`embedding._face_ranges`, written from its translate ranges.

    Each vertex text comes from a table of the texts of 0 .. v-1 written
    twice (with its comma, and without it for a face's first vertex), so a
    range of a simple walk lifts as one ``zip`` of slices of it, each record
    joined once between its cycle's head and tail.  A range of a non-simple
    walk is lifted to ints first by :func:`embedding._lift`, for the least
    rotation.  The records go into a table indexed by key, which lists them
    in face order.  Short of every face, the key of the ``listed``-th face
    comes first, from a merge of the ranges' key progressions, and each
    range is lifted only up to it.
    """
    if not listed:
        return "[]"
    v, C = emb.v, len(emb.connection)
    ranges = list(embedding._face_ranges(emb))
    last = v * C - 1
    if listed < sum(hi - lo for _, lo, hi, *_ in ranges):
        keys = heapq.merge(*(range(key, key + (hi - lo) * C, C) for key, lo, hi, *_ in ranges))
        last = next(itertools.islice(keys, listed - 1, None))
        ranges = [(key, lo, min(hi, lo + (last - key) // C + 1), *rest)
                  for key, lo, hi, *rest in ranges if key <= last]
    texts = [",\n        " + repr(x) for x in range(v)] * 2
    firsts = [text[1:] for text in texts]
    residues = list(range(v)) * 2
    tail = "\n      ]\n    }"
    by_key: list[str | None] = [None] * (last + 1)
    for key, lo, hi, starts, color, simple in ranges:
        if len(starts) == 1:
            first, *rest = starts[0]
            columns = [firsts[first + lo:first + hi], *[texts[y + lo:y + hi] for y in rest]]
        else:
            first, *rest = zip(*embedding._lift(starts, lo, hi, residues))
            columns = [map(firsts.__getitem__, first), *[map(texts.__getitem__, c) for c in rest]]
        head = (',\n    {\n      "color": ' + _dumps(color) + ',\n      "simple": '
                + _dumps(simple) + ',\n      "vertices": [')
        by_key[key:key + (hi - lo) * C:C] = map(
            "".join, zip(itertools.repeat(head), *columns, itertools.repeat(tail)))
    # the table ends at the listed-th face's key
    records = list(filter(None, by_key))
    records[0] = "[" + records[0][1:]
    records.append("\n  ]")
    return "".join(records)


def _build_embedding_from_files(array_path: str, solution_path: str):
    array = _load_array(array_path)
    pair = _load_solution(solution_path, array.m, array.n)
    try:
        return embedding.build_embedding(array, pair.rows, pair.cols)
    except pfarray.ArrayFormatError as exc:  # v inconsistent with the weights
        raise UsageError(f"{array_path}: {exc}") from None
    except ValueError as exc:
        raise pipeline.MathFailure(str(exc)) from None


def cmd_embed(args: argparse.Namespace) -> int:
    emb = _build_embedding_from_files(args.array, args.solution)
    report = embedding.biembedding_report(emb)
    if args.save:
        _write(Path(args.save), json.dumps(emb.to_json_dict(), sort_keys=True) + "\n")
    data = report.to_json_dict()
    _emit(data, f"passed={report.passed} faces={report.face_count} "
                f"genus={report.genus_euler}", args.text)
    return PASS if report.passed else FAIL


def cmd_faces(args: argparse.Namespace) -> int:
    if args.max_faces < 0:
        raise UsageError("--max-faces must be >= 0")
    emb = _build_embedding_from_files(args.array, args.solution)
    # the counts come from the difference cycles, without a pass over the faces
    report = embedding.biembedding_report(emb)
    count = report.face_count
    listed = count if args.all else min(args.max_faces, count)
    if args.text:
        _print([f"count={count} listed={listed}"])
        return PASS
    _print_listing({"count": count, "row_faces": report.row_faces,
                    "column_faces": report.column_faces, "all_simple": report.simple,
                    "listed": listed}, "faces", [_face_listing(emb, listed)])
    return PASS


def _load_embedding(path: str) -> embedding.CombinatorialEmbedding:
    text = _read(path)
    try:
        return embedding.CombinatorialEmbedding.from_json(text)
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        raise UsageError(
            f"{path}: not an embedding file: {type(exc).__name__}: {exc}"
        ) from None


def cmd_iso(args: argparse.Namespace) -> int:
    e1 = _load_embedding(args.emb1)
    e2 = _load_embedding(args.emb2)
    m = iso.find_isomorphism(e1, e2)
    data = {"isomorphic": m is not None}
    if m is not None:
        data["map"] = m.to_json_dict()
    _emit(data, f"isomorphic={m is not None}", args.text)
    return PASS if m is not None else FAIL


def _load_run(run: Path) -> pipeline.PipelineResult:
    """The pipeline core run again on the ``array.arr`` and ``solutions.json``
    of the pipeline run directory ``run``."""
    array_path, solutions_path = str(run / "array.arr"), str(run / "solutions.json")
    array = _load_array(array_path)
    if not _validate(array, array_path).passed or array.fold != 1:
        raise UsageError(f"{array_path}: not a Heffter array of fold 1")
    try:
        solutions = json.loads(_read(solutions_path))
        return pipeline.run_pipeline(array, map(knight.OrientationPair.from_json_dict, solutions))
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise UsageError(f"{solutions_path}: not tour solutions of {array_path}: "
                         f"{type(exc).__name__}: {exc}") from None


def cmd_classify(args: argparse.Namespace) -> int:
    source = Path(args.path)
    # os.path, unlike Path, answers False for any path it cannot stat
    if os.path.exists(source / "array.arr") or os.path.exists(source / "solutions.json"):
        # a pipeline run: member i is solution i
        result = _load_run(source).classification
        files = [f"solutions.json:{i}" for i in range(result.total)]
    else:
        if not os.path.isdir(source):
            raise UsageError(f"{args.path} is not a directory")
        paths = sorted(source.glob("*.json"))
        if not paths:
            raise UsageError(f"no *.json embeddings under {args.path}")
        files = [p.name for p in paths]
        try:
            result = iso.classify([_load_embedding(str(p)) for p in paths])
        except ValueError as exc:
            raise UsageError(f"{args.path}: {exc}") from None
    data = result.to_json_dict()
    data["files"] = files
    _emit(data, f"classes={result.class_count} of {result.total}", args.text)
    return PASS


def cmd_search(args: argparse.Namespace) -> int:
    try:
        found = validation.search_heffter(
            args.m, args.n, args.h, args.k, args.t,
            limit=args.limit, skeleton=args.skeleton, budget=args.budget,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        outdir = _make_dir(Path(args.out))
        for idx, arr in enumerate(found):
            _write(outdir / f"array_{idx:03d}.arr", arr.to_text())
    data = {
        "count": len(found),
        "arrays": [a.to_json_dict() for a in found],
    }
    _emit(data, f"count={len(found)}", args.text)
    return PASS if found else FAIL


def cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds

    for name, value in (("n", args.n), ("k", args.k), ("subgroup order t", args.t)):
        if value < 1:
            raise UsageError(f"{name}={value} must be >= 1")
    query = bounds.BoundQuery(
        theorem=args.theorem, n=args.n, k=args.k,
        subgroup_t=args.t, s1=args.s1,
    )
    try:
        result = bounds.evaluate_bound(query, force=args.force)
    except bounds.HypothesisError as exc:
        _emit({"error": str(exc)}, f"error: {exc}", args.text)
        return FAIL
    except bounds.TooLargeError:
        raise UsageError(f"exact value of {args.theorem} for n={args.n} "
                         "is too large to print") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit(result.to_json_dict(),
          f"exact={result.exact} approx={result.approx}", args.text)
    return PASS


def cmd_pipeline(args: argparse.Namespace) -> int:
    input_hashes: dict[str, str] = {}

    if args.array is not None:
        import hashlib  # only pipeline hashes its input

        # the hash is of the bytes parsed: a pipe can be read only once
        raw = _read_bytes(args.array)
        array = _load_array(args.array, raw)
        input_hashes[args.array] = hashlib.sha256(raw).hexdigest()
    else:
        fields = args.search.split(",")
        if len(fields) not in (5, 6):
            raise UsageError("--search wants m,n,h,k,t[,cyclic]")
        try:
            m_, n_, h_, k_, t_ = (int(x) for x in fields[:5])
            skel = fields[5] if len(fields) == 6 else None
            found = validation.search_heffter(m_, n_, h_, k_, t_, limit=1,
                                              skeleton=skel, budget=args.budget)
        except ValueError as exc:
            raise UsageError(f"--search: {exc}") from None
        if not found:
            raise pipeline.MathFailure("search found no array")
        array = found[0]

    report = _validate(array, args.array or "--search")
    if not report.passed:
        raise pipeline.MathFailure("input array fails validation")
    if array.fold != 1:
        raise pipeline.MathFailure("fold > 1 arrays are not embedded")
    # before the run directory, so that a refusal leaves nothing behind
    try:
        sols = knight.enumerate_solutions(
            array.skeleton(), trivial_rows=args.trivial_R, budget=args.budget
        )
    except ValueError as exc:  # an empty skeleton, a budget exceeded
        raise UsageError(str(exc)) from None
    outdir = _make_dir(Path(args.out))
    _write(outdir / "array.arr", array.to_text())
    _write(outdir / "solutions.json",
           json.dumps([p.to_json_dict() for p in sols], sort_keys=True) + "\n")
    result = pipeline.run_pipeline(array, sols)
    _write(outdir / "classification.json",
           json.dumps(result.classification.to_json_dict(), sort_keys=True) + "\n")

    all_pass = result.reports_passed
    manifest = {
        "command": "pipeline",
        "arguments": list(args.raw_argv),
        "input_hashes": input_hashes,
        "version": __version__,
        "deterministic": "no randomness anywhere; rerunning reproduces bytes",
        "outputs": ["array.arr", "classification.json", "solutions.json", "summary.json"],
    }
    summary = {
        "array": array.to_json_dict(),
        "validation": report.to_json_dict(),
        "solutions": len(sols),
        "embeddings": len(result.embeddings),
        "distinct_rotations": len(result.embeddings),
        # classification.json holds the classes themselves
        "classes": {"class_count": result.classification.class_count,
                    "total": result.classification.total},
        "reports_all_passed": all_pass,
        "manifest": manifest,
    }
    dumped = _dumps(summary)
    _write(outdir / "summary.json", dumped + "\n")
    line = (f"solutions={len(sols)} classes={result.classification.class_count} "
            f"all_passed={all_pass}")
    _print([line if args.text else dumped])
    return PASS if all_pass else FAIL


# -- parser ----------------------------------------------------------------------------


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("array")


def _tour_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="array file or skeleton JSON")
    p.add_argument("--R", help="row directions, e.g. 1,-1,1")
    p.add_argument("--C", help="column directions")
    p.add_argument("--start", help="start cell i,j (default: first filled)")
    p.add_argument("--cells", action="store_true", help="include the visited cells")


def _tour_enum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="array file or skeleton JSON")
    p.add_argument("--trivial-R", action="store_true", dest="trivial_R",
                   help="fix the row vector to all +1")
    p.add_argument("--budget", type=int, default=1 << 20,
                   help="maximum number of orientation pairs traced; a square "
                        "skeleton of full diagonals traces one pair per "
                        "shift/negation orbit and needs 2^n <= budget")


def _tour_family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   help="ThreeDiag | PowerTwo | KSeven | PrimeN | PairsGeneral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--s1", type=int)
    p.add_argument("--r", type=int, help="override the subset size")
    p.add_argument("--limit", type=int, help="emit at most this many pairs")


def _embed_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--array", required=True)
    p.add_argument("--solution", required=True, help='JSON {"R": [...], "C": [...]}')
    p.add_argument("--save", help="write the embedding JSON here")


def _faces_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--array", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--max-faces", type=int, default=64, dest="max_faces")
    p.add_argument("--all", action="store_true", help="dump every face")


def _iso_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("emb1")
    p.add_argument("emb2")


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="a pipeline run directory, or a directory of "
                                "*.json embedding files")


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--skeleton", help='"cyclic" for consecutive diagonals')
    p.add_argument("--budget", type=int, default=1 << 20,
                   help="maximum number of search tree nodes")
    p.add_argument("--out", help="write found arrays into this directory")


def _bounds_arguments(p: argparse.ArgumentParser) -> None:
    from . import bounds

    p.add_argument("--theorem", required=True, help=", ".join(sorted(bounds.THEOREMS)))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=1, help="subgroup order")
    p.add_argument("--s1", type=int, help="strip step for the pairs pattern")
    p.add_argument("--force", action="store_true",
                   help="evaluate even when hypotheses fail")


def _pipeline_arguments(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--array", help="input array file")
    source.add_argument("--search", help="m,n,h,k,t[,cyclic] to search an array first")
    p.add_argument("--trivial-R", action="store_true", dest="trivial_R")
    p.add_argument("--budget", type=int, default=1 << 20,
                   help="maximum search tree nodes, and orientation pairs "
                        "traced as in tour-enum")
    p.add_argument("--out", required=True, help="output directory")


# name -> (help, argument adder, command), in the order `heffter --help` lists them
COMMANDS = {
    "verify": ("check the Heffter conditions of an array file",
               _verify_arguments, cmd_verify),
    "tour": ("trace one knight's tour orbit", _tour_arguments, cmd_tour),
    "tour-enum": ("enumerate all covering orientation pairs",
                  _tour_enum_arguments, cmd_tour_enum),
    "tour-family": ("generate certified solutions from a family",
                    _tour_family_arguments, cmd_tour_family),
    "embed": ("build an embedding and report the biembedding checks",
              _embed_arguments, cmd_embed),
    "faces": ("trace and dump face boundaries", _faces_arguments, cmd_faces),
    "iso": ("decide isomorphism of two saved embeddings", _iso_arguments, cmd_iso),
    "classify": ("partition saved embeddings into isomorphism classes",
                 _classify_arguments, cmd_classify),
    "search": ("backtracking search for small arrays", _search_arguments, cmd_search),
    "bounds": ("evaluate a counting bound exactly", _bounds_arguments, cmd_bounds),
    "pipeline": ("array -> solutions -> embeddings -> classification",
                 _pipeline_arguments, cmd_pipeline),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, with a subparser for every command of ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="heffter",
        description="Validate arrays, solve crazy knight's tours, build and "
                    "classify biembeddings, and evaluate counting bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _command_arguments(sub.add_parser(name, help=help_), name)
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the command ``name`` alone, with the help, usage and
    error text of its subparser in :func:`build_parser`."""
    parser = argparse.ArgumentParser(prog=f"heffter {name}")
    _command_arguments(parser, name)
    return parser


def _command_arguments(p: argparse.ArgumentParser, name: str) -> None:
    _, add_arguments, fn = COMMANDS[name]
    p.add_argument("--text", action="store_true", help="brief text output instead of JSON")
    add_arguments(p)
    p.set_defaults(fn=fn)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``, parsed by the named command's parser alone.

    Each ``add_argument`` costs a help formatter and a terminal-size query,
    so a call that names its command builds that command's parser only.
    Anything else, and arguments that parser leaves over, go to the full
    parser, which reports them as the top level does.
    """
    if argv and argv[0] in COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


_VALUE_FLAGS = ("--R", "--C", "--start")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join `--C -1,1,...` into `--C=-1,1,...` so argparse accepts a leading minus."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return PASS if exc.code in (0, None) else USAGE
    args.raw_argv = argv
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except pipeline.MathFailure as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
