"""Command-line entry point wiring all modules together.

Subcommands: verify, tour, tour-enum, tour-family, embed, faces, iso,
classify, search, bounds, pipeline.  Output is deterministic JSON (sorted
keys, no timestamps); repeated runs on the same inputs are byte-identical.
Exit codes: 0 = pass, 1 = mathematical failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__, bounds, embedding, iso, knight, pfarray, validation

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _emit(data: dict, text: str | None, as_text: bool) -> None:
    if as_text and text is not None:
        print(text)
    else:
        print(json.dumps(data, sort_keys=True, indent=2))


def _read(path: str) -> str:
    try:
        content = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    if not content.strip():
        raise UsageError(f"{path} is empty")
    return content


def _load_array(path: str) -> pfarray.PartiallyFilledArray:
    try:
        return pfarray.parse_array(_read(path))
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
    if stripped.startswith("{") and "\"filled\"" in stripped:
        return pfarray.parse_skeleton_json(content)
    try:
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
    if len(vec) != length or any(d not in (1, -1) for d in vec):
        raise UsageError(f"--{what} must be ±1 of length {length}")
    return vec


def _load_solution(path: str, m: int, n: int) -> knight.OrientationPair:
    try:
        data = json.loads(_read(path))
        rows = tuple(int(x) for x in data["R"])
        cols = tuple(int(x) for x in data["C"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad solution file: {exc}") from None
    if len(rows) != m or len(cols) != n:
        raise UsageError(f"{path}: solution shape does not match the array")
    return knight.OrientationPair(rows, cols)


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
    result = knight.tour(skel, rows, cols, start)
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
        sols = knight.enumerate_solutions(
            skel, trivial_rows=args.trivial_R, budget=args.budget
        )
    except knight.BudgetExceededError as exc:
        raise UsageError(str(exc)) from None
    data = {
        "m": skel.m,
        "n": skel.n,
        "trivial_rows": args.trivial_R,
        "count": len(sols),
        "solutions": [p.to_json_dict() for p in sols],
    }
    _emit(data, f"count={len(sols)}", args.text)
    return PASS if sols else FAIL


def cmd_tour_family(args: argparse.Namespace) -> int:
    alias = {"3diag": "ThreeDiag", "threediag": "ThreeDiag",
             "power2": "PowerTwo", "powertwo": "PowerTwo",
             "k7": "KSeven", "kseven": "KSeven",
             "prime": "PrimeN", "primen": "PrimeN",
             "pairs": "PairsGeneral", "pairsgeneral": "PairsGeneral"}
    name = alias.get(args.family.lower())
    if name is None:
        raise UsageError(f"unknown family {args.family!r}")
    params: dict = {"n": args.n}
    if name in ("PowerTwo", "PrimeN", "PairsGeneral"):
        if args.k is None:
            raise UsageError(f"family {name} needs --k")
        params["k"] = args.k
    if name == "PairsGeneral":
        if args.i is None or args.s1 is None:
            raise UsageError("the pairs family needs --i and --s1")
        params["i"] = args.i
        params["s1"] = args.s1
    if args.r is not None:
        if name not in ("PowerTwo", "KSeven", "PrimeN"):
            raise UsageError(f"family {name} does not take --r")
        params["r"] = args.r
    try:
        family = knight.build_family(name, **params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    census = family.census()
    try:
        str(census)
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        raise UsageError(f"census of family {name} for n={args.n} is too large "
                         "to print") from None
    pairs = list(itertools.islice(iter(family), args.limit)) if args.limit else list(family)
    data = {
        "spec": family.spec.to_json_dict(),
        "census": census,
        "emitted": len(pairs),
        "solutions": [p.to_json_dict() for p in pairs],
    }
    _emit(data, f"census={census} emitted={len(pairs)}", args.text)
    return PASS


def _build_embedding_from_files(array_path: str, solution_path: str):
    array = _load_array(array_path)
    pair = _load_solution(solution_path, array.m, array.n)
    _validate(array, array_path)
    try:
        return array, embedding.build_embedding(array, pair.rows, pair.cols)
    except ValueError as exc:
        raise MathFailure(str(exc)) from None


class MathFailure(Exception):
    pass


def cmd_embed(args: argparse.Namespace) -> int:
    _, emb = _build_embedding_from_files(args.array, args.solution)
    report = embedding.biembedding_report(emb)
    if args.save:
        Path(args.save).write_text(
            json.dumps(emb.to_json_dict(), sort_keys=True) + "\n"
        )
    data = report.to_json_dict()
    _emit(data, f"passed={report.passed} faces={report.face_count} "
                f"genus={report.genus_euler}", args.text)
    return PASS if report.passed else FAIL


def cmd_faces(args: argparse.Namespace) -> int:
    if args.max_faces < 0:
        raise UsageError("--max-faces must be >= 0")
    _, emb = _build_embedding_from_files(args.array, args.solution)
    faces = embedding.trace_faces(emb)
    limit = None if args.all else args.max_faces
    listed = faces.faces if limit is None else faces.faces[:limit]
    data = {
        "count": faces.count,
        "row_faces": faces.count_color(embedding.ROW),
        "column_faces": faces.count_color(embedding.COLUMN),
        "all_simple": faces.all_simple,
        "listed": len(listed),
        "faces": [
            {"vertices": list(f.vertices), "color": f.color, "simple": f.simple}
            for f in listed
        ],
    }
    _emit(data, f"count={faces.count} listed={len(listed)}", args.text)
    return PASS


def _load_embedding(path: str) -> embedding.CombinatorialEmbedding:
    content = _read(path)
    try:
        return embedding.CombinatorialEmbedding.from_json(content)
    except (json.JSONDecodeError, AttributeError, KeyError, OverflowError,
            TypeError, ValueError) as exc:
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


def cmd_classify(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.directory).glob("*.json"))
    if not paths:
        raise UsageError(f"no *.json embeddings under {args.directory}")
    embs = [_load_embedding(str(p)) for p in paths]
    try:
        result = iso.classify(embs)
    except ValueError as exc:
        raise UsageError(f"{args.directory}: {exc}") from None
    data = result.to_json_dict()
    data["files"] = [p.name for p in paths]
    _emit(data, f"classes={result.class_count} of {result.total}", args.text)
    return PASS


def cmd_search(args: argparse.Namespace) -> int:
    try:
        found = validation.search_heffter(
            args.m, args.n, args.h, args.k, args.t,
            limit=args.limit, skeleton=args.skeleton,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for idx, arr in enumerate(found):
            (outdir / f"array_{idx:03d}.arr").write_text(arr.to_text())
    data = {
        "count": len(found),
        "arrays": [a.to_json_dict() for a in found],
    }
    _emit(data, f"count={len(found)}", args.text)
    return PASS if found else FAIL


def cmd_bounds(args: argparse.Namespace) -> int:
    query = bounds.BoundQuery(
        theorem=args.theorem, n=args.n, k=args.k,
        subgroup_t=args.t, s1=args.s1,
    )
    try:
        result = bounds.evaluate_bound(query, force=args.force)
    except bounds.HypothesisError as exc:
        _emit({"error": str(exc)}, f"error: {exc}", args.text)
        return FAIL
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit(result.to_json_dict(),
          f"exact={result.exact} approx={result.approx}", args.text)
    return PASS


@dataclass
class RunManifest:
    command: str
    arguments: list[str]
    input_hashes: dict[str, str]
    version: str
    deterministic: str
    outputs: list[str]

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "arguments": self.arguments,
            "input_hashes": self.input_hashes,
            "version": self.version,
            "deterministic": self.deterministic,
            "outputs": self.outputs,
        }


def cmd_pipeline(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    input_hashes: dict[str, str] = {}

    if args.array:
        array = _load_array(args.array)
        input_hashes[args.array] = hashlib.sha256(
            Path(args.array).read_bytes()
        ).hexdigest()
    elif args.search:
        fields = args.search.split(",")
        if len(fields) not in (5, 6):
            raise UsageError("--search wants m,n,h,k,t[,cyclic]")
        try:
            m_, n_, h_, k_, t_ = (int(x) for x in fields[:5])
            skel = fields[5] if len(fields) == 6 else None
            found = validation.search_heffter(m_, n_, h_, k_, t_, limit=1,
                                              skeleton=skel)
        except ValueError as exc:
            raise UsageError(f"--search: {exc}") from None
        if not found:
            raise MathFailure("search found no array")
        array = found[0]
    else:
        raise UsageError("pipeline needs --array or --search")

    report = _validate(array, args.array or "--search")
    if not report.passed:
        raise MathFailure("input array fails validation")
    array_path = outdir / "array.arr"
    array_path.write_text(array.to_text())

    try:
        sols = knight.enumerate_solutions(
            array.skeleton(), trivial_rows=args.trivial_R, budget=args.budget
        )
    except knight.BudgetExceededError as exc:
        raise UsageError(str(exc)) from None
    (outdir / "solutions.json").write_text(
        json.dumps([p.to_json_dict() for p in sols], sort_keys=True) + "\n"
    )
    if not sols:
        raise MathFailure("no tour solutions within budget")

    emb_dir = outdir / "embeddings"
    emb_dir.mkdir(exist_ok=True)
    embs = []
    for idx, pair in enumerate(sols):
        emb = embedding.build_embedding(array, pair.rows, pair.cols)
        embs.append(emb)
        (emb_dir / f"embedding_{idx:04d}.json").write_text(
            json.dumps(emb.to_json_dict(), sort_keys=True) + "\n"
        )
    keys = {e.rho0_key() for e in embs}
    if len(keys) != len(embs):
        raise MathFailure("distinct solutions produced equal rotation maps")

    classification = iso.classify(embs)
    (outdir / "classification.json").write_text(
        json.dumps(classification.to_json_dict(), sort_keys=True) + "\n"
    )

    reports = [embedding.biembedding_report(e) for e in embs]
    all_pass = all(r.passed for r in reports)
    outputs = sorted(
        str(p.relative_to(outdir)) for p in outdir.rglob("*") if p.is_file()
    )
    manifest = RunManifest(
        command="pipeline",
        arguments=list(args.raw_argv),
        input_hashes=input_hashes,
        version=__version__,
        deterministic="no randomness anywhere; rerunning reproduces bytes",
        outputs=outputs + ["summary.json"],
    )
    summary = {
        "array": array.to_json_dict(),
        "validation": report.to_json_dict(),
        "solutions": len(sols),
        "embeddings": len(embs),
        "distinct_rotations": len(keys),
        "classes": classification.to_json_dict(),
        "reports_all_passed": all_pass,
        "manifest": manifest.to_json_dict(),
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    _emit(summary, f"solutions={len(sols)} classes={classification.class_count} "
                   f"all_passed={all_pass}", args.text)
    return PASS if all_pass else FAIL


# -- parser ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heffter",
        description="Validate arrays, solve crazy knight's tours, build and "
                    "classify biembeddings, and evaluate counting bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--text", action="store_true",
                       help="brief text output instead of JSON")
        return p

    p = add("verify", "check the Heffter conditions of an array file")
    p.add_argument("array")
    p.set_defaults(fn=cmd_verify)

    p = add("tour", "trace one knight's tour orbit")
    p.add_argument("input", help="array file or skeleton JSON")
    p.add_argument("--R", help="row directions, e.g. 1,-1,1")
    p.add_argument("--C", help="column directions")
    p.add_argument("--start", help="start cell i,j (default: first filled)")
    p.add_argument("--cells", action="store_true", help="include the visited cells")
    p.set_defaults(fn=cmd_tour)

    p = add("tour-enum", "enumerate all covering orientation pairs")
    p.add_argument("input", help="array file or skeleton JSON")
    p.add_argument("--trivial-R", action="store_true", dest="trivial_R",
                   help="fix the row vector to all +1")
    p.add_argument("--budget", type=int, default=1 << 20,
                   help="maximum number of pairs to scan")
    p.set_defaults(fn=cmd_tour_enum)

    p = add("tour-family", "generate certified solutions from a family")
    p.add_argument("--family", required=True,
                   help="ThreeDiag | PowerTwo | KSeven | PrimeN | PairsGeneral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--s1", type=int)
    p.add_argument("--r", type=int, help="override the subset size")
    p.add_argument("--limit", type=int, help="emit at most this many pairs")
    p.set_defaults(fn=cmd_tour_family)

    p = add("embed", "build an embedding and report the biembedding checks")
    p.add_argument("--array", required=True)
    p.add_argument("--solution", required=True, help='JSON {"R": [...], "C": [...]}')
    p.add_argument("--save", help="write the embedding JSON here")
    p.set_defaults(fn=cmd_embed)

    p = add("faces", "trace and dump face boundaries")
    p.add_argument("--array", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--max-faces", type=int, default=64, dest="max_faces")
    p.add_argument("--all", action="store_true", help="dump every face")
    p.set_defaults(fn=cmd_faces)

    p = add("iso", "decide isomorphism of two saved embeddings")
    p.add_argument("emb1")
    p.add_argument("emb2")
    p.set_defaults(fn=cmd_iso)

    p = add("classify", "partition a directory of embeddings into classes")
    p.add_argument("directory")
    p.set_defaults(fn=cmd_classify)

    p = add("search", "backtracking search for small arrays")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--skeleton", help='"cyclic" for consecutive diagonals')
    p.add_argument("--out", help="write found arrays into this directory")
    p.set_defaults(fn=cmd_search)

    p = add("bounds", "evaluate a counting bound exactly")
    p.add_argument("--theorem", required=True, help=", ".join(sorted(bounds.THEOREMS)))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=1, help="subgroup order")
    p.add_argument("--s1", type=int, help="strip step for the pairs pattern")
    p.add_argument("--force", action="store_true",
                   help="evaluate even when hypotheses fail")
    p.set_defaults(fn=cmd_bounds)

    p = add("pipeline", "array -> solutions -> embeddings -> classification")
    p.add_argument("--array", help="input array file")
    p.add_argument("--search", help="m,n,h,k,t[,cyclic] to search an array first")
    p.add_argument("--trivial-R", action="store_true", dest="trivial_R")
    p.add_argument("--budget", type=int, default=1 << 20)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_pipeline)

    return parser


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return PASS if exc.code in (0, None) else USAGE
    args.raw_argv = argv
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MathFailure as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
