"""Drawn command lines over every subcommand exit 0, 1 or 2 without a traceback.

Integers are small, negative, or far past any size.  Files are missing,
empty, a directory, malformed JSON or text, arrays with no filled cell, or
valid files with one number replaced or the text cut short.  ``classify``
reads a directory of saved embeddings or a pipeline run directory, either of
which may hold such a file.
``--budget`` and ``--limit`` stay at most 1000 and every size is small, so
no example starts a long exhaustive run.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heffter.bounds import THEOREMS
from heffter.cli import main
from heffter.embedding import build_embedding
from heffter.knight import enumerate_solutions
from heffter.validation import search_heffter

SMALL = st.integers(-3, 12)
INTS = st.one_of(SMALL, st.sampled_from([-(10 ** 30), 2 ** 63, 10 ** 30]))
BOUNDED = st.integers(-2, 1000)
FLOATS = st.sampled_from([0.5, -1.5, 1e300, float("inf"), float("nan")])
JSON = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["R", "C", "v", "t", "m", "n", "x"]), kids,
                      max_size=4),
    max_leaves=10,
)
# arrays with no filled cell: v disagrees with the weights in blank.arr, and
# blank_z1.arr over Z_1 validates vacuously
BLANKS = ("blank.arr", "blank_z1.arr")
FILES = ("array.arr", *BLANKS, "solution.json", "skeleton.json",
         "embs/a.json", "embs/b.json", "saved/array.arr", "saved/solutions.json")
DIRS = ("embs", "saved")  # a directory of saved embeddings, and a pipeline run
NAMES = FILES + DIRS + ("empty.json", "missing.json")
PATHS = st.sampled_from(NAMES)
PATH_FLAGS = ("--array", "--solution", "--save", "--out")
FAMILIES = st.sampled_from(["3diag", "PowerTwo", "k7", "prime", "pairs", "bogus"])


@pytest.fixture(scope="module")
def seeds():
    """Valid input files for a 5x5 cyclically 3-diagonal array over Z_31."""
    array = search_heffter(5, 5, 3, 3, 1, limit=1, skeleton="cyclic")[0]
    pairs = enumerate_solutions(array.skeleton(), trivial_rows=True)[:2]
    embs = [build_embedding(array, p.rows, p.cols).to_json_dict() for p in pairs]
    return {
        "array.arr": array.to_text(),
        "blank.arr": "v=7 t=1 m=2 n=3\n,,\n,,\n",
        "blank_z1.arr": "v=1 t=1 m=2 n=3\n,,\n,,\n",
        "solution.json": json.dumps(pairs[0].to_json_dict()),
        "skeleton.json": json.dumps(array.skeleton().to_json_dict()),
        "embs/a.json": json.dumps(embs[0]),
        "embs/b.json": json.dumps(embs[1]),
        # the files of a pipeline run that classify reads
        "saved/array.arr": array.to_text(),
        "saved/solutions.json": json.dumps([p.to_json_dict() for p in pairs], sort_keys=True),
    }


def mutated(data, text: str) -> str:
    """``text`` with one number replaced, cut short, or swapped for drawn
    JSON or text."""
    # a bad number is the damage a loader most often meets, so it is drawn twice as often
    how = data.draw(st.sampled_from(["number", "number", "cut", "json", "text"]))
    if how == "number":
        numbers = list(re.finditer(r"-?\d+", text))
        m = numbers[data.draw(st.integers(0, len(numbers) - 1))]
        new = data.draw(INTS.map(str) | FLOATS.map(json.dumps) | st.just('"x"'))
        return text[:m.start()] + new + text[m.end():]
    if how == "cut":
        return text[:data.draw(st.integers(0, len(text)))]
    if how == "json":
        return json.dumps(data.draw(JSON))
    return data.draw(st.text(max_size=20))


def path(*usual):
    """Half the time a file of the kind the operand expects, else any name."""
    return st.sampled_from(usual) | PATHS


def tokens(*parts):
    """The concatenation of the token lists that ``parts`` draw."""
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def fixed(*toks):
    return st.just(list(toks))


def arg(values):
    return values.map(lambda x: [str(x)])


def opt(flag, values=None):
    """``flag`` with a drawn value, or nothing."""
    if values is None:
        return st.sampled_from([[], [flag]])
    return st.one_of(st.just([]), values.map(lambda x: [flag, str(x)]))


def req(flag, values):
    return values.map(lambda x: [flag, str(x)])


VECTORS = st.lists(st.sampled_from([1, -1]) | INTS, min_size=1, max_size=7).map(
    lambda xs: ",".join(map(str, xs)))
CELLS = st.tuples(INTS, INTS).map(lambda c: f"{c[0]},{c[1]}") | st.text(max_size=4)
SEARCH = st.lists(SMALL.map(str) | st.sampled_from(["cyclic", "x"]),
                  min_size=4, max_size=7).map(",".join)
SKELETONS = st.sampled_from(["cyclic", "full", ""])

COMMANDS = st.one_of(
    tokens(fixed("verify"), arg(path("array.arr", *BLANKS)), opt("--text")),
    tokens(fixed("tour"), arg(path("skeleton.json", "array.arr", *BLANKS)),
           opt("--R", VECTORS), opt("--C", VECTORS), opt("--start", CELLS),
           opt("--cells"), opt("--text")),
    tokens(fixed("tour-enum"), arg(path("skeleton.json", "array.arr", *BLANKS)),
           opt("--trivial-R"), req("--budget", BOUNDED)),
    tokens(fixed("tour-family"), req("--family", FAMILIES), req("--n", SMALL),
           opt("--k", INTS), opt("--i", INTS), opt("--s1", INTS), opt("--r", INTS),
           req("--limit", BOUNDED)),
    tokens(fixed("faces"), req("--array", path("array.arr", *BLANKS)),
           req("--solution", path("solution.json")), opt("--max-faces", INTS),
           opt("--all")),
    tokens(fixed("embed"), req("--array", path("array.arr", *BLANKS)),
           req("--solution", path("solution.json")),
           opt("--save", st.sampled_from(["out.json", "missing/out.json", "embs"]))),
    tokens(fixed("iso"), arg(path("embs/a.json")), arg(path("embs/b.json"))),
    tokens(fixed("classify"), arg(path(*DIRS))),
    tokens(fixed("search"), req("--m", SMALL), req("--n", SMALL), req("--h", SMALL),
           req("--k", SMALL), opt("--t", INTS), req("--limit", BOUNDED),
           opt("--skeleton", SKELETONS), req("--budget", BOUNDED),
           opt("--out", st.sampled_from(["found", "array.arr"]))),
    tokens(fixed("bounds"),
           req("--theorem", st.sampled_from(sorted(THEOREMS) + ["nope"])),
           req("--n", SMALL), req("--k", SMALL), opt("--t", SMALL), opt("--s1", SMALL),
           opt("--force")),
    tokens(fixed("pipeline"),
           st.one_of(req("--array", path("array.arr", *BLANKS)), req("--search", SEARCH),
                     st.just([])),
           opt("--trivial-R"), req("--budget", BOUNDED),
           req("--out", st.sampled_from(["run", "array.arr"]))),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_drawn_command_lines_exit_cleanly(tmp_path_factory, seeds, data):
    argv = data.draw(COMMANDS)
    # at most one of the files the command reads is damaged
    read = [name for name in FILES if name in argv or name.split("/")[0] in argv]
    damaged = data.draw(st.sampled_from(read + [None]))
    root = tmp_path_factory.mktemp("fuzz")
    for name in DIRS:
        (root / name).mkdir()
    (root / "empty.json").write_text("")
    for name in FILES:
        text = seeds[name]
        if name == damaged:
            text = mutated(data, text)
        (root / name).write_text(text)
    # file operands and path options name files in the example's directory
    for i in range(1, len(argv)):
        if argv[i] in NAMES or argv[i - 1] in PATH_FLAGS:
            argv[i] = str(root / argv[i])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)  # an exception here is a traceback on the command line
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
