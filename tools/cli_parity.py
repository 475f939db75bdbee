"""Digest the command line's output on every benchmark query, to show that
two checkouts behave byte for byte alike.

    python tools/cli_parity.py ROOT OUT     # digests of ROOT/src's CLI, written to OUT
    python tools/cli_parity.py --diff A B   # the queries whose digests differ

The queries and probes are those ``bench/workloads.build`` makes for every
workload at seeds 1-3, read from the ``bench/`` next to this script, which
is never written.  Their documents go into one fixed work directory, so the
paths that messages name are the same in every run.  Each query runs in
this process through ``gurevich.cli.main`` imported from ``ROOT/src``,
under ``PYTHONHASHSEED=0`` and one BLAS thread (the script re-executes
itself to set them).  Its digest is the SHA-256 of its exit code, or the
class of an exception that escapes ``main``, its stdout, its stderr and
the document ``implement`` writes.  OUT has one ``workload/seed/query
digest`` line per query.  ``--diff`` exits 1 when a digest differs or a
query is missing from either file.

Then ``energy`` runs on each of a fixed list of malformed automaton
documents (``MALFORMED``), one ``malformed/case digest`` line each, so the
load path's error messages are compared too: rows that are not objects,
missing or non-string names, costs that are not finite numbers, two bad
rows, a state listed twice, a transition to an undeclared state, a symbol
not in the alphabet, an undeclared initial, an undeclared accepting name,
one document with both an undeclared state and a state name with
whitespace (two violations joined by ``; ``), an int of 5,000 digits, int
names that no field declares, and two files that json cannot read:
200,000 open brackets and a name in Latin-1 bytes.  The undeclared names
reach ``CostAutomaton.create``'s indexing of the declared and used names.
Then ``energy --json`` and ``nondet --json`` run on ``TRIM_CUT``, a
document that trim cuts, one ``cut/command digest`` line each, so the order
of the components after a cut is compared.
Then ``nondet --exact --state-cap 3`` runs on ``SUBSET_BLOWUP``, one
``cap/nondet-exact digest`` line, so a cap's exit-4 message is compared.
Last, ``implement`` and ``oracle --kind words --pair-costs ... --json`` run
on ``PAIRCOST_DFA``, a 3-state DFA over 4 symbols, with each pair cost
document of ``PAIRCOST``, one ``paircost/case/command digest`` line each:
listed costs above and below a non-zero default, a listed pair that the DFA
never reads back to back, and two different listed costs past the double
range (the word sums exit 3 naming one of them).
Then ``linlen --oracle-check N --json`` runs on each linear-length spec of
``LINLEN``, one ``linlen/case digest`` line each, so the split oracle's
values and messages are compared on specs the benchmark never draws: arity
1, two parts with a head and a tail period, a last part that must end in
an accepting state, a symbol no part reads, a horizon past the oracle's
1,000,000-prefix cap (exit 4) and a word weight past the double range
(exit 3).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
WORK = os.path.join(tempfile.gettempdir(), "gurevich-cli-parity")
SEEDS = (1, 2, 3)
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# a valid automaton, and the edits that make each malformed case: the JSON
# text put at a path into the document, or None to delete the field there;
# or a malformed case's whole file, as bytes
BASE = {
    "alphabet": ["a", "b"],
    "states": ["p", "q"],
    "initial": "p",
    "accepting": ["q"],
    "transitions": [
        {"from": "p", "symbol": "a", "to": "q", "cost": 0.5},
        {"from": "q", "symbol": "b", "to": "p", "cost": -1.0},
        {"from": "q", "symbol": "a", "to": "q", "cost": 0.25},
    ],
}
NAMES = ("from", "symbol", "to")
MALFORMED = {
    **{f"row-{kind}": [(("transitions", 1), raw)] for kind, raw in
       (("list", '["q", "b", "p"]'), ("string", '"q b p"'), ("null", "null"))},
    **{f"no-{key}": [(("transitions", 1, key), None)] for key in NAMES},
    **{f"{key}-{kind}": [(("transitions", 1, key), raw)] for key in NAMES for kind, raw in
       (("int", "3"), ("list", '["p"]'), ("null", "null"), ("bool", "true"))},
    **{f"cost-{kind}": [(("transitions", 1, "cost"), raw)] for kind, raw in
       (("bool", "false"), ("string", '"1.5"'), ("1e400", "1e400"), ("10**400", "1" + "0" * 400),
        ("Infinity", "Infinity"))},
    "two-bad-rows": [(("transitions", 2, "to"), "7"), (("transitions", 1, "cost"), '"x"')],
    "state-twice": [(("states",), '["p", "q", "p"]')],
    "undeclared-state": [(("transitions", 2, "to"), '"r"')],
    "undeclared-symbol": [(("transitions", 1, "symbol"), '"c"')],
    "undeclared-initial": [(("initial",), '"r"')],
    "undeclared-accepting": [(("accepting",), '["q", "r"]')],
    # two violations, joined by "; " in one message
    "undeclared-and-spaced-state": [(("states",), '["p", "q", "p q"]'), (("transitions", 2, "to"), '"r"')],
    "cost-10**4999": [(("transitions", 1, "cost"), "1" + "0" * 4999)],
    "int-names-undeclared": [(("alphabet",), "[]"), (("states",), "[]"), (("accepting",), "[]"), (("initial",), None),
                             (("transitions",), '[{"from": 1, "symbol": 2, "to": 3}]')],
    # whole files, written as they are
    "nested-200000": b"[" * 200_000,
    "not-utf-8": json.dumps(BASE).replace('"to": "p"', '"to": "p\u00e9"', 1).encode("latin-1"),
}


# live components {p1, p2} -> {q1, q2, q3} -> {r} from the initial p1 to the
# accepting r; the unreachable {a1, a2} leads into p1 and q2, and its names
# sort first, so a walk over all the states would meet it first; q1 leads
# into the dead-end {x1, x2}, which reads on into the dead end y
TRIM_CUT = {
    "alphabet": ["a", "b"],
    "states": ["a1", "a2", "p1", "p2", "q1", "q2", "q3", "r", "x1", "x2", "y"],
    "initial": "p1",
    "accepting": ["r"],
    "transitions": [
        {"from": f, "symbol": y, "to": t, "cost": c}
        for f, y, t, c in (
            ("a1", "a", "a2", 2.0), ("a2", "a", "a1", 1.0), ("a1", "b", "p1", 0.5), ("a2", "b", "q2", 0.0),
            ("p1", "a", "p2", 0.25), ("p2", "a", "p1", -0.5), ("p2", "b", "q1", 0.0),
            ("q1", "a", "q2", 0.75), ("q2", "a", "q3", -0.25), ("q3", "a", "q1", 0.5), ("q3", "b", "q1", 0.125),
            ("q3", "b", "r", 0.0), ("r", "a", "r", 0.375), ("q1", "b", "x1", 0.0),
            ("x1", "a", "x2", 3.0), ("x2", "a", "x1", 3.0), ("x2", "b", "y", 0.0),
        )
    ],
}


# (a|b)*a(a|b)^2: its 4-state NFA determinizes to 8 subsets
SUBSET_BLOWUP = {
    "alphabet": ["a", "b"],
    "states": ["s0", "s1", "s2", "s3"],
    "initial": "s0",
    "accepting": ["s3"],
    "transitions": [
        {"from": "s0", "symbol": "a", "to": "s0"},
        {"from": "s0", "symbol": "b", "to": "s0"},
        {"from": "s0", "symbol": "a", "to": "s1"},
        *({"from": f"s{i}", "symbol": y, "to": f"s{i + 1}"} for i in (1, 2) for y in "ab"),
    ],
}


# p -a-> q -c-> r -d-> p, with the loop q -a-> q, the chord r -b-> q and the
# exit p -b-> r: c c and d d are never read back to back
PAIRCOST_DFA = {
    "alphabet": ["a", "b", "c", "d"],
    "states": ["p", "q", "r"],
    "initial": "p",
    "accepting": ["q", "r"],
    "transitions": [
        {"from": "p", "symbol": "a", "to": "q"},
        {"from": "p", "symbol": "b", "to": "r"},
        {"from": "q", "symbol": "a", "to": "q"},
        {"from": "q", "symbol": "c", "to": "r"},
        {"from": "r", "symbol": "b", "to": "q"},
        {"from": "r", "symbol": "d", "to": "p"},
    ],
}


def _pairs(default, *listed):
    return {"pairs": [{"first": a, "second": b, "cost": c} for a, b, c in listed], "default": default}


PAIRCOST = {
    "above-and-below-default": _pairs(0.5, ("a", "c", 1.25), ("c", "d", -2.0), ("d", "a", 0.75), ("a", "a", -0.5)),
    "pair-never-read": _pairs(-0.25, ("d", "d", 3.0), ("b", "a", 0.5)),
    "two-past-range": _pairs(0.0, ("a", "c", 800.0), ("d", "a", 900.0)),
}


def _dfa(alphabet, states, accepting, moves):
    """An automaton document whose initial state is the first of ``states``."""
    return {
        "alphabet": alphabet, "states": states, "initial": states[0], "accepting": accepting,
        "transitions": [{"from": f, "symbol": y, "to": t} for f, y, t in moves],
    }


def _linlen(base, parts, offset, periods, pair_cost):
    return {"base": base, "parts": parts, "lengths": {"offset": offset, "periods": periods}, "pair_cost": pair_cost}


AB = ["a", "b"]
ABC = ["a", "b", "c"]
SIGMA = _dfa(AB, ["S"], ["S"], [("S", "a", "S"), ("S", "b", "S")])
A_STAR = _dfa(AB, ["A"], ["A"], [("A", "a", "A")])
B_STAR = _dfa(AB, ["B"], ["B"], [("B", "b", "B")])
MIXED = _pairs(0.125, ("a", "a", 0.5), ("a", "b", -0.25), ("b", "a", 0.75))

# case -> (spec document, oracle horizon)
LINLEN = {
    # words ending in a, whose one part has an even number of b's
    "arity-1": (_linlen(
        _dfa(AB, ["p", "q"], ["q"], [("p", "a", "q"), ("p", "b", "p"), ("q", "a", "q"), ("q", "b", "p")]),
        [_dfa(AB, ["e", "o"], ["e"], [("e", "a", "e"), ("e", "b", "o"), ("o", "a", "o"), ("o", "b", "e")])],
        [2], [[3]], MIXED), 12),
    # (1,2) moves both lengths, (0,3) the last one only; the last part starts with b
    "head-and-tail-periods": (_linlen(
        SIGMA, [SIGMA, _dfa(AB, ["s", "t"], ["t"], [("s", "b", "t"), ("t", "a", "t"), ("t", "b", "t")])],
        [1, 1], [[1, 2], [0, 3]], MIXED), 11),
    # b* then (aa)*: D admits odd last lengths, the last part's DFA does not
    "last-part-ends-accepting": (_linlen(
        _dfa(AB, ["B", "A"], ["B", "A"], [("B", "b", "B"), ("B", "a", "A"), ("A", "a", "A")]),
        [B_STAR, _dfa(AB, ["e", "o"], ["e"], [("e", "a", "o"), ("o", "a", "e")])],
        [1, 2], [[1, 0], [0, 1]], MIXED), 16),
    # no part reads c, so no word with a c splits
    "unread-symbol": (_linlen(
        _dfa(ABC, ["S"], ["S"], [("S", y, "S") for y in ABC]),
        [_dfa(ABC, ["A"], ["A"], [("A", "a", "A")]), _dfa(ABC, ["B"], ["B"], [("B", "b", "B")])],
        [1, 1], [[1, 0], [0, 1]], _pairs(-0.5, ("a", "c", 2.0), ("c", "b", 1.5), ("a", "b", 0.25))), 8),
    # {a, b}* has 2**21 - 1 prefixes of length <= 20
    "word-cap": (_linlen(SIGMA, [SIGMA], [1], [[1]], MIXED), 20),
    # a^2 b^4 a^6 costs 900, past e^709.78
    "overflow": (_linlen(
        _dfa(AB, ["s0", "s1", "s2"], ["s0", "s1", "s2"],
             [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "b", "s1"), ("s1", "a", "s2"), ("s2", "a", "s2")]),
        [A_STAR, B_STAR, A_STAR], [1, 2, 3], [[1, 2, 3]], _pairs(0.0, ("a", "a", 100.0), ("b", "b", 100.0))), 12),
}


def malformed_text(edits) -> str:
    """BASE's JSON text with ``edits`` made."""
    doc = json.loads(json.dumps(BASE))
    raws = []
    for path, raw in edits:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if raw is None:
            del target[last]
        else:
            target[last] = f"@raw{len(raws)}@"
            raws.append(raw)
    text = json.dumps(doc)
    for i, raw in enumerate(raws):
        text = text.replace(f'"@raw{i}@"', raw)
    return text


def digest(main, argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = str(main(list(argv)))
        except Exception as e:  # an escaping exception is part of the behaviour
            status = type(e).__name__
    written = b""
    if argv[0] == "implement" and os.path.isfile(argv[3]):
        with open(argv[3], "rb") as f:
            written = f.read()
    h = hashlib.sha256()
    for part in (status.encode(), out.getvalue().encode(), err.getvalue().encode(), written):
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def record(root: str, path: str) -> int:
    src = os.path.join(os.path.abspath(root), "src")
    sys.path[:0] = [src, BENCH]
    import gurevich.cli
    import workloads

    if not gurevich.cli.__file__.startswith(src):
        print(f"error: imported {gurevich.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    lines = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(WORK, ignore_errors=True)
            os.makedirs(WORK)
            queries, probes = workloads.build(workload, seed, WORK)
            for q in queries + probes:
                lines.append(f"{workload}/{seed}/{q.name} {digest(gurevich.cli.main, q.argv)}\n")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    for case, edits in MALFORMED.items():
        document = os.path.join(WORK, f"{case}.json")
        with open(document, "wb") as f:
            f.write(edits if isinstance(edits, bytes) else malformed_text(edits).encode("utf-8"))
        lines.append(f"malformed/{case} {digest(gurevich.cli.main, ('energy', document))}\n")
    document = os.path.join(WORK, "trim-cut.json")
    with open(document, "w", encoding="utf-8") as f:
        json.dump(TRIM_CUT, f)
    for command in ("energy", "nondet"):
        lines.append(f"cut/{command} {digest(gurevich.cli.main, (command, document, '--json'))}\n")
    document = os.path.join(WORK, "subset-blowup.json")
    with open(document, "w", encoding="utf-8") as f:
        json.dump(SUBSET_BLOWUP, f)
    argv = ("nondet", document, "--exact", "--state-cap", "3")
    lines.append(f"cap/nondet-exact {digest(gurevich.cli.main, argv)}\n")
    dfa = os.path.join(WORK, "paircost-dfa.json")
    with open(dfa, "w", encoding="utf-8") as f:
        json.dump(PAIRCOST_DFA, f)
    for case, costs in PAIRCOST.items():
        document = os.path.join(WORK, f"{case}.json")
        with open(document, "w", encoding="utf-8") as f:
            json.dump(costs, f)
        commands = {
            "implement": ("implement", dfa, document, os.path.join(WORK, f"{case}-implemented.json")),
            "oracle-words": ("oracle", dfa, "--kind", "words", "--pair-costs", document, "--json"),
        }
        for command, argv in commands.items():
            lines.append(f"paircost/{case}/{command} {digest(gurevich.cli.main, argv)}\n")
    for case, (spec, horizon) in LINLEN.items():
        document = os.path.join(WORK, f"linlen-{case}.json")
        with open(document, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        argv = ("linlen", document, "--oracle-check", str(horizon), "--json")
        lines.append(f"linlen/{case} {digest(gurevich.cli.main, argv)}\n")
    shutil.rmtree(WORK, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)
    print(f"{len(lines)} digests written to {path}")
    return 0


def read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return dict(line.split() for line in f if line.strip())


def diff(a: str, b: str) -> int:
    left, right = read(a), read(b)
    differing = [name for name in sorted(left.keys() | right.keys()) if left.get(name) != right.get(name)]
    for name in differing:
        print(name)
    print(f"{len(differing)} of {len(left.keys() | right.keys())} queries differ")
    return 1 if differing else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--diff", action="store_true", help="compare two digest files instead of recording")
    p.add_argument("first", help="ROOT of a checkout (or the first digest file with --diff)")
    p.add_argument("second", help="OUT digest file (or the second digest file with --diff)")
    args = p.parse_args()
    if args.diff:
        return diff(args.first, args.second)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    return record(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
