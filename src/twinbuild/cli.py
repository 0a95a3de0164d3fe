"""Command-line front end.

Every operation prints either a human-readable text form (default) or a
schema-versioned JSON envelope (``--format json``)::

    {"schema": "twinbuild/1", "command": ..., "parameters": ...,
     "result": ...}

``parameters`` echoes every option of the command, as given (a string
stays the string typed, an integer option its integer), with its default
when omitted: the parsed command line less the command path and
``--format``.  Option groups that several commands share (``--n``,
``--cminus``, ``--cplus``; ``--basis``, ``--keep``; ``--type``) are
defined once, and ``--help`` lists them first, after ``--format``.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 domain error, 4 internal error (an unexpected exception, that is a
bug; its envelope code is ``internal``).  A malformed value (a matrix,
word, scalar or parameter that does not parse) is a usage error; with
``--format json`` it prints an error envelope with code ``usage``; so
do an unknown ``verify`` suite name and a basis, ``--loop`` or
``--x`` matrix that is not n x n for a given ``--n``.  An argument list
that argparse itself rejects (an unknown command or option, a missing
required option, a non-integer ``--n``) fails before ``--format`` is
read, so argparse's message goes to stderr as text, with exit code 2
and no envelope.

This module imports only ``errors`` at the top: each command handler
(and each parsing helper) imports what it runs when it runs, so
``coxeter length`` loads only ``coxeter``, ``errors`` and ``record``,
never the matrix layers or the ``verify`` suites.

Matrices are written ``row;row;...`` with comma-separated polynomial
entries (``1,z;0,1``), or as a JSON array of entry strings; both parse
back to the identical matrix.  Coordinates (or ``INF``), flag entries
and weights are scalars of the same grammar (``exactalg.parse_scalar``),
never polynomials or Python number literals.  Words are comma-separated
generator indices (the empty string is the identity).  Every integer
(an index, a rank, ``--n``, ``--seed``, ...) is an optional minus and
ASCII digits (``_int``): ``int`` alone would also read ``1_2`` as 12 and
other scripts' digits as ASCII ones.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import TwinbuildError, check_rank

SCHEMA = "twinbuild/1"

# The parsed options that are not parameters: the command path, the
# output format and the handler.
_NOT_PARAMETERS = ("command", "sub", "format", "func")


# ---------------------------------------------------------------------------
# parsing and printing helpers
# ---------------------------------------------------------------------------


_INTEGER = re.compile(r"-?[0-9]+")


def _int(text):
    """An integer: an optional minus and ASCII digits, surrounding spaces
    stripped; anything else raises ValueError."""
    digits = text.strip()
    if not _INTEGER.fullmatch(digits):
        raise ValueError(f"bad integer {text!r}")
    return int(digits)


# argparse names the type in its rejection: "invalid int value: 'x'".
_int.__name__ = "int"


def _parse_word(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(_int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad word {text!r}; expected comma-separated integers")


def _word_str(word):
    return ",".join(str(s) for s in word)


def _parse_matrix(text):
    from .exactalg import LMat, parse_poly

    text = text.strip()
    if text.startswith("["):
        rows = json.loads(text)
        # LMat rejects ragged and empty row lists itself.
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError(f"bad matrix {text!r}; expected a JSON list of row lists")
        return LMat([[parse_poly(str(e)) for e in row] for row in rows])
    return LMat(
        [[parse_poly(e) for e in row.split(",")] for row in text.split(";")]
    )


def _matrix_text(m) -> str:
    from .exactalg import poly_to_str

    return ";".join(
        ",".join(poly_to_str(e) for e in row) for row in m.rows
    )


def _parse_param(text):
    from .exactalg import parse_scalar
    from .lattice import INF

    return INF if text.strip().upper() == "INF" else parse_scalar(text)


def _param_str(t):
    from .exactalg import scalar_to_str
    from .lattice import INF

    return "INF" if t is INF else scalar_to_str(t)


def _parse_coxeter_type(text):
    """'A3' -> finite A_3 (the symmetric group S_4); 'A~3' -> the affine
    cycle on 4 nodes."""
    from .coxeter import coxeter_matrix

    text = text.strip()
    kind = "finite-A"
    body = text[1:]
    if not text.startswith("A"):
        raise ValueError(f"unsupported Coxeter type {text!r}")
    if body.startswith("~"):
        kind = "affine-A"
        body = body[1:]
    if not _INTEGER.fullmatch(body) or int(body) < 1:
        raise ValueError(f"unsupported Coxeter type {text!r}")
    return coxeter_matrix(kind, int(body) + 1)


def _parse_generators(text):
    text = text.strip()
    if text.startswith("J=") or text.startswith("K="):
        text = text[2:]
    if not text:
        return frozenset()
    return frozenset(_int(t) for t in text.split(","))


def _parse_flag(text):
    from .exactalg import parse_scalar
    from .veronese import SubspaceFlag

    steps = []
    for sub in text.split("|"):
        steps.append(
            [[parse_scalar(e) for e in row.split(",")] for row in sub.split(";")]
        )
    n = len(steps[0][0])
    return SubspaceFlag(n, steps)


def _parse_weights(text):
    from .exactalg import parse_scalar

    return [parse_scalar(t) for t in text.split(",")]


def _matrix_arg(text, n, what):
    """The matrix of ``text``; a usage error unless it is n x n, when n
    is given."""
    m = _parse_matrix(text)
    if n is not None and (m.nrows, m.ncols) != (n, n):
        raise ValueError(f"a {m.nrows}x{m.ncols} {what} does not match --n {n}")
    return m


def _chamber_arg(text, side, n):
    from .building import chamber_from_basis, standard_chamber

    if text is None:
        if n is None:
            raise ValueError("give --n or an explicit basis matrix")
        check_rank(n)
        return standard_chamber(side, n)
    return chamber_from_basis(side, _matrix_arg(text, n, "basis"))


# ---------------------------------------------------------------------------
# command handlers: each returns (json result, text), and verify also its
# exit code; main echoes the parsed options as the parameters
# ---------------------------------------------------------------------------


def _cmd_coxeter(args):
    from .coxeter import bruhat_leq, min_coset_reps, reduce_word, word_length

    M = _parse_coxeter_type(args.type)
    if args.sub == "reduce":
        word = reduce_word(_parse_word(args.word), M)
        return {"word": list(word)}, _word_str(word)
    if args.sub == "length":
        ell = word_length(_parse_word(args.word), M)
        return {"length": ell}, str(ell)
    if args.sub == "bruhat":
        leq = bruhat_leq(_parse_word(args.v), _parse_word(args.w), M)
        return {"leq": leq}, json.dumps(leq)
    # cosets
    J = _parse_generators(args.quotient)
    within = _parse_generators(args.within) if args.within else None
    reps = min_coset_reps(M, J, args.max_length, within=within)
    return (
        {"representatives": [list(w) for w in reps]},
        "\n".join(_word_str(w) for w in reps),
    )


def _cmd_delta(args):
    from .building import delta_word

    c = _chamber_arg(args.c, args.side, args.n)
    d = _chamber_arg(args.d, args.side, args.n)
    word = delta_word(c, d)
    return {"word": list(word)}, _word_str(word)


def _cmd_codelta(args):
    """codelta, and opposite: whether the codistance is the identity."""
    from .building import codelta_word, opposite

    cm = _chamber_arg(args.cminus, "-", args.n)
    cp = _chamber_arg(args.cplus, "+", args.n)
    if args.command == "opposite":
        opp = opposite(cm, cp)
        return {"opposite": opp}, json.dumps(opp)
    word = codelta_word(cm, cp)
    return {"word": list(word)}, _word_str(word)


def _cmd_project(args):
    """project, and project-twin: the gate of a chamber on the other side."""
    from .building import Simplex, chamber_from_basis, project, project_twin
    from .exactalg import mat_to_json

    carrier = chamber_from_basis(args.side, _parse_matrix(args.basis))
    face = Simplex(carrier, {_int(t) for t in args.keep.split(",")})
    if args.command == "project":
        c = chamber_from_basis(args.side, _parse_matrix(args.chamber))
        gate = project(face, c)
    else:
        other = "-" if args.side == "+" else "+"
        c = chamber_from_basis(other, _parse_matrix(args.chamber))
        gate = project_twin(face, c)
    return {"chamber": mat_to_json(gate.rep)}, _matrix_text(gate.rep)


def _cmd_coords(args):
    from .building import decode_coords, delta_word, encode_coords
    from .exactalg import mat_to_json

    cp = _chamber_arg(args.cplus, "+", args.n)
    cm = _chamber_arg(args.cminus, "-", args.n)
    if args.sub == "encode":
        e = _chamber_arg(args.chamber, "+", args.n)
        word = _parse_word(args.word) if args.word is not None else None
        coords = encode_coords(cp, cm, e, word=word)
        if word is None:
            word = delta_word(cp, e)
        shown = [_param_str(t) for t in coords]
        text = f"word: {_word_str(word)}\ncoords: " + ",".join(shown)
        return {"word": list(word), "coords": shown}, text
    word = _parse_word(args.word)
    coords = [_parse_param(t) for t in args.coords.split(",")] if args.coords else []
    e = decode_coords(cp, cm, word, coords)
    return {"chamber": mat_to_json(e.rep)}, _matrix_text(e.rep)


def _cmd_poincare(args):
    from .cells import bott_equivalence_check, loop_poincare, schubert_poincare

    if args.sub == "bott-check":
        ok = bott_equivalence_check(args.k, args.deg)
        return {"equivalent": ok}, json.dumps(ok)
    if args.sub == "schubert":
        M = _parse_coxeter_type(args.type)
        J = _parse_generators(args.quotient)
        series = schubert_poincare(M, J, _parse_word(args.w), args.truncation)
        text = str(series)
    else:  # loop
        series = loop_poincare(args.n, args.deg)
        text = json.dumps(list(series.coeffs), separators=(",", ":"))
    result = {
        "coefficients": list(series.coeffs),
        "series": str(series),
        "truncation": series.truncation,
    }
    return result, text


def _cmd_veronese(args):
    from .exactalg import LMat, mat_to_json
    from .veronese import affine_veronese_vertex, caveat_check, spherical_veronese

    if args.sub == "spherical":
        flag = _parse_flag(args.flag)
        x = spherical_veronese(flag, _parse_weights(args.weights))
        return {"matrix": mat_to_json(x)}, _matrix_text(x)
    if args.sub == "affine":
        if args.loop:
            g = _matrix_arg(args.loop, args.n, "loop")
        else:
            check_rank(args.n)
            g = LMat.identity(args.n)
        x = affine_veronese_vertex(g, args.k)
        return {"matrix": mat_to_json(x)}, _matrix_text(x)
    # caveat
    x = _matrix_arg(args.x, args.n, "matrix") if args.x else None
    ok = caveat_check(args.n, args.deg, x)
    return {"no_truncated_kernel": ok}, json.dumps(ok)


def _cmd_verify(args):
    from .verify import available_suites, run_all, run_suite

    suites = ("all",) + available_suites()
    if args.suite not in suites:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {', '.join(suites)}")
    if args.suite == "all":
        results = run_all(seed=args.seed, count=args.count)
    else:
        results = [run_suite(args.suite, seed=args.seed, count=args.count)]
    failed = sum(r.failed for r in results)
    lines = []
    for r in results:
        lines.append(str(r))
        lines.extend(f"  {m}" for m in r.messages)
    result = {"suites": [r.as_dict() for r in results], "failed": failed}
    return result, "\n".join(lines), 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _build_parser():
    # Option groups shared by several commands, each defined once.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    ctype = argparse.ArgumentParser(add_help=False)
    ctype.add_argument("--type", required=True, help="A<k> or A~<k>")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--n", type=_int, default=None)
    pair.add_argument("--cminus", default=None)
    pair.add_argument("--cplus", default=None)
    face = argparse.ArgumentParser(add_help=False)
    face.add_argument("--basis", required=True, help="carrier chamber basis")
    face.add_argument("--keep", required=True, help="kept chain positions")

    p = argparse.ArgumentParser(
        prog="twinbuild",
        description="Exact twin-building and Veronese computations for SL_n.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    cox = sub.add_parser("coxeter", help="words, lengths, Bruhat order, cosets")
    coxsub = cox.add_subparsers(dest="sub", required=True)
    for name in ("reduce", "length"):
        q = coxsub.add_parser(name, parents=[fmt, ctype])
        q.add_argument("--word", required=True)
        q.set_defaults(func=_cmd_coxeter)
    q = coxsub.add_parser("bruhat", parents=[fmt, ctype])
    q.add_argument("--v", required=True)
    q.add_argument("--w", required=True)
    q.set_defaults(func=_cmd_coxeter)
    q = coxsub.add_parser("cosets", parents=[fmt, ctype])
    q.add_argument("--quotient", required=True, help="J=<comma list>")
    q.add_argument("--within", default=None, help="K=<comma list>")
    q.add_argument("--max-length", type=_int, default=12)
    q.set_defaults(func=_cmd_coxeter)

    q = sub.add_parser("delta", parents=[fmt], help="same-side Weyl distance")
    q.add_argument("--side", choices=("+", "-"), default="+")
    q.add_argument("--n", type=_int, default=None)
    q.add_argument("--c", default=None, help="basis matrix (default standard)")
    q.add_argument("--d", required=True, help="basis matrix")
    q.set_defaults(func=_cmd_delta)

    q = sub.add_parser("codelta", parents=[fmt, pair], help="twin codistance")
    q.set_defaults(func=_cmd_codelta)
    q = sub.add_parser("opposite", parents=[fmt, pair], help="codistance identity test")
    q.set_defaults(func=_cmd_codelta)

    q = sub.add_parser("project", parents=[fmt, face], help="same-side gate")
    q.add_argument("--side", choices=("+", "-"), default="+")
    q.add_argument("--chamber", required=True)
    q.set_defaults(func=_cmd_project)
    q = sub.add_parser("project-twin", parents=[fmt, face], help="twin gate")
    q.add_argument("--side", choices=("+", "-"), default="-",
                   help="side of the face")
    q.add_argument("--chamber", required=True, help="chamber on the other side")
    q.set_defaults(func=_cmd_project)

    coords = sub.add_parser("coords", help="Schubert-cell coordinates")
    csub = coords.add_subparsers(dest="sub", required=True)
    q = csub.add_parser("encode", parents=[fmt, pair])
    q.add_argument("--chamber", required=True)
    q.add_argument("--word", default=None, help="reduced word (default: normal form)")
    q.set_defaults(func=_cmd_coords)
    q = csub.add_parser("decode", parents=[fmt, pair])
    q.add_argument("--word", required=True)
    q.add_argument("--coords", required=True,
                   help="comma list of Gaussian rationals, one per letter: "
                   "root-group coordinates, so every list lands in the cell of "
                   "the word; INF skips its letter (the gallery stays), which "
                   "lands in a lower cell")
    q.set_defaults(func=_cmd_coords)

    poin = sub.add_parser("poincare", help="cell-counting series")
    psub = poin.add_subparsers(dest="sub", required=True)
    q = psub.add_parser("schubert", parents=[fmt, ctype])
    q.add_argument("--quotient", default="", help="J=<comma list>")
    q.add_argument("--w", required=True)
    q.add_argument("--truncation", type=_int, default=None)
    q.set_defaults(func=_cmd_poincare)
    q = psub.add_parser("loop", parents=[fmt])
    q.add_argument("--n", type=_int, required=True)
    q.add_argument("--deg", type=_int, required=True)
    q.set_defaults(func=_cmd_poincare)
    q = psub.add_parser("bott-check", parents=[fmt])
    q.add_argument("--k", type=_int, required=True)
    q.add_argument("--deg", type=_int, required=True)
    q.set_defaults(func=_cmd_poincare)

    ver = sub.add_parser("veronese", help="projector embeddings")
    vsub = ver.add_subparsers(dest="sub", required=True)
    q = vsub.add_parser("spherical", parents=[fmt])
    q.add_argument("--flag", required=True,
                   help="subspaces '|'-separated, rows ';'-separated")
    q.add_argument("--weights", required=True,
                   help="comma list of positive rational scalars")
    q.set_defaults(func=_cmd_veronese)
    q = vsub.add_parser("affine", parents=[fmt])
    q.add_argument("--n", type=_int, required=True)
    q.add_argument("--k", type=_int, required=True)
    q.add_argument("--loop", default=None, help="unitary loop matrix")
    q.set_defaults(func=_cmd_veronese)
    q = vsub.add_parser("caveat", parents=[fmt])
    q.add_argument("--n", type=_int, required=True, help="rank: X is n x n")
    q.add_argument("--deg", type=_int, required=True,
                   help="the bound N: every lambda in (1/n)Z with |lambda| <= N "
                   "is tried, on vectors with z-support [2-N, N-2]")
    q.add_argument("--x", default=None,
                   help="sharp-fixed traceless n x n matrix (default "
                   "diag(a,..,a,(1-n)a) with a = z + 1/z)")
    q.set_defaults(func=_cmd_veronese)

    q = sub.add_parser("verify", parents=[fmt], help="seeded self-check suites")
    q.add_argument("suite", help="a suite name, or all")
    q.add_argument("--seed", type=_int, default=0)
    q.add_argument("--count", type=_int, default=None)
    q.set_defaults(func=_cmd_verify)

    return p


def _command_name(args) -> str:
    name = args.command
    if getattr(args, "sub", None):
        name += "." + args.sub
    return name


def _print_error(fmt, command, err_code, message):
    if fmt == "json":
        envelope = {
            "schema": SCHEMA,
            "command": command,
            "error": {"code": err_code, "message": message},
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(f"error ({err_code}): {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    name = _command_name(args)
    try:
        result, text, *code = args.func(args)
    except TwinbuildError as exc:
        _print_error(args.format, name, exc.code, str(exc))
        return exc.exit_code
    except (ValueError, json.JSONDecodeError) as exc:
        if args.format == "json":
            _print_error("json", name, "usage", str(exc))
        else:
            print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other exception is a bug.  The envelope names it and the
        # frame that raised it, in place of a traceback.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        func = tb.tb_frame.f_code
        where = f"{os.path.basename(func.co_filename)}:{tb.tb_lineno} in {func.co_name}"
        _print_error(
            args.format, name, "internal", f"{type(exc).__name__}: {exc} (at {where})"
        )
        return 4
    if args.format == "json":
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
        envelope = {
            "schema": SCHEMA,
            "command": name,
            "parameters": params,
            "result": result,
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(text)
    return code[0] if code else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
