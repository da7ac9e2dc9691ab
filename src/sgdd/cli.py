"""Command-line front end: file-based pipelines over the library.

Each command ``sgdd VERB TARGET`` is one function below, registered in
``COMMANDS`` with its options by ``@_command``; its docstring is its help
line.  ``main`` builds the argument parser of the chosen command only, and
lists the verbs or a verb's targets when it names none (``sgdd -h``,
``sgdd VERB -h``).

Exit status: 0 = certified/success, 1 = violation found, 2 = usage or I/O
error.  Every ``construct`` command certifies its output before writing
(fail-closed), so an uncertified artifact can never hit disk.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .classical import hadamard_matrix, paley_conference_matrix, signed_permutation_weighing_set
from .designs import IncidenceMatrix, verify_gdd
from .errors import FormatError, SgddError
from .gf import gf_from_order
from .latin import (
    LinkedMolsFamily,
    linked_mols_from_gf,
    mols_from_gf,
    search_linked_mols,
    verify_linked,
)
from .linked import (
    bgw_generate,
    build_from_mub_bush,
    build_tilde_l,
    build_twin,
    bush_search,
    conference_to_gdd,
    gcm_to_gdd,
    verify_linked_system,
)
from .resolvable import aux_from_affine_geometry, aux_from_hadamard, verify_auxiliary
from .scanner import rows_to_csv, rows_to_text, scan_table1, scan_table2, table1_witnesses
from .schemes import (
    assemble_scheme,
    certify_classes,
    check_fusion,
    extract_linked_system,
    load_scheme,
)

OK, VIOLATION, USAGE = 0, 1, 2

VERBS = {
    "construct": "build a certified object and write it",
    "verify": "certify an artifact file",
    "scheme": "assemble, analyze, extract, or fuse a scheme",
    "scan": "feasible-parameter tables",
    "oracle": "desk-scale existence searches",
}
# verb -> target -> (options, handler); the handler's docstring is its help line
COMMANDS: dict[str, dict[str, tuple]] = {verb: {} for verb in VERBS}


def _command(verb: str, target: str, *options):
    """Register the decorated handler as ``sgdd VERB TARGET`` with ``options``;
    it returns ``None`` for exit status 0, or its exit status."""

    def register(handler):
        COMMANDS[verb][target] = (options, handler)
        return handler

    return register


def _add(parser, options):
    for option in options:
        option(parser)
    return parser


def _opt(*flags, **kw):
    """An option of a command, added to its parser in the order listed."""
    return lambda parser: parser.add_argument(*flags, **kw)


def _one_of(*options):
    """A required group of mutually exclusive options."""
    return lambda parser: _add(parser.add_mutually_exclusive_group(required=True), options)


_OUT = _opt("-o", "--output")
_HADAMARD_ORDER = _opt("--order", type=int, help="catalog Hadamard order")
_PARAMS_OUT = _opt("--params-out")
_Q = _opt("--q", type=int, required=True)
_IN = _opt("--in", dest="input", required=True)
_FILE = _opt("input")
_FORMAT = _opt("--format", choices=("csv", "text"), default="csv")


def _from_file(reader, path: str):
    """What ``reader`` reads from the file at ``path``, opened as a binary stream."""
    with open(path, "rb") as stream:
        return reader(stream)


def _write(path: str, chunks):
    """A writer's byte chunks, written to ``path`` as they come."""
    with open(path, "wb") as stream:
        stream.writelines(chunks)


def _emit(chunks, out: str | None):
    if out:
        _write(out, chunks)
    else:
        sys.stdout.write(b"".join(chunks).decode("ascii"))


def _report(cert) -> int:
    for line in cert.report_lines():
        print(line)
    return OK if cert.ok else VIOLATION


@_command(
    "construct",
    "hadamard-aux",
    _one_of(_HADAMARD_ORDER, _opt("--in", dest="input", help="matrix v1 file with a normalized Hadamard matrix")),
    _OUT,
)
def _hadamard_aux(args):
    """auxiliary matrices of a Hadamard matrix"""
    h = _from_file(fileio.read_matrix, args.input) if args.input is not None else hadamard_matrix(args.order)
    _emit(fileio.auxiliary_set_chunks(aux_from_hadamard(h)), args.output)


@_command("construct", "ag-aux", _Q, _opt("--d", type=int, default=1), _OUT)
def _ag_aux(args):
    """auxiliary matrices of an affine geometry"""
    _emit(fileio.auxiliary_set_chunks(aux_from_affine_geometry(args.q, args.d)), args.output)


@_command("construct", "mols", _Q, _OUT)
def _mols(args):
    """field-derived squares, pairwise orthogonal"""
    _emit(fileio.mols_list_chunks(mols_from_gf(gf_from_order(args.q))), args.output)


@_command("construct", "linked-mols", _Q, _OUT)
def _linked_mols(args):
    """linked family of compositions of the field squares"""
    _emit(fileio.linked_family_chunks(linked_mols_from_gf(gf_from_order(args.q))), args.output)


@_command("construct", "tilde-l", _opt("--aux", required=True), _opt("--mols", required=True), _OUT)
def _tilde_l(args):
    """linked system from auxiliary matrices and a linked family"""
    aux = _from_file(fileio.read_auxiliary_set, args.aux)
    fam = _from_file(fileio.read_linked_family, args.mols)
    _emit(fileio.linked_system_chunks(build_tilde_l(aux, fam)), args.output)


@_command(
    "construct",
    "conference-gdd",
    _one_of(
        _opt("--order", type=int, help="Paley conference order"),
        _opt("--in", dest="input", help="matrix v1 file with a conference matrix"),
    ),
    _OUT,
    _PARAMS_OUT,
)
def _conference_gdd(args):
    """design from a conference matrix"""
    c = _from_file(fileio.read_matrix, args.input) if args.input is not None else paley_conference_matrix(args.order)
    mat, params = conference_to_gdd(c)
    _emit(fileio.matrix_chunks(mat.mat), args.output)
    _emit(fileio.gdd_params_chunks(params), args.params_out)


@_command("construct", "bgw", _Q, _OUT)
def _bgw(args):
    """balanced generalized weighing matrix over a cyclic group"""
    _emit(fileio.gcm_chunks(bgw_generate(args.q)), args.output)


@_command("construct", "gcm-gdd", _IN, _OUT, _PARAMS_OUT)
def _gcm_gdd(args):
    """design from a generalized conference matrix file"""
    mat, params = gcm_to_gdd(_from_file(fileio.read_gcm, args.input))
    _emit(fileio.matrix_chunks(mat.mat), args.output)
    _emit(fileio.gdd_params_chunks(params), args.params_out)


@_command(
    "construct",
    "twin",
    _one_of(_HADAMARD_ORDER, _opt("--hadamard", help="matrix v1 file with a normalized Hadamard matrix")),
    _opt("--weighing", help="matrix-set file of disjoint weighing matrices"),
    _opt("-o", "--output", required=True, help="prefix for .plus.mat/.minus.mat"),
    _PARAMS_OUT,
)
def _twin(args):
    """twin designs from a Hadamard matrix and weighing matrices"""
    h = _from_file(fileio.read_matrix, args.hadamard) if args.hadamard is not None else hadamard_matrix(args.order)
    ws = _from_file(fileio.read_matrix_set, args.weighing) if args.weighing else signed_permutation_weighing_set(h.rows)
    twin = build_twin(h, ws)
    _write(args.output + ".plus.mat", fileio.matrix_chunks(twin.plus.mat))
    _write(args.output + ".minus.mat", fileio.matrix_chunks(twin.minus.mat))
    _emit(fileio.gdd_params_chunks(twin.params), args.params_out)


@_command("construct", "mub-system", _opt("--in", dest="input", required=True, help="matrix-set file"), _OUT)
def _mub_system(args):
    """linked system from unbiased Bush-type Hadamard matrices"""
    system = build_from_mub_bush(_from_file(fileio.read_matrix_set, args.input))
    _emit(fileio.linked_system_chunks(system), args.output)


@_command("verify", "gdd", _FILE, _one_of(_opt("--params", help='inline "v k m n l1 l2"'), _opt("--params-file")))
def _verify_gdd(args):
    """certify a design against its parameters"""
    if args.params is not None:
        params = fileio.parse_inline_gdd_params(args.params)
    else:
        params = _from_file(fileio.read_gdd_params, args.params_file)
    inc = IncidenceMatrix(_from_file(fileio.read_matrix, args.input), params.m, params.n)
    return _report(verify_gdd(inc, params))


@_command("verify", "aux", _FILE)
def _verify_aux(args):
    """certify an auxiliary set"""
    return _report(verify_auxiliary(_from_file(fileio.read_auxiliary_set, args.input)))


@_command("verify", "latin", _FILE)
def _verify_latin(args):
    """certify a Latin square or a linked family"""
    read = _from_file(fileio.read_latin, args.input)
    if isinstance(read, LinkedMolsFamily):
        cert = verify_linked(read)
        for v in cert.violations:
            print(f"violation: {v}")
        print(f"linked family f={read.f} order={read.order}: {'OK' if cert.ok else 'VIOLATED'}")
        return OK if cert.ok else VIOLATION
    print("latin square: OK")


@_command("verify", "linked-system", _FILE)
def _verify_linked_system(args):
    """certify a linked system of type II"""
    return _report(verify_linked_system(_from_file(fileio.read_linked_system, args.input)))


@_command("verify", "scheme", _FILE)
def _verify_scheme(args):
    """certify a 5-class association scheme"""
    return _report(certify_classes(_from_file(fileio.read_scheme, args.input)).certificate)


@_command("scheme", "assemble", _IN, _OUT)
def _assemble(args):
    """the scheme of a linked system"""
    scheme = assemble_scheme(_from_file(fileio.read_linked_system, args.input))
    _emit(fileio.scheme_chunks(scheme.relation), args.output)


@_command("scheme", "analyze", _IN)
def _analyze(args):
    """parameters, spectra and Krein certification report"""
    scheme, primary = load_scheme(_from_file(fileio.read_scheme, args.input))
    params = scheme.params
    print(f"parameters: k={params.k} m={params.m} n={params.n} f={params.f} |X|={params.size}")
    if primary.labels != tuple(range(6)):
        print(f"classes relabeled as {primary.labels}")
    return _report(scheme.certificate)


@_command("scheme", "extract", _IN, _OUT)
def _extract(args):
    """the linked system of a scheme"""
    report = extract_linked_system(_from_file(fileio.read_scheme, args.input))
    primary = report.primary
    for cand in report.candidates:
        mark = "primary" if cand is primary else "alternate"
        print(
            f"{mark}: labels={cand.labels} (k,m,n,f)="
            f"({cand.params.k},{cand.params.m},{cand.params.n},{cand.params.f}) "
            f"triple={cand.triple} spectra_match={cand.spectra_match} certified={cand.certified}"
        )
    if primary.system is not None:
        _emit(fileio.linked_system_chunks(primary.system), args.output)


@_command("scheme", "fusion", _IN, _OUT)
def _fusion(args):
    """the 3-class fusion test"""
    scheme, _ = load_scheme(_from_file(fileio.read_scheme, args.input))
    result = check_fusion(scheme)
    print(f"fusable: {result.fusable}; degree condition met: {result.predicted}")
    if result.fusable and result.eigenspace_partition:
        print(f"merged eigenspaces: {result.eigenspace_partition}")
    if result.fusable and args.output:
        _write(args.output, fileio.scheme_chunks(result.fused_relation))
    return OK if result.consistent else VIOLATION


def _emit_rows(args, rows, table: int, annotations=None):
    render = rows_to_csv if args.format == "csv" else rows_to_text
    _emit([render(rows, table, annotations=annotations).encode("ascii")], args.output)


@_command(
    "scan",
    "table1",
    _opt("--vmax", type=int, default=1000),
    _OUT,
    _FORMAT,
    _opt(
        "--witnesses",
        action="store_true",
        help="annotate rows whose linked system this package constructs and certifies",
    ),
)
def _table1(args):
    """feasible parameters of Table 1"""
    rows = scan_table1(args.vmax)
    _emit_rows(args, rows, 1, table1_witnesses(rows) if args.witnesses else None)


@_command("scan", "table2", _opt("--vmax", type=int, default=500), _OUT, _FORMAT)
def _table2(args):
    """feasible parameters of Table 2"""
    _emit_rows(args, scan_table2(args.vmax), 2)


@_command(
    "oracle",
    "linked-mols",
    _opt("--order", type=int, required=True),
    _opt("--f", type=int, default=3),
    _opt("--any-diagonal", action="store_true", help="drop the zero-diagonal constraint"),
    _OUT,
)
def _oracle_linked_mols(args):
    """search for a linked family of Latin squares"""
    fam = search_linked_mols(args.order, args.f, zero_diagonal=not args.any_diagonal)
    if fam is None:
        print("exhausted: no linked family exists with these constraints")
        return VIOLATION
    _emit(fileio.linked_family_chunks(fam), args.output)


@_command("oracle", "bush", _opt("--n", type=int, required=True), _opt("--f", type=int, required=True), _OUT)
def _oracle_bush(args):
    """search for unbiased Bush-type Hadamard matrices"""
    found = bush_search(args.n, args.f)
    if found is None:
        print("exhausted: no such family exists")
        return VIOLATION
    _emit(fileio.matrix_set_chunks(found), args.output)


def command_parser(verb: str, target: str) -> argparse.ArgumentParser:
    """The argument parser of ``sgdd VERB TARGET``."""
    return _add(argparse.ArgumentParser(prog=f"sgdd {verb} {target}"), COMMANDS[verb][target][0])


def _menu(prog: str, slot: str, choices: dict[str, str], asked: list[str]) -> int:
    """List the verbs, or one verb's targets, when ``asked`` names none of
    them: on stdout for ``-h``, otherwise on stderr as a usage error."""
    kind, width = slot.lower(), max(map(len, choices))
    lines = [f"usage: {prog} {slot} ...", "", f"{kind}s:"]
    lines += [f"  {name:<{width}}  {help}" for name, help in choices.items()]
    if asked[:1] in (["-h"], ["--help"]):
        print("\n".join(lines))
        return OK
    error = f"unknown {kind} {asked[0]!r}" if asked else f"a {kind} is required"
    print("\n".join(lines + [f"{prog}: error: {error}"]), file=sys.stderr)
    return USAGE


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        return _menu("sgdd", "VERB", VERBS, argv)
    verb = argv[0]
    targets = COMMANDS[verb]
    if len(argv) < 2 or argv[1] not in targets:
        helps = {name: handler.__doc__ or "" for name, (_, handler) in targets.items()}
        return _menu(f"sgdd {verb}", "TARGET", helps, argv[1:])
    try:
        args = command_parser(verb, argv[1]).parse_args(argv[2:])
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return targets[argv[1]][1](args) or OK
    except SgddError as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            for line in report.report_lines():
                print(line)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE if isinstance(exc, FormatError) else VIOLATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
