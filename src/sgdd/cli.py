"""Command-line front end: file-based pipelines over the library.

Exit status: 0 = certified/success, 1 = violation found, 2 = usage or I/O
error.  Every ``construct`` sub-verb certifies its output before writing
(fail-closed), so an uncertified artifact can never hit disk.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .classical import hadamard_matrix, paley_conference_matrix, signed_permutation_weighing_set
from .designs import IncidenceMatrix, verify_gdd
from .errors import FormatError, SgddError
from .gf import factor_prime_power, gf_make
from .latin import (
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


def _read(path: str) -> bytes:
    data = Path(path).read_bytes()
    if (at := fileio.first_non_ascii(data)) is not None:
        raise FormatError(f"{path}: non-ASCII byte 0x{data[at]:02x} at offset {at}")
    return data


def _write(path: str, text: str):
    Path(path).write_text(text, encoding="ascii")


def _emit(text: str, out: str | None):
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _load_params(args):
    if args.params is not None:
        return fileio.parse_inline_gdd_params(args.params)
    return fileio.parse_gdd_params(_read(args.params_file))


def _report(cert) -> int:
    for line in cert.report_lines():
        print(line)
    return OK if cert.ok else VIOLATION


# -- construct ----------------------------------------------------------------


def _cmd_construct(args) -> int:
    sub = args.what
    if sub == "hadamard-aux":
        h = fileio.parse_matrix(_read(args.input)) if args.input is not None else hadamard_matrix(args.order)
        aux = aux_from_hadamard(h)
        _emit(fileio.format_auxiliary_set(aux), args.output)
        return OK
    if sub == "ag-aux":
        aux = aux_from_affine_geometry(args.q, args.d)
        _emit(fileio.format_auxiliary_set(aux), args.output)
        return OK
    if sub == "mols":
        p, d = factor_prime_power(args.q)
        squares = mols_from_gf(gf_make(p, d))
        _emit(fileio.format_mols_list(squares), args.output)
        return OK
    if sub == "linked-mols":
        p, d = factor_prime_power(args.q)
        fam = linked_mols_from_gf(gf_make(p, d))
        _emit(fileio.format_linked_family(fam), args.output)
        return OK
    if sub == "tilde-l":
        aux = fileio.parse_auxiliary_set(_read(args.aux))
        fam = fileio.parse_linked_family(_read(args.mols))
        system = build_tilde_l(aux, fam)
        _emit(fileio.format_linked_system(system), args.output)
        return OK
    if sub == "conference-gdd":
        c = fileio.parse_matrix(_read(args.input)) if args.input is not None else paley_conference_matrix(args.order)
        mat, params = conference_to_gdd(c)
        _emit(fileio.format_matrix(mat.mat), args.output)
        params_text = fileio.format_gdd_params(params)
        if args.params_out:
            _write(args.params_out, params_text)
        else:
            sys.stdout.write(params_text)
        return OK
    if sub == "bgw":
        gcm = bgw_generate(args.q)
        _emit(fileio.format_gcm(gcm), args.output)
        return OK
    if sub == "gcm-gdd":
        gcm = fileio.parse_gcm(_read(args.input))
        mat, params = gcm_to_gdd(gcm)
        _emit(fileio.format_matrix(mat.mat), args.output)
        params_text = fileio.format_gdd_params(params)
        if args.params_out:
            _write(args.params_out, params_text)
        else:
            sys.stdout.write(params_text)
        return OK
    if sub == "twin":
        h = fileio.parse_matrix(_read(args.hadamard)) if args.hadamard is not None else hadamard_matrix(args.order)
        if args.weighing:
            ws = fileio.parse_matrix_set(_read(args.weighing))
        else:
            if args.weight != 1:
                raise SgddError("only weight 1 is generated internally; use --weighing")
            ws = signed_permutation_weighing_set(h.rows)
        twin = build_twin(h, ws)
        _write(args.output + ".plus.mat", fileio.format_matrix(twin.plus.mat))
        _write(args.output + ".minus.mat", fileio.format_matrix(twin.minus.mat))
        params_text = fileio.format_gdd_params(twin.params)
        if args.params_out:
            _write(args.params_out, params_text)
        else:
            sys.stdout.write(params_text)
        return OK
    if sub == "mub-system":
        hs = fileio.parse_matrix_set(_read(args.input))
        system = build_from_mub_bush(hs)
        _emit(fileio.format_linked_system(system), args.output)
        return OK
    raise SgddError(f"unknown construct target {sub!r}")


# -- verify --------------------------------------------------------------------


def _cmd_verify(args) -> int:
    sub = args.what
    if sub == "gdd":
        params = _load_params(args)
        mat = fileio.parse_matrix(_read(args.input))
        inc = IncidenceMatrix(mat, params.m, params.n)
        return _report(verify_gdd(inc, params))
    if sub == "aux":
        aux = fileio.parse_auxiliary_set(_read(args.input))
        return _report(verify_auxiliary(aux))
    if sub == "latin":
        data = _read(args.input)
        if len(fileio.Lines(data, "latin square").next().split()) == 2:
            fam = fileio.parse_linked_family(data)
            cert = verify_linked(fam)
            for v in cert.violations:
                print(f"violation: {v}")
            print(f"linked family f={fam.f} order={fam.order}: {'OK' if cert.ok else 'VIOLATED'}")
            return OK if cert.ok else VIOLATION
        fileio.parse_latin_square(data)
        print("latin square: OK")
        return OK
    if sub == "linked-system":
        system = fileio.parse_linked_system(_read(args.input))
        return _report(verify_linked_system(system))
    if sub == "scheme":
        return _report(certify_classes(fileio.parse_scheme_matrices(_read(args.input))).certificate)
    raise SgddError(f"unknown verify target {sub!r}")


# -- scheme ---------------------------------------------------------------------


def _cmd_scheme(args) -> int:
    sub = args.what
    if sub == "assemble":
        scheme = assemble_scheme(fileio.parse_linked_system(_read(args.input)))
        _emit(fileio.format_scheme_matrices(scheme.relation), args.output)
        return OK
    if sub == "analyze":
        scheme, primary = load_scheme(fileio.parse_scheme_matrices(_read(args.input)))
        params = scheme.params
        print(f"parameters: k={params.k} m={params.m} n={params.n} f={params.f} |X|={params.size}")
        if primary.labels != tuple(range(6)):
            print(f"classes relabeled as {primary.labels}")
        return _report(scheme.certificate)
    if sub == "extract":
        report = extract_linked_system(fileio.parse_scheme_matrices(_read(args.input)))
        primary = report.primary
        for cand in report.candidates:
            mark = "primary" if cand is primary else "alternate"
            print(
                f"{mark}: labels={cand.labels} (k,m,n,f)="
                f"({cand.params.k},{cand.params.m},{cand.params.n},{cand.params.f}) "
                f"triple={cand.triple} spectra_match={cand.spectra_match} certified={cand.certified}"
            )
        if primary.system is not None:
            _emit(fileio.format_linked_system(primary.system), args.output)
        return OK
    if sub == "fusion":
        scheme, _ = load_scheme(fileio.parse_scheme_matrices(_read(args.input)))
        result = check_fusion(scheme)
        print(f"fusable: {result.fusable}; degree condition met: {result.predicted}")
        if result.fusable and result.eigenspace_partition:
            print(f"merged eigenspaces: {result.eigenspace_partition}")
        if result.fusable and args.output:
            _write(args.output, fileio.format_scheme_matrices(result.fused_relation))
        return OK if result.consistent else VIOLATION
    raise SgddError(f"unknown scheme action {sub!r}")


# -- scan -----------------------------------------------------------------------


def _cmd_scan(args) -> int:
    if args.what == "table1":
        rows = scan_table1(args.vmax)
        table = 1
    elif args.what == "table2":
        rows = scan_table2(args.vmax)
        table = 2
    else:
        raise SgddError(f"unknown scan target {args.what!r}")
    annotations = None
    if getattr(args, "witnesses", False):
        annotations = table1_witnesses(rows)
    render = rows_to_csv if args.format == "csv" else rows_to_text
    _emit(render(rows, table, annotations=annotations), args.output)
    return OK


# -- oracle ---------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    if args.what == "linked-mols":
        fam = search_linked_mols(args.order, args.f, zero_diagonal=not args.any_diagonal)
        if fam is None:
            print("exhausted: no linked family exists with these constraints")
            return VIOLATION
        cert = verify_linked(fam)
        if not cert.ok:
            return VIOLATION
        _emit(fileio.format_linked_family(fam), args.output)
        return OK
    if args.what == "bush":
        found = bush_search(args.n, args.f)
        if found is None:
            print("exhausted: no such family exists")
            return VIOLATION
        _emit(fileio.format_matrix_set(found), args.output)
        return OK
    raise SgddError(f"unknown oracle {args.what!r}")


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sgdd",
        description="construct, certify and analyze symmetric group divisible designs, "
        "linked systems of type II, and their 5-class association schemes",
    )
    verbs = top.add_subparsers(dest="verb", required=True)

    con = verbs.add_parser("construct", help="build a certified object and write it")
    consub = con.add_subparsers(dest="what", required=True)

    c = consub.add_parser("hadamard-aux", help="auxiliary matrices of a Hadamard matrix")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--order", type=int, help="catalog Hadamard order")
    src.add_argument("--in", dest="input", help="matrix v1 file with a normalized Hadamard matrix")
    c.add_argument("-o", "--output")

    c = consub.add_parser("ag-aux", help="auxiliary matrices of an affine geometry")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--d", type=int, default=1)
    c.add_argument("-o", "--output")

    c = consub.add_parser("mols", help="field-derived squares, pairwise orthogonal")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("-o", "--output")

    c = consub.add_parser("linked-mols", help="linked family of compositions of the field squares")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("-o", "--output")

    c = consub.add_parser("tilde-l", help="linked system from auxiliary matrices and a linked family")
    c.add_argument("--aux", required=True)
    c.add_argument("--mols", required=True)
    c.add_argument("-o", "--output")

    c = consub.add_parser("conference-gdd", help="design from a conference matrix")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--order", type=int, help="Paley conference order")
    src.add_argument("--in", dest="input", help="matrix v1 file with a conference matrix")
    c.add_argument("-o", "--output")
    c.add_argument("--params-out")

    c = consub.add_parser("bgw", help="balanced generalized weighing matrix over a cyclic group")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("-o", "--output")

    c = consub.add_parser("gcm-gdd", help="design from a generalized conference matrix file")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("-o", "--output")
    c.add_argument("--params-out")

    c = consub.add_parser("twin", help="twin designs from a Hadamard matrix and weighing matrices")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--order", type=int, help="catalog Hadamard order")
    src.add_argument("--hadamard", help="matrix v1 file with a normalized Hadamard matrix")
    c.add_argument("--weight", type=int, default=1)
    c.add_argument("--weighing", help="matrix-set file of disjoint weighing matrices")
    c.add_argument("-o", "--output", required=True, help="prefix for .plus.mat/.minus.mat")
    c.add_argument("--params-out")

    c = consub.add_parser("mub-system", help="linked system from unbiased Bush-type Hadamard matrices")
    c.add_argument("--in", dest="input", required=True, help="matrix-set file")
    c.add_argument("-o", "--output")

    ver = verbs.add_parser("verify", help="certify an artifact file")
    versub = ver.add_subparsers(dest="what", required=True)
    for name, with_params in (("gdd", True), ("aux", False), ("latin", False), ("linked-system", False), ("scheme", False)):
        v = versub.add_parser(name)
        v.add_argument("input")
        if with_params:
            src = v.add_mutually_exclusive_group(required=True)
            src.add_argument("--params", help='inline "v k m n l1 l2"')
            src.add_argument("--params-file")

    sch = verbs.add_parser("scheme", help="assemble, analyze, extract, or fuse a scheme")
    schsub = sch.add_subparsers(dest="what", required=True)
    for name in ("assemble", "analyze", "extract", "fusion"):
        s = schsub.add_parser(name)
        s.add_argument("--in", dest="input", required=True)
        s.add_argument("-o", "--output")

    sc = verbs.add_parser("scan", help="feasible-parameter tables")
    scsub = sc.add_subparsers(dest="what", required=True)
    for name, default_vmax in (("table1", 1000), ("table2", 500)):
        s = scsub.add_parser(name)
        s.add_argument("--vmax", type=int, default=default_vmax)
        s.add_argument("-o", "--output")
        s.add_argument("--format", choices=("csv", "text"), default="csv")
        if name == "table1":
            s.add_argument(
                "--witnesses",
                action="store_true",
                help="annotate rows whose linked system this package constructs and certifies",
            )

    orc = verbs.add_parser("oracle", help="desk-scale existence searches")
    orcsub = orc.add_subparsers(dest="what", required=True)
    s = orcsub.add_parser("linked-mols")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--f", type=int, default=3)
    s.add_argument("--any-diagonal", action="store_true", help="drop the zero-diagonal constraint")
    s.add_argument("-o", "--output")
    s = orcsub.add_parser("bush")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--f", type=int, required=True)
    s.add_argument("-o", "--output")

    return top


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "scheme": _cmd_scheme,
    "scan": _cmd_scan,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return _HANDLERS[args.verb](args)
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
