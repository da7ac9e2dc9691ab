#!/usr/bin/env python3
"""Run every desk-scale construction end to end, certify everything, and
write the artifacts (auxiliary sets, linked families, systems, schemes) to a
directory.  This is the script version of the acceptance pipelines."""

import argparse
import time
from pathlib import Path

from sgdd import fileio
from sgdd.classical import (
    hadamard_matrix,
    paley_conference_matrix,
    signed_permutation_weighing_set,
)
from sgdd.gf import gf_make
from sgdd.latin import linked_mols_from_gf, search_linked_mols
from sgdd.linked import (
    bgw_generate,
    build_from_mub_bush,
    build_tilde_l,
    build_twin,
    bush_search,
    conference_to_gdd,
    gcm_to_gdd,
)
from sgdd.resolvable import aux_from_affine_geometry, aux_from_hadamard
from sgdd.schemes import assemble_scheme, check_fusion, extract_linked_system


def stage(label):
    print(f"== {label}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--skip-search", action="store_true", help="skip the two oracle searches")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()

    stage("(16,6,2): Hadamard-4 auxiliary matrices + GF(4) linked family")
    aux4 = aux_from_hadamard(hadamard_matrix(4))
    fam4 = linked_mols_from_gf(gf_make(2, 2))
    sys16 = build_tilde_l(aux4, fam4)
    (out / "had4.aux").write_text(fileio.format_auxiliary_set(aux4))
    (out / "gf4.fam").write_text(fileio.format_linked_family(fam4))
    (out / "sys16.lsys").write_text(fileio.format_linked_system(sys16))
    scheme48 = assemble_scheme(sys16)
    scheme48_text = fileio.format_scheme_matrices(scheme48.relation)
    (out / "scheme48.scm").write_text(scheme48_text)
    fusion = check_fusion(scheme48)
    roundtrip = extract_linked_system(fileio.parse_scheme_matrices(scheme48_text)).primary
    print(f"   system {sys16.params.base} triple {(sys16.params.sigma, sys16.params.tau, sys16.params.rho)}")
    print(f"   48-vertex scheme certified; fusable: {fusion.fusable}; "
          f"extraction round-trip: {all(roundtrip.system.blocks[p].mat == sys16.blocks[p].mat for p in sys16.blocks)}")

    if not args.skip_search:
        stage("(45,12,3): AG(2,3) auxiliary matrices + searched order-5 family")
        aux9 = aux_from_affine_geometry(3, 1)
        fam5 = search_linked_mols(5, 3)
        if fam5 is None:
            print("   search exhausted: no order-5 zero-diagonal linked family (reportable outcome)")
        else:
            sys45 = build_tilde_l(aux9, fam5)
            (out / "ag23.aux").write_text(fileio.format_auxiliary_set(aux9))
            (out / "order5.fam").write_text(fileio.format_linked_family(fam5))
            (out / "sys45.lsys").write_text(fileio.format_linked_system(sys45))
            scheme135 = assemble_scheme(sys45)
            (out / "scheme135.scm").write_text(fileio.format_scheme_matrices(scheme135.relation))
            print(f"   system {sys45.params.base} triple {(sys45.params.sigma, sys45.params.tau, sys45.params.rho)}; "
                  f"135-vertex scheme certified")

    stage("conference path: Paley order 6")
    gdd12, p12 = conference_to_gdd(paley_conference_matrix(6))
    (out / "conf12.mat").write_text(fileio.format_matrix(gdd12.mat))
    (out / "conf12.params").write_text(fileio.format_gdd_params(p12))
    print(f"   certified {p12}")

    stage("generalized conference path: BGW(6,5,4) over C_4")
    gcm = bgw_generate(5)
    gdd24, p24 = gcm_to_gdd(gcm)
    (out / "bgw654.gcm").write_text(fileio.format_gcm(gcm))
    (out / "gcm24.mat").write_text(fileio.format_matrix(gdd24.mat))
    (out / "gcm24.params").write_text(fileio.format_gdd_params(p24))
    print(f"   certified {p24}")

    stage("twin path: order-4 Hadamard + weight-1 signed permutations")
    twin = build_twin(hadamard_matrix(4), signed_permutation_weighing_set(4))
    (out / "twin16.plus.mat").write_text(fileio.format_matrix(twin.plus.mat))
    (out / "twin16.minus.mat").write_text(fileio.format_matrix(twin.minus.mat))
    print(f"   certified twin pair {twin.params}")

    if not args.skip_search:
        stage("unbiased Bush-type pair of order 16 (search) -> linked system")
        pair = bush_search(2, 2)
        if pair is None:
            print("   search exhausted (reportable outcome)")
        else:
            (out / "bush16.hset").write_text(fileio.format_matrix_set(pair))
            mub = build_from_mub_bush(pair)
            (out / "mub16.lsys").write_text(fileio.format_linked_system(mub))
            print(f"   system {mub.params.base} triple {(mub.params.sigma, mub.params.tau, mub.params.rho)}")

    print(f"done in {time.monotonic() - t0:.2f}s; artifacts in {out}/")


if __name__ == "__main__":
    main()
