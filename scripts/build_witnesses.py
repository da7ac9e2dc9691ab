#!/usr/bin/env python3
"""Run every desk-scale construction end to end, certify everything, and
write the artifacts (auxiliary sets, linked families, systems, schemes) to a
directory.  This is the script version of the acceptance pipelines."""

import argparse
import time
from pathlib import Path

import numpy as np

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


def write(path: Path, chunks):
    """A ``fileio`` writer's byte chunks, written to ``path``."""
    with open(path, "wb") as stream:
        stream.writelines(chunks)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()

    stage("(16,6,2): Hadamard-4 auxiliary matrices + GF(4) linked family")
    aux4 = aux_from_hadamard(hadamard_matrix(4))
    fam4 = linked_mols_from_gf(gf_make(2, 2))
    sys16 = build_tilde_l(aux4, fam4)
    write(out / "had4.aux", fileio.auxiliary_set_chunks(aux4))
    write(out / "gf4.fam", fileio.linked_family_chunks(fam4))
    write(out / "sys16.lsys", fileio.linked_system_chunks(sys16))
    scheme48 = assemble_scheme(sys16)
    write(out / "scheme48.scm", fileio.scheme_chunks(scheme48.relation))
    fusion = check_fusion(scheme48)
    with open(out / "scheme48.scm", "rb") as stream:
        roundtrip = extract_linked_system(fileio.read_scheme(stream)).primary
    print(f"   system {sys16.params.base} triple {(sys16.params.sigma, sys16.params.tau, sys16.params.rho)}")
    print(f"   48-vertex scheme certified; fusable: {fusion.fusable}; "
          f"extraction round-trip: {np.array_equal(roundtrip.system.stack, sys16.stack)}")

    stage("(45,12,3): AG(2,3) auxiliary matrices + searched order-5 family")
    aux9 = aux_from_affine_geometry(3, 1)
    fam5 = search_linked_mols(5, 3)
    if fam5 is None:
        print("   search exhausted: no order-5 zero-diagonal linked family (reportable outcome)")
    else:
        sys45 = build_tilde_l(aux9, fam5)
        write(out / "ag23.aux", fileio.auxiliary_set_chunks(aux9))
        write(out / "order5.fam", fileio.linked_family_chunks(fam5))
        write(out / "sys45.lsys", fileio.linked_system_chunks(sys45))
        scheme135 = assemble_scheme(sys45)
        write(out / "scheme135.scm", fileio.scheme_chunks(scheme135.relation))
        print(f"   system {sys45.params.base} triple {(sys45.params.sigma, sys45.params.tau, sys45.params.rho)}; "
              f"135-vertex scheme certified")

    stage("conference path: Paley order 6")
    gdd12, p12 = conference_to_gdd(paley_conference_matrix(6))
    write(out / "conf12.mat", fileio.matrix_chunks(gdd12))
    write(out / "conf12.params", fileio.gdd_params_chunks(p12))
    print(f"   certified {p12}")

    stage("generalized conference path: BGW(6,5,4) over C_4")
    gcm = bgw_generate(5)
    gdd24, p24 = gcm_to_gdd(gcm)
    write(out / "bgw654.gcm", fileio.gcm_chunks(gcm))
    write(out / "gcm24.mat", fileio.matrix_chunks(gdd24))
    write(out / "gcm24.params", fileio.gdd_params_chunks(p24))
    print(f"   certified {p24}")

    stage("twin path: order-4 Hadamard + weight-1 signed permutations")
    twin = build_twin(hadamard_matrix(4), signed_permutation_weighing_set(4))
    write(out / "twin16.plus.mat", fileio.matrix_chunks(twin.plus))
    write(out / "twin16.minus.mat", fileio.matrix_chunks(twin.minus))
    print(f"   certified twin pair {twin.params}")

    stage("unbiased Bush-type pair of order 16 (search) -> linked system")
    pair = bush_search(2, 2)
    if pair is None:
        print("   search exhausted (reportable outcome)")
    else:
        write(out / "bush16.hset", fileio.matrix_set_chunks(pair))
        mub = build_from_mub_bush(pair)
        write(out / "mub16.lsys", fileio.linked_system_chunks(mub))
        print(f"   system {mub.params.base} triple {(mub.params.sigma, mub.params.tau, mub.params.rho)}")

    print(f"done in {time.monotonic() - t0:.2f}s; artifacts in {out}/")


if __name__ == "__main__":
    main()
