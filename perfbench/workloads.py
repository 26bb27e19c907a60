"""The three benchmark workloads.

Each workload is a closed loop: one caller runs rounds back to back in one
process, jobs=1.  Round k draws its inputs from (seed, workload, k) only.
A workload has three steps per round:

  inputs(k)          untimed; builds the round's inputs
  run(inp, rt)       timed; calls the library entry points the CLI uses.
                     With a RoundTrace it opens the per-check spans.
  check(inp, out)    untimed; returns ({op kind: (attempted, failed)}, wrong),
                     where `wrong` lists headline answers that are false.
"""

from __future__ import annotations

import cmath
import math
import random

P31 = 2**31 - 1


def round_rng(seed: int, workload: str, k: int) -> random.Random:
    # string seeds are hashed with SHA-512, stable across processes
    return random.Random(f"{seed}:{workload}:{k}")


class IdentitySuite:
    """run_suite(2^31-1, seed_k, trials=1) over all registered checks.

    C8 and C9 dominate: triality lifts through the 512x64 intertwiner
    echelon and exact 24x24 determinants.  No complex arithmetic, no
    SparsePoly work."""

    name = "identity_suite"

    def __init__(self, seed: int):
        from octjordan import verify
        self.verify = verify
        self.seed = seed
        self.ids = verify.check_ids()

    def inputs(self, k: int):
        return round_rng(self.seed, self.name, k).randrange(P31)

    def run(self, suite_seed, rt=None):
        run_suite = self.verify.run_suite
        if rt is None:
            return [run_suite(P31, suite_seed, trials=1)]
        reports = []
        for cid in self.ids:
            with rt.span(f"verify.{cid}"):
                reports.append(run_suite(P31, suite_seed, trials=1, checks=[cid]))
        return reports

    def check(self, suite_seed, reports):
        results = [r for rep in reports for r in rep.results]
        wrong = []
        if sorted(r.check_id for r in results) != sorted(self.ids):
            wrong.append("suite did not run every registered check once")
        failed = [r for r in results if not r.passed]
        wrong += [f"{r.check_id} failed at suite seed {suite_seed}: {r.detail}"
                  for r in failed]
        return {"check trials": (sum(r.trials for r in results), len(failed))}, wrong


class FormalRank:
    """aut_dimension_bound(313, seed_k, retries=3, invariant="sodm"), the
    CLI default: sextic expansion, then three restrictions to a random
    chart, each ending in the rank of a wide 162x462 matrix mod 313."""

    name = "formal_rank"
    PRIME = 313
    RETRIES = 3
    RANK = 133
    BOUND = 29

    def __init__(self, seed: int):
        from octjordan import autdim
        self.autdim = autdim
        self.seed = seed

    def inputs(self, k: int):
        return round_rng(self.seed, self.name, k).randrange(P31)

    def run(self, autdim_seed, rt=None):
        return self.autdim.aut_dimension_bound(self.PRIME, autdim_seed,
                                               retries=self.RETRIES,
                                               invariant="sodm")

    def check(self, autdim_seed, report):
        ranks = report["ranks"]
        wrong = []
        if len(ranks) != self.RETRIES:
            wrong.append(f"{len(ranks)} ranks for {self.RETRIES} retries")
        if report.get("max_rank") != self.RANK:
            wrong.append(f"max_rank {report.get('max_rank')} != {self.RANK} "
                         f"at seed {autdim_seed}")
        if report.get("aut_dim_bound") != self.BOUND:
            wrong.append(f"aut_dim_bound {report.get('aut_dim_bound')} != "
                         f"{self.BOUND} at seed {autdim_seed}")
        return {"restriction ranks": (len(ranks), sum(r != self.RANK for r in ranks))}, wrong


class NumericGeometry:
    """One reduction of a generic point plus one corank census batch over
    the three (surface, matrix) pairs.  The point is a unit-normal generic
    triple times a C* scalar (modulus log-uniform on [1e-1, 1e6], uniform
    phase): C* is part of the group action, so every such input is generic.
    CENSUS_SAMPLES makes the census about a third of the round.

    As in the repository's acceptance criterion 8, a draw that
    reduce_to_identity rejects as non-generic is redrawn, inside the timed
    round, and fewer than a tenth of a run's draws may be rejected.  About
    one draw in two hundred is, at any scale.  Below a modulus of about
    1e-3 every draw is (ROADMAP item 4a), so the timed rounds stay at 1e-1
    and above, and scale_sweep() measures the defect apart from them."""

    name = "numeric_geometry"
    CENSUS_SAMPLES = 60
    DRAWS = 4
    LOG10_SCALE = (-1.0, 6.0)
    SWEEP_SCALES = (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6)
    REDUCE_TOL = 1e-6
    TRIALITY_TOL = 1e-10
    WITNESS_RANK = 22

    def __init__(self, seed: int):
        from octjordan import jordan, linalg, reduce, strata
        from octjordan.coeffs import ComplexField
        self.jordan, self.linalg, self.reduce, self.strata = jordan, linalg, reduce, strata
        self.ring = ComplexField()
        self.seed = seed
        H = strata.Hypersurface
        self.pairs = [(H.S_ODM, "M"), (H.TWISTED_CUBIC, "N"), (H.TWISTED_SEXTIC, "N")]
        self.draws = self.rejected = 0

    def inputs(self, k: int):
        """DRAWS candidate (point, scale, reduce seed) draws, and the census seed."""
        rng = round_rng(self.seed, self.name, k)
        draws = []
        for _ in range(self.DRAWS):
            scale = 10 ** rng.uniform(*self.LOG10_SCALE) \
                * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            point = self.reduce.random_generic_triple(rng).scale(scale)
            draws.append((point, scale, rng.randrange(P31)))
        return draws, rng.randrange(P31)

    def scale_sweep(self) -> list:
        """The scales in SWEEP_SCALES at which reduce_to_identity aborts on
        the seed's generic triple; untimed, the same on every run of a seed."""
        rng = round_rng(self.seed, "cstar_sweep", 0)
        point = self.reduce.random_generic_triple(rng)
        aborted = []
        for scale in self.SWEEP_SCALES:
            try:
                self.reduce.reduce_to_identity(point.scale(scale), tol=self.REDUCE_TOL,
                                               seed=self.seed)
            except self.reduce.NonGenericInput:
                aborted.append(scale)
        return aborted

    def run(self, inp, rt=None):
        """Returns (index of the reduced draw or None, its word, the number
        of rejected draws) and the censuses."""
        draws, census_seed = inp
        reduced = (None, None, 0)
        for i, (point, _scale, reduce_seed) in enumerate(draws):
            try:
                word = self.reduce.reduce_to_identity(point, tol=self.REDUCE_TOL,
                                                      seed=reduce_seed)
            except self.reduce.NonGenericInput:
                reduced = (None, None, i + 1)
                continue
            reduced = (i, word, i)
            break
        censuses = [self.strata.corank_census(surface, matrix,
                                              samples=self.CENSUS_SAMPLES,
                                              tol=1e-8, seed=census_seed)
                    for surface, matrix in self.pairs]
        return reduced, censuses

    def check(self, inp, out):
        draws, census_seed = inp
        (index, word, rejected), censuses = out
        self.draws += rejected + (index is not None)
        self.rejected += rejected
        wrong = []
        if index is not None:
            point, scale, _ = draws[index]
            final = self.reduce.replay(word, point)
            dist = self.reduce.distance_to_identity(final)
            if word.residual > self.REDUCE_TOL or dist > self.REDUCE_TOL:
                wrong.append(f"reduction at |s|={abs(scale):.3e} replays to "
                             f"{dist:.3e} from the identity")
            for kind, payload in word.moves:
                if kind == "spin7" and payload.defect() > self.TRIALITY_TOL:
                    wrong.append(f"spin7 move with triality defect {payload.defect():.3e}")
        samples = off = 0
        for (surface, matrix), census in zip(self.pairs, censuses):
            expected = self.strata.EXPECTED_CORANK[(surface, matrix)]
            hits = census.histogram.get(expected, 0)
            samples += census.samples
            off += census.samples - hits
            if census.mode != expected:
                wrong.append(f"census {surface.value}/{matrix} at seed {census_seed}: "
                             f"mode corank {census.mode} != {expected}")
            if surface is self.strata.Hypersurface.TWISTED_SEXTIC:
                if census.witness is None:
                    wrong.append("sextic/N census recorded no witness")
                    continue
                witness = self.jordan.triple_from_json(self.ring, census.witness)
                r = self.linalg.rank(self.ring, self.jordan.build_N(witness), tol=1e-8)
                if r != self.WITNESS_RANK:
                    wrong.append(f"sextic/N witness has rank {r}, not {self.WITNESS_RANK}")
        return {"reductions": (1, int(index is None)),
                "census samples": (samples, off)}, wrong

    def finish(self):
        """Untimed end-of-run report: the rejected draws against the
        criterion-8 limit, and the C*-scale sweep.  Returns (values,
        lines, wrong)."""
        wrong = []
        limit_ok = (self.rejected < 0.1 * self.draws if self.draws >= 10
                    else self.rejected == 0)
        if not limit_ok:
            wrong.append(f"{self.rejected} of {self.draws} reduction draws rejected as "
                         "non-generic (acceptance criterion 8 allows under a tenth)")
        aborted = self.scale_sweep()
        lines = [f"reduction draws rejected as non-generic and redrawn: {self.rejected} of "
                 f"{self.draws} (criterion 8 allows under a tenth)",
                 f"C*-scale sweep (untimed, not ops of the rounds): reduce_to_identity "
                 f"aborts at {len(aborted)} of {len(self.SWEEP_SCALES)} scales of one "
                 "generic triple" + "".join(f"  |s|={s:g}" for s in aborted)]
        return {"reduce.cstar_sweep_aborts": len(aborted)}, lines, wrong


WORKLOADS = {w.name: w for w in (IdentitySuite, FormalRank, NumericGeometry)}
