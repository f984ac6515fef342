"""Batch verification driver.

Loads a configuration (flags, or one JSON file), runs named check
suites, and emits JSON and Markdown reports mapping each check to the
mathematical claim it verifies.  Theorem-backed checks are pass-required
(nonzero exit on failure); recursion-probe runs in the general case are
informational and never affect the exit status.  With a fixed seed and configuration the
JSON report is byte-identical across runs: timing is reported only in the
Markdown rendering.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .coeff import CoeffAlgebra
from .exterior_core import (
    ExteriorContext,
    four_standard_sign_functions,
    koszul_dual_check,
    sign_census,
)
from .extension_dg import build_extension, dg_battery_failure
from .ak_complexes import ak_battery_failure, contraction_realization_check
from .hkr_local import (
    LocalModel,
    compare_hkr_ac,
    cycle_class_local,
    dual_hkr_sign,
    zeta_checks,
)
from .cech_twist import (
    DeltaMatrix,
    NERVE_LIBRARY,
    Nerve,
    NerveError,
    TwistFamily,
    build_cochain,
    canonical_representative,
    cech_delta,
    circle_nerve,
    cochain_module,
    cohomologous,
    combine_representatives,
    conjecture_probe,
    delta_matrix,
    divisor_class,
    eta_recursion,
    l_operator,
    random_hom_twist,
    random_wedge_cochains,
    sphere_nerve,
)
from .modules import StructuralError


# the highest rank any suite runs: COMPARISON_MODELS and probe_general_case
# stop at rank 3, and a higher configured rank would run the same cases
SUITE_MAX_RANK = 3


class ConfigError(ValueError):
    pass


class SuiteConfig:
    """Everything a verify run reads.  Each field is a flag (fmt is
    --format) and a key of a JSON config file; a flag left out takes its
    default in __init__.  Two configs are equal when their fields are."""

    suite: str
    max_rank: int
    nerve: str
    seed: int
    out: str
    fmt: str

    def __init__(self, suite="all", max_rank=SUITE_MAX_RANK, nerve="circle", seed=0, out="", fmt="json"):
        self.suite, self.max_rank, self.nerve, self.seed, self.out, self.fmt = suite, max_rank, nerve, seed, out, fmt
        for name, kind in SuiteConfig.__annotations__.items():
            value = getattr(self, name)
            # kind is the annotation string; an exact match rejects bools as ints
            if type(value).__name__ != kind:
                raise ConfigError(f"config field {name!r} must be {kind}, got {value!r}")
        self._nerve = None
        self._chases = {}
        # rank 2 is the lowest rank every suite covers: below it some checks
        # would run nothing and still pass
        if self.max_rank < 2:
            raise ConfigError("max rank must be at least 2")
        if self.max_rank > SUITE_MAX_RANK:
            raise ConfigError(f"max rank capped at {SUITE_MAX_RANK}")
        if self.fmt not in ("json", "md"):
            raise ConfigError(f"format must be 'json' or 'md', got {self.fmt!r}")
        # checked before any check runs, so a bad path never costs a full run
        if self.out and (Path(self.out).is_dir() or not Path(self.out).parent.is_dir()):
            raise ConfigError(f"report path {self.out!r} is not a file name in an existing directory")

    def __eq__(self, other):
        fields = SuiteConfig.__annotations__
        return other.__class__ is self.__class__ and all(getattr(self, f) == getattr(other, f) for f in fields)

    @classmethod
    def from_json(cls, path):
        try:
            data = json.loads(Path(path).read_text())
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err.strerror}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed config {path}: line {err.lineno} col {err.colno}")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = set(data) - set(cls.__annotations__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def load_nerve(self):
        """The configured nerve, built on first use and shared by every check."""
        if self._nerve is not None:
            return self._nerve
        if self.nerve in NERVE_LIBRARY:
            n = NERVE_LIBRARY[self.nerve]()
        else:
            try:
                n = Nerve.from_json(Path(self.nerve).read_text())
            except FileNotFoundError:
                raise ConfigError(f"unknown nerve {self.nerve!r}")
            except OSError as err:
                raise ConfigError(f"cannot read nerve {self.nerve!r}: {err.strerror}")
            except json.JSONDecodeError as err:
                raise ConfigError(f"malformed nerve file: line {err.lineno}")
            except NerveError as err:
                raise ConfigError(f"malformed nerve file: {err}")
        self._nerve = n
        return n

    def dual_sign_chase(self, r):
        """dual_hkr_sign(r), computed on first use and shared by every check:
        dual-signs and cycle-class read the same chase of each rank."""
        chase = self._chases.get(r)
        if chase is None:
            chase = self._chases[r] = dual_hkr_sign(r)
        return chase


# -- individual checks --------------------------------------------------------


def _rng(config, name):
    return random.Random(f"{config.seed}:{name}")


def _ranks(config, lowest=2):
    """Ranks from lowest up to the configured max rank."""
    return list(range(lowest, config.max_rank + 1))


def _comparison_models(config):
    """The local models (m, r, D) whose rank the configured max rank admits."""
    return [model for model in COMPARISON_MODELS if model[1] <= config.max_rank]


def check_sign_census(config):
    ranks = _ranks(config)
    for r in ranks:
        expected = {tuple(f.values) for f in four_standard_sign_functions(r)}
        for side in ("left", "right"):
            got = {tuple(f.values) for f in sign_census(r, side)}
            if got != expected or len(got) != 4:
                return "fail", {"rank": r, "side": side, "census_size": len(got)}
    return "pass", {"ranks": ranks, "count_per_side": len(got)}


def check_koszul_duality(config):
    ranks = _ranks(config, lowest=1)
    for s in ranks:
        ctx = ExteriorContext(CoeffAlgebra.rationals(), s)
        rng = _rng(config, f"koszul:{s}")
        for trial in range(100):
            phi = [Fraction(rng.randint(-6, 6)) for _ in range(s)]
            ok, details = koszul_dual_check(ctx, phi)
            if not ok:
                return "fail", {"rank": s, "phi": [str(x) for x in phi]}
    return "pass", {"ranks_checked": ranks, "seeds": 100}


def check_dg_battery(config):
    ranks = _ranks(config, lowest=1)
    for algebra in (CoeffAlgebra.rationals(), CoeffAlgebra.polynomial(1, 2)):
        for r in ranks:
            failure = dg_battery_failure(build_extension(algebra, r))
            if failure is not None:
                return "fail", {**failure, "algebra": repr(algebra)}
    return "pass", {"ranks": ranks}


def check_ak_battery(config):
    ranks = _ranks(config, lowest=1)
    for algebra in (CoeffAlgebra.rationals(), CoeffAlgebra.polynomial(1, 2)):
        for r in ranks:
            failure = ak_battery_failure(build_extension(algebra, r))
            if failure is not None:
                return "fail", failure
    return "pass", {"ranks": ranks}


def _random_chi(m, r, D, rng):
    A = CoeffAlgebra.polynomial(m, D)
    return [
        [
            sum(
                (A.monomial(e, rng.randint(-2, 2)) for e in A.monomials if sum(e) <= 1),
                A.zero(),
            )
            for _ in range(r)
        ]
        for _ in range(m)
    ]


COMPARISON_MODELS = [(1, 1, 3), (1, 2, 3), (2, 2, 3), (1, 3, 3)]


def check_hkr_maps(config):
    models = _comparison_models(config)
    for (m, r, D) in models:
        rng = _rng(config, f"hkr:{m}:{r}:{D}")
        splittings = [None] + [_random_chi(m, r, D, rng) for _ in range(3)]
        for chi in splittings:
            model = LocalModel(m, r, D, chi=chi)
            checks = model.gamma_checks()
            if not all(checks.values()):
                return "fail", {"model": (m, r, D), "gamma": {k: bool(v) for k, v in checks.items()}}
            zc = zeta_checks(model.ext, window=D)
            if not all(zc.values()):
                return "fail", {"model": (m, r, D), "zeta": {k: bool(v) for k, v in zc.items()}}
            if not compare_hkr_ac(model):
                return "fail", {"model": (m, r, D), "claim": "route comparison"}
    return "pass", {"models": models, "splittings_per_model": 4}


def check_dual_signs(config):
    ranks = _ranks(config, lowest=1)
    for r in ranks:
        out = config.dual_sign_chase(r)
        expected = [(-1) ** (((r - i) * (r - i - 1)) // 2) for i in range(r + 1)]
        if not out["ok"] or out["signs"] != expected:
            return "fail", {"rank": r, "got": out["signs"], "claims": out["claims"]}
    return "pass", {"ranks": ranks}


def _wedge_families(ext, nerve, rng):
    """A seeded pair [lam, mu] of wedge-type twist families, lam drawn first."""
    return [TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng)) for _ in range(2)]


def _last_level_families(ext, nerve, rng):
    """A seeded pair [lam, mu] of twist families sharing the levels below the
    top one, which are drawn first, then lam's top level, then mu's."""
    shared = [random_hom_twist(ext, nerve, n, rng) for n in range(ext.rank - 1)]
    return [TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, ext.rank - 1, rng)]) for _ in range(2)]


def check_comparison_wedge(config):
    nerve = config.load_nerve()
    ranks = _ranks(config)
    for r in ranks:
        ext = build_extension(CoeffAlgebra.rationals(), r)
        rng = _rng(config, f"wedge:{r}")
        for trial in range(25):
            lam, mu = _wedge_families(ext, nerve, rng)
            try:
                delta = delta_matrix(ext, nerve, lam, mu, "wedge")
            except StructuralError as err:
                return "fail", {"rank": r, "trial": trial, "claim": str(err)}
            if not delta.diagonal_is_identity():
                return "fail", {"rank": r, "trial": trial, "claim": "diagonal"}
            cs_c = [canonical_representative(nerve, c) for c in lam.wedge_data]
            ds_c = [canonical_representative(nerve, d) for d in mu.wedge_data]
            zetas = eta_recursion(ext, nerve, cs_c, ds_c)
            # spot values of the recursion
            if not (zetas[(1, 0)] - (cs_c[0] - ds_c[0])).is_zero():
                return "fail", {"rank": r, "trial": trial, "claim": "first spot value"}
            want21 = (cs_c[0] - ds_c[0] + cs_c[1] - ds_c[1]).scale(Fraction(1, 2))
            if not (zetas[(2, 1)] - want21).is_zero():
                return "fail", {"rank": r, "trial": trial, "claim": "second spot value"}
            want = {(i, j): l_operator(ext, nerve, i, j, z) for (i, j), z in zetas.items()}
            wrong = delta.disagreements(DeltaMatrix(ext, nerve, want))
            if wrong:
                return "fail", {"rank": r, "trial": trial, "entry": wrong[0]}
    return "pass", {"ranks": ranks, "trials_per_rank": 25}


def check_comparison_last_level(config):
    nerve = config.load_nerve()
    ranks = _ranks(config)
    for r in ranks:
        ext = build_extension(CoeffAlgebra.rationals(), r)
        rng = _rng(config, f"last:{r}")
        for trial in range(5):
            lam, mu = _last_level_families(ext, nerve, rng)
            try:
                delta = delta_matrix(ext, nerve, lam, mu, "last-level")
            except StructuralError as err:
                return "fail", {"rank": r, "trial": trial, "claim": str(err)}
            if not delta.diagonal_is_identity():
                return "fail", {"rank": r, "trial": trial, "claim": "diagonal"}
            want = (lam.cocycles[r - 1].cochain - mu.cocycles[r - 1].cochain).scale(
                Fraction(1, r)
            )
            wrong = delta.disagreements(DeltaMatrix(ext, nerve, {(r, r - 1): want}))
            if wrong:
                return "fail", {"rank": r, "trial": trial, "entry": wrong[0]}
    return "pass", {"ranks": ranks, "trials_per_rank": 5}


def check_cycle_class(config):
    models = _comparison_models(config)
    for (m, r, D) in models:
        # the chase reads only the splitting-independent half of the model
        qs = cycle_class_local(LocalModel(m, r, D), config.dual_sign_chase)
        if qs[0] != 1 or any(q != 0 for q in qs[1:]):
            return "fail", {"model": (m, r, D), "qs": [str(q) for q in qs]}
    nerve = circle_nerve()
    ext = build_extension(CoeffAlgebra.rationals(), 1)
    gen = combine_representatives(nerve, 1, ext.lam_i(1), [1])
    noise = build_cochain(nerve, 0, ext.lam_i(1), {(0,): ext.lam_i(1).basis_vec((0,), 2)})
    zero = cochain_module(nerve, ext.lam_i(1), 1).zero()
    cases = {"zero": zero, "generator": gen, "coboundary": cech_delta(nerve, noise)}
    for name, delta_in in cases.items():
        q0, q1 = divisor_class(nerve, delta_in)
        if q0 != 1 or not cohomologous(nerve, q1, delta_in):
            return "fail", {"divisor_case": name, "q0": str(q0)}
    return "pass", {"models": models, "divisor_cases": list(cases)}


def check_contraction_action(config):
    ranks = _ranks(config, lowest=1)
    for r in ranks:
        if not contraction_realization_check(r):
            return "fail", {"rank": r}
    return "pass", {"ranks": ranks}


def check_probe_required_domains(config):
    nerve = config.load_nerve()
    ext = build_extension(CoeffAlgebra.rationals(), 2)
    rng = _rng(config, "probe")
    lam, mu = _wedge_families(ext, nerve, rng)
    try:
        rep = conjecture_probe(ext, nerve, lam, mu, shape="wedge")
    except StructuralError as err:
        return "fail", {"domain": "wedge", "claim": str(err)}
    if rep["agrees"] is not True:
        return "fail", {"domain": "wedge", "entries": rep["entries"]}
    lam2, mu2 = _last_level_families(ext, nerve, rng)
    try:
        rep2 = conjecture_probe(ext, nerve, lam2, mu2, shape="last-level")
    except StructuralError as err:
        return "fail", {"domain": "last-level", "claim": str(err)}
    if rep2["agrees"] is not True:
        return "fail", {"domain": "last-level", "entries": rep2["entries"]}
    return "pass", {"domains": ["wedge", "last-level"]}


def probe_general_case(config):
    """Exploratory probe runs; never pass-required."""
    rng = _rng(config, "probe-general")
    nerve = sphere_nerve(2)
    ext = build_extension(CoeffAlgebra.rationals(), 3)
    lam = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(3)])
    mu = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(3)])
    rep = conjecture_probe(ext, nerve, lam, mu, shape=None)
    return "exploratory", {"nerve": "sphere2", "rank": 3, "report": rep}


SUITES = {
    "signs": [("sign-census", "exactly four twisted-contraction sign conventions per side", check_sign_census)],
    "koszul_duality": [("koszul-duality", "right duality intertwines the Hom dual of a Koszul complex", check_koszul_duality)],
    "dg_algebra": [("dg-battery", "shifted product: associativity, Leibniz, square-zero differential", check_dg_battery)],
    "ak": [("ak-battery", "P resolves the base, Q resolves the twisted top power, product is a chain map", check_ak_battery)],
    "hkr": [("hkr-maps", "comparison maps are quasi-isomorphisms and the two routes agree", check_hkr_maps)],
    "dual_signs": [("dual-signs", "dual comparison acts by the triangular-number signs", check_dual_signs)],
    "comparison_wedge": [
        ("comparison-wedge", "wedge-twist comparison matrix matches the recursion classes", check_comparison_wedge),
        ("probe-domains", "recursion probe agrees on its supported domains", check_probe_required_domains),
    ],
    "comparison_last_level": [
        ("comparison-last-level", "last-level twists give the single rescaled off-diagonal entry", check_comparison_last_level)
    ],
    "cycle_class": [("cycle-class", "split models give the unit class; divisors add their twisting class", check_cycle_class)],
    "contraction_action": [
        ("contraction-action", "the pairing product realizes left contraction after reduction", check_contraction_action)
    ],
    "conjecture": [("probe-general", "general-shape recursion probe (informational)", probe_general_case)],
}

SUITES["all"] = [c for checks in SUITES.values() for c in checks]


class Report:
    def __init__(self, config, records=None):
        self.config = config
        self.records = [] if records is None else records

    @property
    def failed(self):
        return [r for r in self.records if r["status"] == "fail"]

    def to_json(self):
        payload = {
            "config": self.config,
            "checks": [
                {k: r[k] for k in ("id", "claim", "status", "detail")} for r in self.records
            ],
            "failures": len(self.failed),
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"

    def to_markdown(self):
        lines = ["# verification report", "", f"configuration: `{self.config}`", ""]
        lines.append("| check | status | time (s) | claim |")
        lines.append("|---|---|---|---|")
        for r in self.records:
            lines.append(f"| {r['id']} | {r['status']} | {r['elapsed']:.2f} | {r['claim']} |")
        lines.append("")
        for r in self.records:
            if r["status"] == "fail":
                lines.append(f"## witness: {r['id']}")
                lines.append("```json")
                lines.append(json.dumps(r["detail"], indent=2, default=str))
                lines.append("```")
        return "\n".join(lines) + "\n"


def run_suite(config):
    if config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; choose from {sorted(SUITES)}")
    checks = SUITES[config.suite]
    config.load_nerve()  # a bad nerve is a config error, raised before any check runs
    records = []
    for check_id, claim, fn in checks:
        t0 = time.monotonic()
        try:
            status, detail = fn(config)
        except Exception as err:  # a crash is a failure with a witness
            import traceback  # only on a crash: importing it costs start-up time

            # file basenames, not paths: the report stays byte-identical across checkouts
            frames = traceback.extract_tb(err.__traceback__)[-3:]
            status, detail = "fail", {
                "exception": repr(err),
                "traceback": [f"{Path(f.filename).name}:{f.lineno} in {f.name}" for f in frames],
            }
        records.append({
            "id": check_id,
            "claim": claim,
            "status": status,
            "detail": detail,
            "elapsed": time.monotonic() - t0,
        })
    cfg = {k: getattr(config, k) for k in ("suite", "max_rank", "nerve", "seed")}
    return Report(cfg, records)


def main(argv=None):
    # a flag left out is absent from the parsed options, so every default is SuiteConfig's
    parser = argparse.ArgumentParser(
        prog="verify",
        description="run the exact-arithmetic verification suites",
        argument_default=argparse.SUPPRESS,
    )
    flags = [
        parser.add_argument("--suite", help=f"one of {sorted(SUITES)}"),
        parser.add_argument("--max-rank", type=int),
        parser.add_argument("--nerve", help="library name or JSON file"),
        parser.add_argument("--seed", type=int),
        parser.add_argument("--out", help="report output path"),
        parser.add_argument("--format", dest="fmt", help="json or md"),
    ]
    parser.add_argument("--config", help="JSON config file, given without any other flag")
    given = vars(parser.parse_args(argv))
    path = given.pop("config", None)
    try:
        if path is None:
            config = SuiteConfig(**given)
        elif given:
            names = ", ".join(f.option_strings[0] for f in flags if f.dest in given)
            raise ConfigError(f"--config takes no other flag, got {names}")
        else:
            config = SuiteConfig.from_json(path)
        report = run_suite(config)
    except ConfigError as err:
        parser.error(str(err))
    text = report.to_json() if config.fmt == "json" else report.to_markdown()
    if config.out:
        try:
            Path(config.out).write_text(text)
        except OSError as err:
            parser.error(f"cannot write report {config.out!r}: {err.strerror}")
    else:
        sys.stdout.write(text)
    for r in report.records:
        line = f"[{r['status']:>11}] {r['id']} ({r['elapsed']:.2f}s)"
        print(line, file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
